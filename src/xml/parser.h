#ifndef XYMON_XML_PARSER_H_
#define XYMON_XML_PARSER_H_

#include <string_view>

#include "src/common/result.h"
#include "src/xml/dom.h"

namespace xymon::xml {

/// From-scratch, non-validating XML 1.0 parser (the subset that occurs in the
/// paper's workload: elements, attributes, character data, comments, CDATA,
/// processing instructions, DOCTYPE with SYSTEM id, the five predefined
/// entities and numeric character references).
///
/// Errors are reported with 1-based line:column positions.
///
/// Whitespace-only character data between markup is dropped (ignorable
/// whitespace): the monitoring chain never depends on indentation, and this
/// makes Parse∘Serialize a fixpoint and keeps version diffs free of
/// formatting noise. Mixed content with non-whitespace text is preserved
/// verbatim.
Result<Document> Parse(std::string_view input);

/// Resource limits for parsing hostile input (the crawler feeds the parser
/// whatever the web serves).
struct ParseOptions {
  /// Maximum element nesting; deeper input fails with ResourceExhausted
  /// instead of exhausting the stack.
  size_t max_depth = 512;
  /// Maximum input size in bytes (0 = unlimited).
  size_t max_input_bytes = 0;
  /// Maximum number of nodes (elements and text runs) in the document;
  /// more fail with ResourceExhausted (0 = unlimited).
  size_t max_nodes = 0;
};

Result<Document> Parse(std::string_view input, const ParseOptions& options);

/// Convenience: parses and returns just the root element (drops prolog).
Result<std::unique_ptr<Node>> ParseFragment(std::string_view input);

}  // namespace xymon::xml

#endif  // XYMON_XML_PARSER_H_
