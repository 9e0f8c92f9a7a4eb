#ifndef XYMON_WAREHOUSE_DOMAIN_CLASSIFIER_H_
#define XYMON_WAREHOUSE_DOMAIN_CLASSIFIER_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/xml/dom.h"

namespace xymon::warehouse {

/// Stand-in for Xyleme's semantic module (paper §2.1): classifies documents
/// into named domains from their DTD, root tag or URL. The full system
/// clusters DTDs semantically; for monitoring, all that matters is that the
/// `domain = string` condition has a deterministic source, which rule-based
/// classification provides.
class DomainClassifier {
 public:
  /// A rule matches when every non-empty field matches the document. First
  /// matching rule (in insertion order) wins.
  struct Rule {
    std::string domain;
    std::string doctype_name;   // exact DOCTYPE name
    std::string root_tag;       // exact root element tag
    std::string url_substring;  // substring of the URL
  };

  void AddRule(Rule rule) { rules_.push_back(std::move(rule)); }

  /// Returns the domain, or "" if no rule matches. `root` may be null (HTML).
  std::string Classify(std::string_view url, std::string_view doctype_name,
                       const xml::Node* root) const;

  const std::vector<Rule>& rules() const { return rules_; }

 private:
  std::vector<Rule> rules_;
};

}  // namespace xymon::warehouse

#endif  // XYMON_WAREHOUSE_DOMAIN_CLASSIFIER_H_
