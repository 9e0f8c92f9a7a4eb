#include "src/xml/parser.h"

#include <cctype>
#include <string>

namespace xymon::xml {
namespace {

bool IsNameStartChar(char c) {
  unsigned char u = static_cast<unsigned char>(c);
  return isalpha(u) || c == '_' || c == ':' || u >= 0x80;
}

bool IsNameChar(char c) {
  unsigned char u = static_cast<unsigned char>(c);
  return IsNameStartChar(c) || isdigit(u) || c == '-' || c == '.';
}

class ParserImpl {
 public:
  ParserImpl(std::string_view input, const ParseOptions& options)
      : input_(input), options_(options) {}

  Result<Document> Parse() {
    Document doc;
    if (options_.max_input_bytes != 0 &&
        input_.size() > options_.max_input_bytes) {
      return Status::ResourceExhausted(
          "document exceeds the input limit (" +
          std::to_string(input_.size()) + " > " +
          std::to_string(options_.max_input_bytes) + " bytes)");
    }
    XYMON_RETURN_IF_ERROR(SkipProlog(&doc));
    if (Eof()) return Err("expected root element");
    if (Peek() != '<') return Err("expected '<' at document root");
    auto root = ParseElement();
    if (!root.ok()) return root.status();
    doc.root = std::move(root).value();
    SkipMisc();
    if (!Eof()) return Err("trailing content after root element");
    return doc;
  }

 private:
  // -- Character-level helpers ----------------------------------------------

  bool Eof() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  char PeekAt(size_t off) const {
    return pos_ + off < input_.size() ? input_[pos_ + off] : '\0';
  }

  void Advance() {
    if (input_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  void AdvanceN(size_t n) {
    for (size_t i = 0; i < n && !Eof(); ++i) Advance();
  }

  bool Consume(std::string_view lit) {
    if (input_.substr(pos_, lit.size()) != lit) return false;
    AdvanceN(lit.size());
    return true;
  }

  void SkipWhitespace() {
    while (!Eof() && isspace(static_cast<unsigned char>(Peek()))) Advance();
  }

  Status Err(std::string msg) const {
    return Status::ParseError(msg + " at " + std::to_string(line_) + ":" +
                              std::to_string(col_));
  }

  // -- Productions ------------------------------------------------------------

  Status SkipProlog(Document* doc) {
    SkipMisc();
    // XML declaration is handled by SkipMisc (it looks like a PI).
    if (Consume("<!DOCTYPE")) {
      SkipWhitespace();
      doc->doctype_name = ParseName();
      if (doc->doctype_name.empty()) return Err("expected DOCTYPE name");
      SkipWhitespace();
      if (Consume("SYSTEM")) {
        SkipWhitespace();
        auto lit = ParseQuoted();
        if (!lit.ok()) return lit.status();
        doc->dtd_url = std::move(lit).value();
      } else if (Consume("PUBLIC")) {
        SkipWhitespace();
        XYMON_RETURN_IF_ERROR(ParseQuoted().status());
        SkipWhitespace();
        auto lit = ParseQuoted();
        if (!lit.ok()) return lit.status();
        doc->dtd_url = std::move(lit).value();
      }
      SkipWhitespace();
      // Skip an (unparsed) internal subset.
      if (!Eof() && Peek() == '[') {
        int depth = 0;
        while (!Eof()) {
          char c = Peek();
          Advance();
          if (c == '[') ++depth;
          if (c == ']' && --depth == 0) break;
        }
        SkipWhitespace();
      }
      if (!Consume(">")) return Err("unterminated DOCTYPE");
      SkipMisc();
    }
    return Status::OK();
  }

  /// Skips whitespace, comments and processing instructions between markup.
  void SkipMisc() {
    while (true) {
      SkipWhitespace();
      if (input_.substr(pos_, 4) == "<!--") {
        SkipComment();
      } else if (input_.substr(pos_, 2) == "<?") {
        SkipPi();
      } else {
        return;
      }
    }
  }

  void SkipComment() {
    AdvanceN(4);  // "<!--"
    while (!Eof() && input_.substr(pos_, 3) != "-->") Advance();
    AdvanceN(3);
  }

  void SkipPi() {
    AdvanceN(2);  // "<?"
    while (!Eof() && input_.substr(pos_, 2) != "?>") Advance();
    AdvanceN(2);
  }

  std::string ParseName() {
    if (Eof() || !IsNameStartChar(Peek())) return "";
    size_t start = pos_;
    Advance();
    while (!Eof() && IsNameChar(Peek())) Advance();
    return std::string(input_.substr(start, pos_ - start));
  }

  Result<std::string> ParseQuoted() {
    if (Eof() || (Peek() != '"' && Peek() != '\'')) {
      return Err("expected quoted literal");
    }
    char q = Peek();
    Advance();
    std::string out;
    while (!Eof() && Peek() != q) {
      if (Peek() == '&') {
        auto ent = ParseEntity();
        if (!ent.ok()) return ent.status();
        out += std::move(ent).value();
      } else {
        out += Peek();
        Advance();
      }
    }
    if (Eof()) return Err("unterminated literal");
    Advance();  // closing quote
    return out;
  }

  Result<std::string> ParseEntity() {
    Advance();  // '&'
    size_t start = pos_;
    while (!Eof() && Peek() != ';' && pos_ - start < 12) Advance();
    if (Eof() || Peek() != ';') return Err("unterminated entity reference");
    std::string_view name = input_.substr(start, pos_ - start);
    Advance();  // ';'
    if (name == "lt") return std::string("<");
    if (name == "gt") return std::string(">");
    if (name == "amp") return std::string("&");
    if (name == "apos") return std::string("'");
    if (name == "quot") return std::string("\"");
    if (!name.empty() && name[0] == '#') {
      int base = 10;
      std::string_view digits = name.substr(1);
      if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
        base = 16;
        digits = digits.substr(1);
      }
      if (digits.empty()) return Err("empty character reference");
      unsigned long cp = 0;
      for (char c : digits) {
        int d;
        if (c >= '0' && c <= '9') {
          d = c - '0';
        } else if (base == 16 && c >= 'a' && c <= 'f') {
          d = c - 'a' + 10;
        } else if (base == 16 && c >= 'A' && c <= 'F') {
          d = c - 'A' + 10;
        } else {
          return Err("bad character reference");
        }
        cp = cp * base + static_cast<unsigned long>(d);
        if (cp > 0x10FFFF) return Err("character reference out of range");
      }
      return EncodeUtf8(static_cast<uint32_t>(cp));
    }
    return Err("unknown entity '&" + std::string(name) + ";'");
  }

  static std::string EncodeUtf8(uint32_t cp) {
    std::string out;
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
    return out;
  }

  Result<std::unique_ptr<Node>> ParseElement() {
    if (depth_ >= options_.max_depth) {
      return Status::ResourceExhausted(
          "element nesting exceeds the depth limit (" +
          std::to_string(options_.max_depth) + ")");
    }
    ++depth_;
    auto result = ParseElementInner();
    --depth_;
    return result;
  }

  /// Counts one more node against ParseOptions::max_nodes.
  Status CountNode() {
    if (options_.max_nodes != 0 && ++nodes_ > options_.max_nodes) {
      return Status::ResourceExhausted(
          "document exceeds the node limit (" +
          std::to_string(options_.max_nodes) + " nodes)");
    }
    return Status::OK();
  }

  Result<std::unique_ptr<Node>> ParseElementInner() {
    XYMON_RETURN_IF_ERROR(CountNode());
    Advance();  // '<'
    std::string tag = ParseName();
    if (tag.empty()) return Err("expected element name");
    auto node = Node::Element(tag);

    // Attributes.
    while (true) {
      SkipWhitespace();
      if (Eof()) return Err("unterminated start tag <" + tag);
      if (Peek() == '>' || Peek() == '/') break;
      std::string key = ParseName();
      if (key.empty()) return Err("expected attribute name in <" + tag + ">");
      SkipWhitespace();
      if (Eof() || Peek() != '=') return Err("expected '=' after attribute");
      Advance();
      SkipWhitespace();
      auto val = ParseQuoted();
      if (!val.ok()) return val.status();
      if (node->GetAttribute(key) != nullptr) {
        return Err("duplicate attribute '" + key + "'");
      }
      node->SetAttribute(key, *val);
    }

    if (Peek() == '/') {
      Advance();
      if (Eof() || Peek() != '>') return Err("expected '>' after '/'");
      Advance();
      return node;
    }
    Advance();  // '>'

    // Content. Whitespace-only runs between markup are ignorable (pretty-
    // printing indentation); dropping them makes Parse∘Serialize a fixpoint
    // and keeps diffs free of formatting noise (see parser.h).
    std::string text;
    auto flush_text = [&]() -> Status {
      bool all_space = true;
      for (char c : text) {
        if (!isspace(static_cast<unsigned char>(c))) {
          all_space = false;
          break;
        }
      }
      if (!text.empty() && !all_space) {
        XYMON_RETURN_IF_ERROR(CountNode());
        node->AddChild(Node::Text(std::move(text)));
      }
      text.clear();
      return Status::OK();
    };
    while (true) {
      if (Eof()) return Err("unexpected end of input inside <" + tag + ">");
      if (Peek() == '<') {
        if (input_.substr(pos_, 4) == "<!--") {
          XYMON_RETURN_IF_ERROR(flush_text());
          SkipComment();
        } else if (input_.substr(pos_, 9) == "<![CDATA[") {
          AdvanceN(9);
          while (!Eof() && input_.substr(pos_, 3) != "]]>") {
            text += Peek();
            Advance();
          }
          if (Eof()) return Err("unterminated CDATA section");
          AdvanceN(3);
        } else if (input_.substr(pos_, 2) == "<?") {
          XYMON_RETURN_IF_ERROR(flush_text());
          SkipPi();
        } else if (PeekAt(1) == '/') {
          XYMON_RETURN_IF_ERROR(flush_text());
          AdvanceN(2);
          std::string end = ParseName();
          if (end != tag) {
            return Err("mismatched end tag </" + end + "> for <" + tag + ">");
          }
          SkipWhitespace();
          if (Eof() || Peek() != '>') return Err("expected '>' in end tag");
          Advance();
          return node;
        } else {
          XYMON_RETURN_IF_ERROR(flush_text());
          auto child = ParseElement();
          if (!child.ok()) return child.status();
          node->AddChild(std::move(child).value());
        }
      } else if (Peek() == '&') {
        auto ent = ParseEntity();
        if (!ent.ok()) return ent.status();
        text += std::move(ent).value();
      } else {
        text += Peek();
        Advance();
      }
    }
  }

  std::string_view input_;
  ParseOptions options_;
  size_t pos_ = 0;
  size_t depth_ = 0;
  size_t nodes_ = 0;
  int line_ = 1;
  int col_ = 1;
};

}  // namespace

Result<Document> Parse(std::string_view input) {
  return ParserImpl(input, ParseOptions{}).Parse();
}

Result<Document> Parse(std::string_view input, const ParseOptions& options) {
  return ParserImpl(input, options).Parse();
}

Result<std::unique_ptr<Node>> ParseFragment(std::string_view input) {
  auto doc = Parse(input);
  if (!doc.ok()) return doc.status();
  return std::move(doc.value().root);
}

}  // namespace xymon::xml
