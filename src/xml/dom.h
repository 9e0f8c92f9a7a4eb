#ifndef XYMON_XML_DOM_H_
#define XYMON_XML_DOM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace xymon::xml {

enum class NodeType {
  kElement,
  kText,
  kComment,
  kProcessingInstruction,
};

/// One node of the DOM tree. Elements own their children; the tree is a
/// strict hierarchy (no sharing). `xid` is the persistent element identifier
/// used by the diff/versioning substrate (see src/xmldiff/xid.h); 0 means
/// "not yet assigned".
class Node {
 public:
  explicit Node(NodeType type) : type_(type) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  static std::unique_ptr<Node> Element(std::string tag) {
    auto n = std::make_unique<Node>(NodeType::kElement);
    n->name_ = std::move(tag);
    return n;
  }
  static std::unique_ptr<Node> Text(std::string data) {
    auto n = std::make_unique<Node>(NodeType::kText);
    n->text_ = std::move(data);
    return n;
  }
  static std::unique_ptr<Node> Comment(std::string data) {
    auto n = std::make_unique<Node>(NodeType::kComment);
    n->text_ = std::move(data);
    return n;
  }

  NodeType type() const { return type_; }
  bool is_element() const { return type_ == NodeType::kElement; }
  bool is_text() const { return type_ == NodeType::kText; }

  /// Tag name for elements, target for processing instructions.
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Character data for text/comment/PI nodes.
  const std::string& text() const { return text_; }
  void set_text(std::string text) { text_ = std::move(text); }

  Node* parent() const { return parent_; }

  uint64_t xid() const { return xid_; }
  void set_xid(uint64_t xid) { xid_ = xid; }

  // -- Attributes (elements only; document order preserved) ----------------

  const std::vector<std::pair<std::string, std::string>>& attributes() const {
    return attributes_;
  }
  void SetAttribute(std::string_view key, std::string_view value);
  /// Returns nullptr if absent.
  const std::string* GetAttribute(std::string_view key) const;
  /// Replaces the whole attribute list (used when applying deltas).
  void ReplaceAttributes(
      std::vector<std::pair<std::string, std::string>> attributes) {
    attributes_ = std::move(attributes);
  }

  // -- Children -------------------------------------------------------------

  const std::vector<std::unique_ptr<Node>>& children() const {
    return children_;
  }
  size_t child_count() const { return children_.size(); }
  Node* child(size_t i) const { return children_[i].get(); }

  /// Appends and returns the child (ownership transferred to this node).
  Node* AddChild(std::unique_ptr<Node> child);
  /// Inserts at `index` (clamped to [0, child_count()]).
  Node* InsertChild(size_t index, std::unique_ptr<Node> child);
  /// Removes and returns the child at `index`.
  std::unique_ptr<Node> RemoveChild(size_t index);
  /// Index of `child` among this node's children, or npos.
  size_t IndexOfChild(const Node* child) const;
  /// Removes and returns every child, in order. Together with AppendChildren
  /// this rebuilds a child list in one pass (applying a delta) instead of
  /// one vector erase/insert per edit.
  std::vector<std::unique_ptr<Node>> ReleaseChildren();
  /// Appends `children` in order (ownership transferred to this node).
  void AppendChildren(std::vector<std::unique_ptr<Node>> children);

  /// Convenience: appends <tag>text</tag> and returns the new element.
  Node* AddElement(std::string tag, std::string text = "");

  // -- Queries ----------------------------------------------------------------

  /// First child element with the given tag, or nullptr.
  Node* FindChild(std::string_view tag) const;
  /// All child elements with the given tag.
  std::vector<Node*> FindChildren(std::string_view tag) const;
  /// All descendant elements (including self) with the given tag.
  std::vector<Node*> FindDescendants(std::string_view tag) const;

  /// Concatenation of all descendant text (document order).
  std::string TextContent() const;

  /// Depth of this node below `root` (0 if this == root's depth reference).
  int Depth() const;

  /// Visits the subtree in postorder (children before node) — the traversal
  /// order the XML Alerter's word-stack algorithm depends on (paper §6.3).
  void VisitPostorder(const std::function<void(const Node&)>& fn) const;

  /// Deep structural copy (xids preserved).
  std::unique_ptr<Node> Clone() const;

  /// Zeroes the XIDs of the whole subtree. Used when content is copied into
  /// a new document (query results, report payloads): identifiers are scoped
  /// to one document and must not leak across.
  void ClearXids();

  /// Deep structural equality (name, text, attributes, children; xids are
  /// NOT compared — two documents can be equal with different identities).
  bool EqualsIgnoringXids(const Node& other) const;

  /// Order-sensitive content hash of the subtree, used for signatures and by
  /// the diff's bottom-up matching phase.
  uint64_t SubtreeHash() const;
  /// The node's own share of SubtreeHash (type, name, text, attributes):
  /// SubtreeHash folds each child's SubtreeHash into it with HashCombine.
  uint64_t LocalHash() const;

 private:
  NodeType type_;
  std::string name_;
  std::string text_;
  uint64_t xid_ = 0;
  Node* parent_ = nullptr;
  std::vector<std::pair<std::string, std::string>> attributes_;
  std::vector<std::unique_ptr<Node>> children_;
};

/// A parsed document: the root element plus prolog information (the DOCTYPE
/// name and system id feed the paper's `DTD =` / `DTDID =` conditions).
struct Document {
  std::unique_ptr<Node> root;
  std::string doctype_name;
  std::string dtd_url;

  Document() = default;
  Document(Document&&) = default;
  Document& operator=(Document&&) = default;

  Document Clone() const {
    Document d;
    d.root = root ? root->Clone() : nullptr;
    d.doctype_name = doctype_name;
    d.dtd_url = dtd_url;
    return d;
  }
};

}  // namespace xymon::xml

#endif  // XYMON_XML_DOM_H_
