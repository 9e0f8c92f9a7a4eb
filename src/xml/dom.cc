#include "src/xml/dom.h"

#include <utility>

#include "src/common/hash.h"

namespace xymon::xml {

void Node::SetAttribute(std::string_view key, std::string_view value) {
  for (auto& [k, v] : attributes_) {
    if (k == key) {
      v = std::string(value);
      return;
    }
  }
  attributes_.emplace_back(std::string(key), std::string(value));
}

const std::string* Node::GetAttribute(std::string_view key) const {
  for (const auto& [k, v] : attributes_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Node* Node::AddChild(std::unique_ptr<Node> child) {
  child->parent_ = this;
  children_.push_back(std::move(child));
  return children_.back().get();
}

Node* Node::InsertChild(size_t index, std::unique_ptr<Node> child) {
  if (index > children_.size()) index = children_.size();
  child->parent_ = this;
  auto it = children_.insert(children_.begin() + index, std::move(child));
  return it->get();
}

std::unique_ptr<Node> Node::RemoveChild(size_t index) {
  std::unique_ptr<Node> out = std::move(children_[index]);
  children_.erase(children_.begin() + index);
  out->parent_ = nullptr;
  return out;
}

std::vector<std::unique_ptr<Node>> Node::ReleaseChildren() {
  std::vector<std::unique_ptr<Node>> out = std::exchange(children_, {});
  for (auto& c : out) c->parent_ = nullptr;
  return out;
}

void Node::AppendChildren(std::vector<std::unique_ptr<Node>> children) {
  children_.reserve(children_.size() + children.size());
  for (auto& c : children) {
    c->parent_ = this;
    children_.push_back(std::move(c));
  }
}

size_t Node::IndexOfChild(const Node* child) const {
  for (size_t i = 0; i < children_.size(); ++i) {
    if (children_[i].get() == child) return i;
  }
  return static_cast<size_t>(-1);
}

Node* Node::AddElement(std::string tag, std::string text) {
  Node* el = AddChild(Element(std::move(tag)));
  if (!text.empty()) el->AddChild(Text(std::move(text)));
  return el;
}

Node* Node::FindChild(std::string_view tag) const {
  for (const auto& c : children_) {
    if (c->is_element() && c->name() == tag) return c.get();
  }
  return nullptr;
}

std::vector<Node*> Node::FindChildren(std::string_view tag) const {
  std::vector<Node*> out;
  for (const auto& c : children_) {
    if (c->is_element() && c->name() == tag) out.push_back(c.get());
  }
  return out;
}

std::vector<Node*> Node::FindDescendants(std::string_view tag) const {
  std::vector<Node*> out;
  if (is_element() && name_ == tag) out.push_back(const_cast<Node*>(this));
  for (const auto& c : children_) {
    auto sub = c->FindDescendants(tag);
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

std::string Node::TextContent() const {
  std::string out;
  if (is_text()) return text_;
  for (const auto& c : children_) {
    if (c->is_text()) {
      out += c->text();
    } else if (c->is_element()) {
      out += c->TextContent();
    }
  }
  return out;
}

int Node::Depth() const {
  int d = 0;
  for (const Node* p = parent_; p != nullptr; p = p->parent_) ++d;
  return d;
}

void Node::VisitPostorder(const std::function<void(const Node&)>& fn) const {
  for (const auto& c : children_) c->VisitPostorder(fn);
  fn(*this);
}

std::unique_ptr<Node> Node::Clone() const {
  auto n = std::make_unique<Node>(type_);
  n->name_ = name_;
  n->text_ = text_;
  n->xid_ = xid_;
  n->attributes_ = attributes_;
  for (const auto& c : children_) n->AddChild(c->Clone());
  return n;
}

void Node::ClearXids() {
  xid_ = 0;
  for (const auto& c : children_) c->ClearXids();
}

bool Node::EqualsIgnoringXids(const Node& other) const {
  if (type_ != other.type_ || name_ != other.name_ || text_ != other.text_ ||
      attributes_ != other.attributes_ ||
      children_.size() != other.children_.size()) {
    return false;
  }
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->EqualsIgnoringXids(*other.children_[i])) return false;
  }
  return true;
}

uint64_t Node::LocalHash() const {
  uint64_t h = Fnv1a(name_);
  h = HashCombine(h, static_cast<uint64_t>(type_));
  h = HashCombine(h, Fnv1a(text_));
  for (const auto& [k, v] : attributes_) {
    h = HashCombine(h, Fnv1a(k));
    h = HashCombine(h, Fnv1a(v));
  }
  return h;
}

uint64_t Node::SubtreeHash() const {
  uint64_t h = LocalHash();
  for (const auto& c : children_) {
    h = HashCombine(h, c->SubtreeHash());
  }
  return h;
}

}  // namespace xymon::xml
