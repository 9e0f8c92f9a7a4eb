#include "src/xmldiff/xid.h"

namespace xymon::xmldiff {

void XidAllocator::AssignAll(xml::Node* subtree) {
  if (subtree->xid() == 0) subtree->set_xid(Fresh());
  for (const auto& child : subtree->children()) {
    AssignAll(child.get());
  }
}

XidIndex::XidIndex(xml::Node* root) : table_(16) {
  // Iterative DFS; documents can be deep in failure-injection tests.
  std::vector<std::pair<xml::Node*, size_t>> stack{{root, 0}};
  while (!stack.empty()) {
    auto [n, position] = stack.back();
    stack.pop_back();
    if (n->xid() != 0) Insert(Entry{n->xid(), n, position});
    for (size_t i = 0; i < n->child_count(); ++i) {
      stack.emplace_back(n->child(i), i);
    }
  }
}

size_t XidIndex::SlotOf(uint64_t xid) const {
  const size_t mask = table_.size() - 1;
  size_t at = static_cast<size_t>((xid * 0x9e3779b97f4a7c15ull) >> 32) & mask;
  while (table_[at].xid != 0 && table_[at].xid != xid) at = (at + 1) & mask;
  return at;
}

void XidIndex::Insert(const Entry& entry) {
  if (2 * (size_ + 1) > table_.size()) {
    std::vector<Entry> old(2 * table_.size());
    old.swap(table_);
    for (const Entry& e : old) {
      if (e.xid != 0) table_[SlotOf(e.xid)] = e;
    }
  }
  Entry& slot = table_[SlotOf(entry.xid)];
  if (slot.xid == 0) ++size_;
  slot = entry;  // a repeated XID keeps the last node visited
}

const XidIndex::Entry* XidIndex::Lookup(uint64_t xid) const {
  if (xid == 0) return nullptr;
  const Entry& e = table_[SlotOf(xid)];
  return e.xid == 0 ? nullptr : &e;
}

}  // namespace xymon::xmldiff
