#ifndef XYMON_XMLDIFF_XID_H_
#define XYMON_XMLDIFF_XID_H_

#include <cstdint>
#include <vector>

#include "src/xml/dom.h"

namespace xymon::xmldiff {

/// Allocator of persistent element identifiers (XIDs, paper §5.2 / [17]).
/// Each warehoused document carries one allocator so that identifiers are
/// never reused across versions: a node keeps its XID for as long as it
/// "survives" diffs, which is what makes deltas addressable
/// (`<inserted parent="556" position="4">`).
class XidAllocator {
 public:
  explicit XidAllocator(uint64_t next = 1) : next_(next) {}

  uint64_t Fresh() { return next_++; }
  uint64_t next() const { return next_; }

  /// Assigns fresh XIDs to every node of `subtree` that has none (xid==0).
  void AssignAll(xml::Node* subtree);

 private:
  uint64_t next_;
};

/// Index from XID to node for one document version. Built before applying a
/// delta. One flat open-addressing table: no allocation per node.
class XidIndex {
 public:
  struct Entry {
    uint64_t xid = 0;  // 0 marks a free slot
    xml::Node* node = nullptr;
    /// Index of the node among its parent's children when the index was
    /// built (0 for the root).
    size_t position = 0;
  };

  explicit XidIndex(xml::Node* root);

  /// Returns nullptr if the XID is unknown.
  xml::Node* Find(uint64_t xid) const {
    const Entry* e = Lookup(xid);
    return e == nullptr ? nullptr : e->node;
  }
  /// Returns nullptr if the XID is unknown.
  const Entry* Lookup(uint64_t xid) const;

  size_t size() const { return size_; }

 private:
  void Insert(const Entry& entry);
  size_t SlotOf(uint64_t xid) const;

  std::vector<Entry> table_;
  size_t size_ = 0;
};

}  // namespace xymon::xmldiff

#endif  // XYMON_XMLDIFF_XID_H_
