#ifndef XYMON_XMLDIFF_DIFF_H_
#define XYMON_XMLDIFF_DIFF_H_

#include <memory>
#include <vector>

#include "src/common/result.h"
#include "src/xml/dom.h"
#include "src/xmldiff/delta.h"
#include "src/xmldiff/xid.h"

namespace xymon::xmldiff {

/// Diff output: the edit script plus the element-level change summary the
/// alerters consume.
struct DiffResult {
  Delta delta;
  /// Every element that is new, updated or deleted. `kNew` covers every
  /// element inside an inserted subtree (a catalog insertion of
  /// <Entry><Product/></Entry> makes Product "new" too, matching §5.1).
  std::vector<ElementChange> changes;
};

/// Computes the delta transforming `old_root` into `new_root`.
///
/// Side effect: XIDs are propagated — every node of `new_root` matched to an
/// old node receives that node's XID, unmatched (inserted) nodes get fresh
/// XIDs from `alloc`. `old_root` must already be fully XID-assigned
/// (XidAllocator::AssignAll).
///
/// Matching is top-down and XyDiff-style, one child list at a time, with a
/// bounded cost per list (DESIGN.md §16). Subtree hashes are computed once
/// per diff. A list of n_old x n_new children within a fixed cell budget
/// (65,536) gets an exact LCS over identical subtrees, then an LCS over
/// compatible kind (same tag, or text with text) in each remaining gap; the
/// compatible pairs are recursed into. A larger list is first cut into gaps
/// by the children whose content is unique in both lists (the longest
/// in-order subset of them, O(n log n)); a gap still over the budget is
/// paired by tag in O(n log n), so a same-tag edit stays an update at any
/// size. Identical children left over on both sides become moves through a
/// hash index, and the rest inserts and deletes. Time is O(n log n) in the
/// document size: an LCS table never exceeds 65,536 cells and fills at most
/// about 130 cells per child of its gap. Memory is O(n).
DiffResult Diff(const xml::Node& old_root, xml::Node* new_root,
                XidAllocator* alloc);

/// Reconstructs the new version: returns Apply(old, Diff(old,new)) == new
/// (modulo XIDs on inserted nodes, which are preserved here because the
/// delta's subtrees carry them). Linear in the document and delta size:
/// each parent's child list is compacted once for its deletes and moves and
/// rebuilt once for its inserts and move targets.
Result<std::unique_ptr<xml::Node>> Apply(const xml::Node& old_root,
                                         const Delta& delta);

}  // namespace xymon::xmldiff

#endif  // XYMON_XMLDIFF_DIFF_H_
