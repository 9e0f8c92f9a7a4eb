#include "src/xmldiff/diff.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/hash.h"

namespace xymon::xmldiff {
namespace {

using xml::Node;
using xml::NodeType;

/// Largest (go+1)*(gn+1) table an exact LCS may fill for one gap of go old
/// and gn new children. A child list above it is first cut at the children
/// unique in both lists, and a gap still above it is paired by tag in
/// O(n log n), so no child list costs quadratic time. Within the budget the
/// shorter side has at most 255 children, so an LCS length fits a uint16_t.
constexpr size_t kMaxLcsCells = 65536;

constexpr uint32_t kNoIndex = UINT32_MAX;

/// One node of a tree in preorder: its SubtreeHash and its subtree's node
/// count (the first child sits at index+1, each next sibling `size` later).
struct Summary {
  uint64_t hash;
  uint32_t size;
};

/// Fills `tree` in preorder; equal to calling SubtreeHash on every node, in
/// one pass instead of once per ancestor.
void Summarize(const Node& node, std::vector<Summary>* tree) {
  const size_t at = tree->size();
  tree->push_back({});
  uint64_t h = node.LocalHash();
  for (const auto& c : node.children()) {
    const size_t child_at = tree->size();
    Summarize(*c, tree);
    h = HashCombine(h, (*tree)[child_at].hash);
  }
  (*tree)[at] = Summary{h, static_cast<uint32_t>(tree->size() - at)};
}

/// How a child found its partner in the other child list.
enum class Link : uint8_t {
  kNone,    // unmatched: deleted (old side) or inserted (new side)
  kSame,    // identical subtree kept in order: XIDs carried over
  kPaired,  // same tag (or text with text) kept in order: diffed recursively
  kMoved,   // identical subtree out of order: a kMove op
};

/// One child of a matched element pair. A level's children sit on a stack
/// (Scratch::olds / news) while its matched children are recursed into.
struct Child {
  uint64_t hash;     // SubtreeHash
  uint32_t pre;      // preorder index into the tree's summaries
  uint32_t partner;  // index of the matched child in the other list
  NodeType type;
  Link link;
};

/// Open-addressing multimap from a 64-bit key to the old children that
/// carry it, each key's children kept in list order (a FIFO): the signature
/// index used to anchor unique children, pair a gap by tag and find moves.
/// Its two flat buffers are reused from list to list.
class OldChildIndex {
 public:
  struct Slot {
    uint64_t key = 0;
    uint32_t head = kNoIndex;  // next old child to hand out
    uint32_t tail = kNoIndex;
    uint32_t old_count = 0;    // 0 marks a free slot
    uint32_t new_count = 0;    // bumped by the caller
  };

  /// Empties the index for old children numbered below `n_old`.
  void Reset(size_t n_old) {
    size_t capacity = 8;
    while (capacity < 2 * n_old) capacity <<= 1;
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    next_.resize(n_old);
  }

  void Add(uint64_t key, uint32_t i) {
    Slot& s = Probe(key);
    if (s.old_count++ == 0) {
      s.key = key;
      s.head = i;
    } else {
      next_[s.tail] = i;
    }
    s.tail = i;
    next_[i] = kNoIndex;
  }

  /// The slot of `key`, or nullptr.
  Slot* Find(uint64_t key) {
    Slot& s = Probe(key);
    return s.old_count == 0 ? nullptr : &s;
  }

  /// Removes and returns the first old child left under `s`, or kNoIndex.
  uint32_t PopFront(Slot* s) {
    const uint32_t i = s->head;
    if (i != kNoIndex) s->head = next_[i];
    return i;
  }

 private:
  Slot& Probe(uint64_t key) {
    size_t at = ((key * 0x9e3779b97f4a7c15ull) >> 32) & mask_;
    while (slots_[at].old_count != 0 && slots_[at].key != key) {
      at = (at + 1) & mask_;
    }
    return slots_[at];
  }

  std::vector<Slot> slots_;
  std::vector<uint32_t> next_;
  size_t mask_ = 0;
};

/// Same kind for gap pairing: same tag for elements, text with text.
bool Compatible(const Node& a, const Node& b) {
  if (a.type() != b.type()) return false;
  if (a.is_element()) return a.name() == b.name();
  return a.is_text();
}

/// The Differ's buffers. One set per thread, reused by every child list of
/// every Diff call, so a diff allocates only when a document is larger than
/// any the thread has diffed before.
struct Scratch {
  std::vector<Summary> old_tree, new_tree;
  std::vector<Child> olds, news;  // stack of child lists
  OldChildIndex index;
  std::vector<std::pair<uint32_t, uint32_t>> cand;  // (old, new) pairs
  std::vector<uint32_t> tails, prev;                // longest increasing
  std::vector<uint16_t> dp;                         // at most kMaxLcsCells
};

class Differ {
 public:
  Differ(Scratch* s, XidAllocator* alloc, DiffResult* out)
      : s_(*s), alloc_(alloc), out_(out) {}

  void Run(const Node& old_root, Node* new_root) {
    s_.old_tree.clear();
    s_.new_tree.clear();
    s_.olds.clear();
    s_.news.clear();
    Summarize(old_root, &s_.old_tree);
    Summarize(*new_root, &s_.new_tree);
    MatchElements(old_root, 0, new_root, 0);
  }

 private:
  /// Matched pair of elements with the same tag: propagate the XID and diff
  /// attributes + children. Returns true if anything in the subtree changed;
  /// such an element is "updated" for the subscription language — the paper's
  /// `updated Product contains "camera"` fires when a camera product's price
  /// text (a grandchild) changes.
  bool MatchElements(const Node& o, uint32_t o_pre, Node* n, uint32_t n_pre) {
    n->set_xid(o.xid());
    bool updated = false;
    if (o.attributes() != n->attributes()) {
      DeltaOp op;
      op.type = DeltaOpType::kUpdateAttrs;
      op.xid = o.xid();
      op.new_attributes = n->attributes();
      out_->delta.ops.push_back(std::move(op));
      updated = true;
    }
    if (DiffChildren(o, o_pre, n, n_pre)) updated = true;
    if (updated) {
      out_->changes.push_back(ElementChange{ChangeOp::kUpdated, n});
    }
    return updated;
  }

  /// Parallel walk over structurally identical subtrees to carry XIDs over.
  static void CopyXids(const Node& o, Node* n) {
    n->set_xid(o.xid());
    for (size_t i = 0; i < o.child_count(); ++i) {
      CopyXids(*o.child(i), n->child(i));
    }
  }

  void RecordDeleted(const Node& subtree) {
    subtree.VisitPostorder([this](const Node& d) {
      if (d.is_element()) {
        out_->changes.push_back(ElementChange{ChangeOp::kDeleted, &d});
      }
    });
  }

  void RecordInserted(Node* subtree) {
    alloc_->AssignAll(subtree);
    subtree->VisitPostorder([this](const Node& d) {
      if (d.is_element()) {
        out_->changes.push_back(ElementChange{ChangeOp::kNew, &d});
      }
    });
  }

  static void PushChildren(const Node& parent, uint32_t pre,
                           const std::vector<Summary>& tree,
                           std::vector<Child>* stack) {
    uint32_t at = pre + 1;
    for (const auto& c : parent.children()) {
      stack->push_back(Child{tree[at].hash, at, kNoIndex, c->type(),
                             Link::kNone});
      at += tree[at].size;
    }
  }

  /// Diffs the child lists of a matched element pair. Returns true if the
  /// element's direct content changed (a child inserted/deleted/moved or a
  /// direct text child updated) — that is what makes the element itself
  /// "updated" for the subscription language.
  bool DiffChildren(const Node& o, uint32_t o_pre, Node* n, uint32_t n_pre) {
    const size_t ob = s_.olds.size(), nb = s_.news.size();
    const size_t n_old = o.child_count(), n_new = n->child_count();
    PushChildren(o, o_pre, s_.old_tree, &s_.olds);
    PushChildren(*n, n_pre, s_.new_tree, &s_.news);
    MatchChildren(o, *n, ob, nb);

    // Matched pairs in list order. Copy each entry: recursing pushes the
    // grandchildren onto the same stack and may reallocate it.
    bool direct_change = false;
    for (size_t j = 0; j < n_new; ++j) {
      const Child c = s_.news[nb + j];
      if (c.link == Link::kSame) {
        CopyXids(*o.child(c.partner), n->child(j));
      } else if (c.link == Link::kPaired) {
        const Node* oc = o.child(c.partner);
        Node* nc = n->child(j);
        if (oc->is_element()) {
          if (MatchElements(*oc, s_.olds[ob + c.partner].pre, nc, c.pre)) {
            direct_change = true;
          }
        } else {
          // Text whose data changed.
          nc->set_xid(oc->xid());
          DeltaOp op;
          op.type = DeltaOpType::kUpdateText;
          op.xid = oc->xid();
          op.new_text = nc->text();
          out_->delta.ops.push_back(std::move(op));
          direct_change = true;
        }
      }
    }

    // Move (XyDiff [17]): an identical subtree reordered among its siblings
    // keeps its identity and fires neither "new" nor "deleted".
    for (size_t j = 0; j < n_new; ++j) {
      const Child& c = s_.news[nb + j];
      if (c.link != Link::kMoved) continue;
      CopyXids(*o.child(c.partner), n->child(j));
      DeltaOp op;
      op.type = DeltaOpType::kMove;
      op.xid = o.child(c.partner)->xid();
      op.parent_xid = n->xid();
      op.position = j;
      out_->delta.ops.push_back(std::move(op));
      direct_change = true;
    }

    // Leftovers: deletions and insertions.
    for (size_t i = 0; i < n_old; ++i) {
      if (s_.olds[ob + i].link != Link::kNone) continue;
      DeltaOp op;
      op.type = DeltaOpType::kDelete;
      op.xid = o.child(i)->xid();
      out_->delta.ops.push_back(std::move(op));
      RecordDeleted(*o.child(i));
      direct_change = true;
    }
    for (size_t j = 0; j < n_new; ++j) {
      if (s_.news[nb + j].link != Link::kNone) continue;
      RecordInserted(n->child(j));
      DeltaOp op;
      op.type = DeltaOpType::kInsert;
      op.xid = n->child(j)->xid();
      op.parent_xid = n->xid();
      op.position = j;
      op.subtree = n->child(j)->Clone();
      out_->delta.ops.push_back(std::move(op));
      direct_change = true;
    }
    s_.olds.resize(ob);
    s_.news.resize(nb);
    return direct_change;
  }

  /// Sets the `link` of old child i and new child j (indices in the level
  /// whose stack frames start at ob / nb).
  void Connect(size_t ob, size_t nb, size_t i, size_t j, Link link) {
    s_.olds[ob + i].partner = static_cast<uint32_t>(j);
    s_.olds[ob + i].link = link;
    s_.news[nb + j].partner = static_cast<uint32_t>(i);
    s_.news[nb + j].link = link;
  }

  bool SameContent(size_t ob, size_t nb, size_t i, size_t j) const {
    const Child& a = s_.olds[ob + i];
    const Child& b = s_.news[nb + j];
    return a.hash == b.hash && a.type == b.type;
  }

  /// Links a compatible pair: identical content is kSame, else kPaired.
  void Pair(size_t ob, size_t nb, size_t i, size_t j) {
    Connect(ob, nb, i, j,
            SameContent(ob, nb, i, j) ? Link::kSame : Link::kPaired);
  }

  /// Matches the children of one element pair; every step is bounded:
  ///  1. a list whose table exceeds kMaxLcsCells is first cut into gaps by
  ///     anchoring the children whose content is unique in both lists,
  ///     keeping the longest in-order subset of them (O(n log n));
  ///  2. a gap within the budget (a small list is one gap) gets an exact
  ///     LCS over identical content, then an LCS over compatible kind in
  ///     each remaining sub-gap; a gap over the budget is paired by tag;
  ///  3. children still unlinked on both sides with identical content are
  ///     moves, found through a hash index from content to old children.
  /// A list within the budget is matched exactly as a full two-pass LCS
  /// would match it.
  void MatchChildren(const Node& o, const Node& n, size_t ob, size_t nb) {
    const size_t n_old = o.child_count(), n_new = n.child_count();
    if (!WithinBudget(n_old, n_new)) AnchorUnique(ob, nb, n_old, n_new);

    ForEachGap(ob, 0, n_old, 0, n_new,
               [&](size_t i0, size_t i1, size_t j0, size_t j1) {
      const size_t go = i1 - i0, gn = j1 - j0;
      if (go == 0 || gn == 0) return;
      if (!WithinBudget(go, gn)) {
        PairByTag(o, n, ob, nb, i0, i1, j0, j1);
        return;
      }
      Lcs(go, gn,
          [&](size_t a, size_t b) {
            return SameContent(ob, nb, i0 + a, j0 + b);
          },
          [&](size_t a, size_t b) {
            Connect(ob, nb, i0 + a, j0 + b, Link::kSame);
          });
      ForEachGap(ob, i0, i1, j0, j1,
                 [&](size_t a0, size_t a1, size_t b0, size_t b1) {
        if (a0 == a1 || b0 == b1) return;
        Lcs(a1 - a0, b1 - b0,
            [&](size_t a, size_t b) {
              return Compatible(*o.child(a0 + a), *n.child(b0 + b));
            },
            [&](size_t a, size_t b) { Pair(ob, nb, a0 + a, b0 + b); });
      });
    });

    FindMoves(ob, nb, n_old, n_new);
  }

  static bool WithinBudget(size_t go, size_t gn) {
    return (go + 1) * (gn + 1) <= kMaxLcsCells;
  }

  /// Links, as kSame, the children whose content occurs exactly once in
  /// each list, keeping the longest in-order subset of them.
  void AnchorUnique(size_t ob, size_t nb, size_t n_old, size_t n_new) {
    OldChildIndex& index = s_.index;
    index.Reset(n_old);
    for (size_t i = 0; i < n_old; ++i) {
      index.Add(s_.olds[ob + i].hash, static_cast<uint32_t>(i));
    }
    for (size_t j = 0; j < n_new; ++j) {
      if (auto* slot = index.Find(s_.news[nb + j].hash)) ++slot->new_count;
    }
    s_.cand.clear();
    for (size_t j = 0; j < n_new; ++j) {
      auto* slot = index.Find(s_.news[nb + j].hash);
      if (slot != nullptr && slot->old_count == 1 && slot->new_count == 1 &&
          SameContent(ob, nb, slot->head, j)) {
        s_.cand.emplace_back(slot->head, static_cast<uint32_t>(j));
      }
    }
    KeepLongestIncreasing();
    for (const auto& [i, j] : s_.cand) Connect(ob, nb, i, j, Link::kSame);
  }

  /// Calls fn(i0, i1, j0, j1) for each run of unlinked children between two
  /// consecutive linked pairs in [i_begin, i_end) x [j_begin, j_end). The
  /// links present must be in order (no moves yet). fn may link children
  /// inside the run it is given.
  template <typename Fn>
  void ForEachGap(size_t ob, size_t i_begin, size_t i_end, size_t j_begin,
                  size_t j_end, const Fn& fn) {
    size_t i = i_begin, j = j_begin;
    while (true) {
      size_t i_next = i;
      while (i_next < i_end && s_.olds[ob + i_next].link == Link::kNone) {
        ++i_next;
      }
      const size_t j_next =
          i_next < i_end ? s_.olds[ob + i_next].partner : j_end;
      fn(i, i_next, j, j_next);
      if (i_next == i_end) return;
      i = i_next + 1;
      j = j_next + 1;
    }
  }

  /// Standard LCS over an n_old x n_new table in the flat `dp` buffer
  /// (callers keep it within kMaxLcsCells); emit(a, b) receives the pairs in
  /// order.
  template <typename Eq, typename Emit>
  void Lcs(size_t n_old, size_t n_new, const Eq& eq, const Emit& emit) {
    const size_t w = n_new + 1;
    std::vector<uint16_t>& dp = s_.dp;
    dp.assign((n_old + 1) * w, 0);
    for (size_t i = n_old; i-- > 0;) {
      for (size_t j = n_new; j-- > 0;) {
        dp[i * w + j] =
            eq(i, j) ? static_cast<uint16_t>(dp[(i + 1) * w + j + 1] + 1)
                     : std::max(dp[(i + 1) * w + j], dp[i * w + j + 1]);
      }
    }
    size_t i = 0, j = 0;
    while (i < n_old && j < n_new) {
      if (eq(i, j)) {
        emit(i, j);
        ++i;
        ++j;
      } else if (dp[(i + 1) * w + j] >= dp[i * w + j + 1]) {
        ++i;
      } else {
        ++j;
      }
    }
  }

  /// Over-budget gap: pair the k-th old child of each tag with the k-th new
  /// child of that tag, then keep the longest in-order subset of those
  /// pairs. Comments and processing instructions pair only with identical
  /// ones. O(n log n), and a same-tag edit stays an update at any size.
  void PairByTag(const Node& o, const Node& n, size_t ob, size_t nb,
                 size_t i0, size_t i1, size_t j0, size_t j1) {
    // The index is sized by the gap, not the list, and numbers the gap's old
    // children from 0: a list cut into many over-budget gaps stays linear.
    OldChildIndex& index = s_.index;
    index.Reset(i1 - i0);
    for (size_t i = i0; i < i1; ++i) {
      index.Add(TagKey(*o.child(i), s_.olds[ob + i].hash),
                static_cast<uint32_t>(i - i0));
    }
    s_.cand.clear();
    for (size_t j = j0; j < j1; ++j) {
      auto* slot = index.Find(TagKey(*n.child(j), s_.news[nb + j].hash));
      const uint32_t a = slot == nullptr ? kNoIndex : index.PopFront(slot);
      if (a != kNoIndex) {
        s_.cand.emplace_back(static_cast<uint32_t>(i0 + a),
                             static_cast<uint32_t>(j));
      }
    }
    KeepLongestIncreasing();
    for (const auto& [i, j] : s_.cand) {
      // A key collision can group different kinds; skip those.
      if (Compatible(*o.child(i), *n.child(j)) ||
          SameContent(ob, nb, i, j)) {
        Pair(ob, nb, i, j);
      }
    }
  }

  /// Tag pairing key: the tag for elements, one key for all text, the
  /// content for comments and processing instructions.
  static uint64_t TagKey(const Node& c, uint64_t content_hash) {
    if (c.is_element()) return HashCombine(Fnv1a(c.name()), 1);
    if (c.is_text()) return HashCombine(0, 2);
    return content_hash;
  }

  /// Reduces `cand` (in increasing new index, distinct old indices) to a
  /// longest subsequence increasing in old index too, in order. Patience
  /// sorting, O(n log n).
  void KeepLongestIncreasing() {
    auto& cand = s_.cand;
    auto& tails = s_.tails;
    auto& prev = s_.prev;
    tails.clear();
    prev.resize(cand.size());
    for (uint32_t k = 0; k < cand.size(); ++k) {
      auto it = std::lower_bound(
          tails.begin(), tails.end(), cand[k].first,
          [&](uint32_t t, uint32_t i) { return cand[t].first < i; });
      prev[k] = it == tails.begin() ? kNoIndex : *(it - 1);
      if (it == tails.end()) {
        tails.push_back(k);
      } else {
        *it = k;
      }
    }
    // Walk the chain back from the last tail, then compact it in order
    // (chain indices only grow, so the in-place copy is safe).
    const size_t len = tails.size();
    uint32_t k = len > 0 ? tails.back() : kNoIndex;
    for (size_t at = len; at-- > 0;) {
      tails[at] = k;
      k = prev[k];
    }
    for (size_t at = 0; at < len; ++at) cand[at] = cand[tails[at]];
    cand.resize(len);
  }

  /// Links every still-unlinked new child, in list order, to the first
  /// unlinked old child with identical content (one hash lookup each).
  void FindMoves(size_t ob, size_t nb, size_t n_old, size_t n_new) {
    bool any_old = false, any_new = false;
    for (size_t i = 0; i < n_old && !any_old; ++i) {
      any_old = s_.olds[ob + i].link == Link::kNone;
    }
    for (size_t j = 0; j < n_new && !any_new; ++j) {
      any_new = s_.news[nb + j].link == Link::kNone;
    }
    if (!any_old || !any_new) return;
    OldChildIndex& index = s_.index;
    index.Reset(n_old);
    for (size_t i = 0; i < n_old; ++i) {
      const Child& c = s_.olds[ob + i];
      if (c.link == Link::kNone) index.Add(c.hash, static_cast<uint32_t>(i));
    }
    for (size_t j = 0; j < n_new; ++j) {
      const Child& c = s_.news[nb + j];
      if (c.link != Link::kNone) continue;
      auto* slot = index.Find(c.hash);
      const uint32_t i = slot == nullptr ? kNoIndex : index.PopFront(slot);
      if (i != kNoIndex && SameContent(ob, nb, i, j)) {
        Connect(ob, nb, i, j, Link::kMoved);
      }
    }
  }

  Scratch& s_;
  XidAllocator* alloc_;
  DiffResult* out_;
};

}  // namespace

DiffResult Diff(const xml::Node& old_root, xml::Node* new_root,
                XidAllocator* alloc) {
  DiffResult out;
  if (old_root.is_element() && new_root->is_element() &&
      old_root.name() == new_root->name()) {
    thread_local Scratch scratch;
    Differ(&scratch, alloc, &out).Run(old_root, new_root);
  } else {
    // Root replaced outright: the whole old tree is deleted, the new one
    // inserted. parent_xid 0 denotes "document".
    alloc->AssignAll(new_root);
    DeltaOp del;
    del.type = DeltaOpType::kDelete;
    del.xid = old_root.xid();
    out.delta.ops.push_back(std::move(del));
    DeltaOp ins;
    ins.type = DeltaOpType::kInsert;
    ins.xid = new_root->xid();
    ins.parent_xid = 0;
    ins.position = 0;
    ins.subtree = new_root->Clone();
    out.delta.ops.push_back(std::move(ins));
    old_root.VisitPostorder([&out](const xml::Node& d) {
      if (d.is_element()) {
        out.changes.push_back(ElementChange{ChangeOp::kDeleted, &d});
      }
    });
    new_root->VisitPostorder([&out](const xml::Node& d) {
      if (d.is_element()) {
        out.changes.push_back(ElementChange{ChangeOp::kNew, &d});
      }
    });
  }
  return out;
}

Result<std::unique_ptr<xml::Node>> Apply(const xml::Node& old_root,
                                         const Delta& delta) {
  // Root replacement is a special two-op delta.
  for (const DeltaOp& op : delta.ops) {
    if (op.type == DeltaOpType::kInsert && op.parent_xid == 0) {
      return op.subtree->Clone();
    }
  }

  std::unique_ptr<Node> result = old_root.Clone();
  XidIndex index(result.get());

  // Children leaving their parent: deleted ones are dropped, moved ones
  // re-enter at their final positions below.
  struct Leaving {
    Node* parent;
    size_t position;  // among the parent's children before the delta
    uint64_t xid;
    bool move;
  };
  std::vector<Leaving> leaving;
  for (const DeltaOp& op : delta.ops) {
    const bool move = op.type == DeltaOpType::kMove;
    if (!move && op.type != DeltaOpType::kDelete) continue;
    const XidIndex::Entry* target = index.Lookup(op.xid);
    if (target == nullptr || (move && target->node->parent() == nullptr)) {
      return Status::Corruption(std::string("delta ") +
                                (move ? "moves" : "deletes") +
                                " unknown XID " + std::to_string(op.xid));
    }
    if (target->node->parent() == nullptr) {
      return Status::Corruption("delta deletes the root element");
    }
    leaving.push_back(
        Leaving{target->node->parent(), target->position, op.xid, move});
  }

  for (const DeltaOp& op : delta.ops) {
    if (op.type != DeltaOpType::kUpdateText &&
        op.type != DeltaOpType::kUpdateAttrs) {
      continue;
    }
    Node* target = index.Find(op.xid);
    if (target == nullptr) {
      return Status::Corruption("delta updates unknown XID " +
                                std::to_string(op.xid));
    }
    if (op.type == DeltaOpType::kUpdateText) {
      target->set_text(op.new_text);
    } else {
      target->ReplaceAttributes(op.new_attributes);
    }
  }

  // Compact each losing parent's child list once. Deleted subtrees stay
  // alive until the end: a delta may still name nodes inside them.
  std::sort(leaving.begin(), leaving.end(),
            [](const Leaving& a, const Leaving& b) {
              if (a.parent != b.parent) return a.parent < b.parent;
              return a.position < b.position;
            });
  for (size_t g = 1; g < leaving.size(); ++g) {
    if (leaving[g].parent == leaving[g - 1].parent &&
        leaving[g].position == leaving[g - 1].position) {
      return Status::Corruption("delta detaches XID " +
                                std::to_string(leaving[g].xid) + " twice");
    }
  }
  std::vector<std::pair<uint64_t, std::unique_ptr<Node>>> detached;
  std::vector<std::unique_ptr<Node>> dropped;
  for (size_t g = 0; g < leaving.size();) {
    Node* parent = leaving[g].parent;
    std::vector<std::unique_ptr<Node>> kept = parent->ReleaseChildren();
    size_t w = 0;
    for (size_t i = 0; i < kept.size(); ++i) {
      if (g == leaving.size() || leaving[g].parent != parent ||
          leaving[g].position != i) {
        kept[w++] = std::move(kept[i]);
      } else if (leaving[g++].move) {
        detached.emplace_back(kept[i]->xid(), std::move(kept[i]));
      } else {
        dropped.push_back(std::move(kept[i]));
      }
    }
    kept.resize(w);
    parent->AppendChildren(std::move(kept));
  }
  std::sort(detached.begin(), detached.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // Placements last: inserts and move re-insertions, grouped by parent in
  // ascending final position (stable: same-position ops keep recording
  // order), merged into each parent's kept children in one pass.
  struct Placement {
    Node* parent;
    const DeltaOp* op;
  };
  std::vector<Placement> placements;
  for (const DeltaOp& op : delta.ops) {
    if (op.type != DeltaOpType::kInsert && op.type != DeltaOpType::kMove) {
      continue;
    }
    Node* parent = index.Find(op.parent_xid);
    if (parent == nullptr) {
      return Status::Corruption("delta places under unknown XID " +
                                std::to_string(op.parent_xid));
    }
    placements.push_back(Placement{parent, &op});
  }
  std::stable_sort(placements.begin(), placements.end(),
                   [](const Placement& a, const Placement& b) {
                     if (a.parent != b.parent) return a.parent < b.parent;
                     return a.op->position < b.op->position;
                   });
  for (size_t g = 0; g < placements.size();) {
    Node* parent = placements[g].parent;
    std::vector<std::unique_ptr<Node>> kept = parent->ReleaseChildren();
    std::vector<std::unique_ptr<Node>> merged;
    merged.reserve(kept.size());
    size_t k = 0;
    for (; g < placements.size() && placements[g].parent == parent; ++g) {
      const DeltaOp& op = *placements[g].op;
      std::unique_ptr<Node> node;
      if (op.type == DeltaOpType::kInsert) {
        node = op.subtree->Clone();
      } else {
        auto it = std::lower_bound(
            detached.begin(), detached.end(), op.xid,
            [](const auto& d, uint64_t xid) { return d.first < xid; });
        if (it == detached.end() || it->first != op.xid ||
            it->second == nullptr) {
          return Status::Corruption("move target vanished for XID " +
                                    std::to_string(op.xid));
        }
        node = std::move(it->second);
      }
      // Same effect as InsertChild(position) on the list built so far.
      while (merged.size() < op.position && k < kept.size()) {
        merged.push_back(std::move(kept[k++]));
      }
      if (op.position < merged.size()) {
        merged.insert(merged.begin() + static_cast<ptrdiff_t>(op.position),
                      std::move(node));
      } else {
        merged.push_back(std::move(node));
      }
    }
    for (; k < kept.size(); ++k) merged.push_back(std::move(kept[k]));
    parent->AppendChildren(std::move(merged));
  }
  return result;
}

}  // namespace xymon::xmldiff
