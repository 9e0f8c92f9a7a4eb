#ifndef XYMON_MANAGER_DELIVERY_TABLE_H_
#define XYMON_MANAGER_DELIVERY_TABLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/shared_string.h"
#include "src/manager/replica.h"
#include "src/mqp/event.h"

namespace xymon::manager {

/// What stage 4a reads to turn a fired complex event into notifications
/// (DESIGN.md §15): for each live id, its delivery target, resolved once
/// when the complex event registers, so resolving a match is one indexed
/// load — no name lookup, no string built. The Subscription Manager keeps
/// one; a shard worker process keeps its own, filled by the replica
/// operations it receives.
///
/// Ids index the table directly. The manager assigns them densely and never
/// reuses one, so the matches of a document, which arrive in ascending id,
/// walk the table in address order; a retired id keeps an empty entry.
/// Read-only during batches: the caller quiesces Add/Remove around them.
class DeliveryTable {
 public:
  struct Target {
    /// The monitoring query's slot (QueryBinding::slot). Every complex
    /// event of one query — one per disjunct of its where clause — has the
    /// same slot, so the per-document dedup keys on it.
    uint32_t slot = 0;
    sublang::SelectClause::Kind select = sublang::SelectClause::Kind::kDefault;
    /// Interned per slot: every action of the query shares these buffers.
    SharedString subscription;
    SharedString query_name;
    /// "subscription.query", the trigger-engine key of continuous queries
    /// waiting on this one (§5.2's `when Subscription.Query`).
    SharedString trigger_key;
    /// The full binding, read by template and variable selects. nullptr
    /// marks an id that is not live.
    std::unique_ptr<const QueryBinding> binding;
  };

  /// Registers (or replaces) complex event `id`.
  void Add(mqp::ComplexEventId id, QueryBinding binding);
  /// Retires `id`; a no-op if it is not live.
  void Remove(mqp::ComplexEventId id);

  const Target* Find(mqp::ComplexEventId id) const {
    if (id >= targets_.size() || targets_[id].binding == nullptr) {
      return nullptr;
    }
    return &targets_[id];
  }
  const QueryBinding* FindBinding(mqp::ComplexEventId id) const {
    const Target* target = Find(id);
    return target == nullptr ? nullptr : target->binding.get();
  }

  /// One past the largest slot ever registered: the size of an array
  /// indexed by Target::slot.
  size_t slot_limit() const { return slots_.size(); }
  /// Live complex events.
  size_t size() const { return live_; }

 private:
  /// The names one slot's targets share, and how many live ids hold them.
  struct SlotNames {
    uint32_t refs = 0;
    SharedString subscription;
    SharedString query_name;
    SharedString trigger_key;
  };

  std::vector<Target> targets_;
  std::vector<SlotNames> slots_;
  size_t live_ = 0;
};

}  // namespace xymon::manager

#endif  // XYMON_MANAGER_DELIVERY_TABLE_H_
