#ifndef XYMON_SYSTEM_BINDING_RESOLVER_H_
#define XYMON_SYSTEM_BINDING_RESOLVER_H_

#include <vector>

#include "src/manager/delivery_table.h"
#include "src/mqp/processor.h"
#include "src/system/pipeline.h"
#include "src/warehouse/warehouse.h"

namespace xymon::manager {
class SubscriptionManager;
}

namespace xymon::system {

/// Stage 4a as a standalone component: complex-event matches → deliverable
/// DeliveryActions, via the DeliveryTable (target lookup by id, per-query
/// dedup by slot, select-clause payload assembly). Factored out of
/// XylemeMonitor so a shard worker *process* runs the identical resolution
/// over the table its replica operations built (DESIGN.md §14) — the
/// actions it ships back over the wire are byte-identical to what the
/// in-process monitor would have produced.
///
/// Every kDefault action of one document shares one payload buffer, and
/// every action of one query shares its interned names (DESIGN.md §15).
///
/// Read-only over the table; the caller quiesces every mutation of it
/// around batches (the same contract as NotifyResolver). One resolver may
/// serve several shard threads at once.
class BindingResolver : public NotifyResolver {
 public:
  explicit BindingResolver(const manager::DeliveryTable* table)
      : table_(table) {}
  /// Resolves over the manager's table.
  explicit BindingResolver(const manager::SubscriptionManager* manager);

  void Resolve(const warehouse::IngestResult& ingest,
               const std::vector<mqp::MqpNotification>& matches,
               DocOutcome* out) const override;

 private:
  const manager::DeliveryTable* table_;
};

}  // namespace xymon::system

#endif  // XYMON_SYSTEM_BINDING_RESOLVER_H_
