#ifndef XYMON_SYSTEM_BINDING_RESOLVER_H_
#define XYMON_SYSTEM_BINDING_RESOLVER_H_

#include <string>
#include <vector>

#include "src/manager/replica.h"
#include "src/mqp/processor.h"
#include "src/system/pipeline.h"
#include "src/warehouse/warehouse.h"

namespace xymon::system {

/// Stage 4a as a standalone component: complex-event matches → deliverable
/// DeliveryActions, via the QueryBindings (binding lookup, per-query dedup,
/// select-clause payload assembly). Factored out of XylemeMonitor so a
/// shard worker *process* runs the identical resolution over the bindings
/// its replica operations carried (DESIGN.md §14) — the actions it ships
/// back over the wire are byte-identical to what the in-process monitor
/// would have produced. In process, the lookup is the SubscriptionManager.
///
/// Read-only over the bindings; the caller quiesces every mutation of them
/// around batches (the same contract as NotifyResolver).
class BindingResolver : public NotifyResolver {
 public:
  explicit BindingResolver(const manager::BindingLookup* bindings)
      : bindings_(bindings) {}

  void Resolve(const warehouse::IngestResult& ingest,
               const std::vector<mqp::MqpNotification>& matches,
               DocOutcome* out) const override;

 private:
  void CollectPayloads(const manager::QueryBinding& binding,
                       const mqp::MqpNotification& notification,
                       const warehouse::IngestResult& ingest,
                       std::vector<std::string>* payloads) const;

  const manager::BindingLookup* bindings_;
};

}  // namespace xymon::system

#endif  // XYMON_SYSTEM_BINDING_RESOLVER_H_
