#ifndef XYMON_MANAGER_REPLICA_H_
#define XYMON_MANAGER_REPLICA_H_

#include <optional>
#include <string>
#include <vector>

#include "src/alerters/condition.h"
#include "src/alerters/pipeline.h"
#include "src/common/status.h"
#include "src/mqp/processor.h"
#include "src/sublang/ast.h"

namespace xymon::manager {

/// What the system needs to know when a complex event fires: which
/// subscription/query it belongs to and how to build the notification
/// payload (select clause + from binding).
struct QueryBinding {
  std::string subscription;
  std::string query_name;
  sublang::SelectClause select;
  std::optional<sublang::MonitoringFrom> from;
  std::vector<alerters::Condition> conditions;
  /// The monitoring query's delivery slot, chosen by the manager: the same
  /// for every complex event (disjunct) of the query, unique among live
  /// queries, reused after the query goes (DeliveryTable).
  uint32_t slot = 0;
};

/// One shard's detection structures as the Subscription Manager sees them
/// (paper §3, §4.2: the manager "warns the Alerters" and "each MQP"). These
/// four operations are the whole contract between the manager and a shard:
/// a LocalReplica in this process, a ShardWorkerProxy for a worker process.
/// Unregistering something absent is a no-op.
class DetectionReplica {
 public:
  virtual ~DetectionReplica() = default;
  virtual Status RegisterCondition(mqp::AtomicEvent code,
                                   const alerters::Condition& condition) = 0;
  virtual void UnregisterCondition(mqp::AtomicEvent code,
                                   const alerters::Condition& condition) = 0;
  virtual Status RegisterComplex(mqp::ComplexEventId id,
                                 const mqp::EventSet& events,
                                 const QueryBinding& binding) = 0;
  virtual void UnregisterComplex(mqp::ComplexEventId id) = 0;
};

/// A replica in this process: a condition goes to the alerter(s) of its
/// kind, a complex event to the MQP. Holds pointers, so the objects may be
/// reassigned in place (e.g. another matcher swapped in) after wiring.
class LocalReplica final : public DetectionReplica {
 public:
  LocalReplica(mqp::MonitoringQueryProcessor* mqp, alerters::UrlAlerter* url,
               alerters::XmlAlerter* xml, alerters::HtmlAlerter* html,
               alerters::AlertPipeline* pipeline)
      : mqp_(mqp), url_(url), xml_(xml), html_(html), pipeline_(pipeline) {}

  Status RegisterCondition(mqp::AtomicEvent code,
                           const alerters::Condition& condition) override {
    if (IsUrlCondition(condition)) {
      XYMON_RETURN_IF_ERROR(url_->Register(code, condition));
    } else {
      XYMON_RETURN_IF_ERROR(xml_->Register(code, condition));
      if (condition.kind == alerters::ConditionKind::kSelfContains) {
        XYMON_RETURN_IF_ERROR(html_->Register(code, condition));
      }
    }
    if (condition.IsWeak()) pipeline_->MarkWeak(code);
    return Status::OK();
  }
  void UnregisterCondition(mqp::AtomicEvent code,
                           const alerters::Condition& condition) override {
    if (IsUrlCondition(condition)) {
      (void)url_->Unregister(code, condition);
    } else {
      (void)xml_->Unregister(code, condition);
      (void)html_->Unregister(code, condition);  // no-op unless self contains
    }
    pipeline_->UnmarkWeak(code);
  }
  /// The MQP needs only the events; the binding is the caller's to keep.
  Status RegisterComplex(mqp::ComplexEventId id, const mqp::EventSet& events,
                         const QueryBinding& /*binding*/) override {
    return mqp_->Register(id, events);
  }
  void UnregisterComplex(mqp::ComplexEventId id) override {
    (void)mqp_->Unregister(id);
  }

 private:
  // The URL alerter's kinds (document metadata) precede the content kinds
  // in ConditionKind.
  static bool IsUrlCondition(const alerters::Condition& condition) {
    return condition.kind < alerters::ConditionKind::kSelfContains;
  }

  mqp::MonitoringQueryProcessor* mqp_;
  alerters::UrlAlerter* url_;
  alerters::XmlAlerter* xml_;
  alerters::HtmlAlerter* html_;
  alerters::AlertPipeline* pipeline_;
};

}  // namespace xymon::manager

#endif  // XYMON_MANAGER_REPLICA_H_
