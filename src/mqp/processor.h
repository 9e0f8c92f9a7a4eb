#ifndef XYMON_MQP_PROCESSOR_H_
#define XYMON_MQP_PROCESSOR_H_

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/mqp/aes_matcher.h"
#include "src/mqp/matcher.h"

namespace xymon::mqp {

/// The alert sent by the alerters for one document: the ordered set of
/// atomic events detected, plus the "requested data" passed through
/// untouched (paper §4.1: the MQP "has no semantic knowledge of the data
/// associated to the atomic or complex events it handles. Such additional
/// information is passed in XML format ... in a transparent manner").
struct AlertMessage {
  uint64_t docid = 0;
  std::string url;
  EventSet events;
  /// Opaque XML payload assembled by the alerters, forwarded to the Reporter.
  std::string info_xml;
};

/// One detected complex event for one document. `url` and `info_xml` view
/// the AlertMessage the notification was matched from: nothing is copied
/// per match, so the alert must outlive every notification taken from it.
/// The pipeline keeps it alive through stage 4a (ProcessDocJob and the
/// shard worker hold the alert until Resolve returns); a notification
/// that must outlive the alert copies what it needs.
struct MqpNotification {
  ComplexEventId complex_event = kNoComplexEvent;
  uint64_t docid = 0;
  std::string_view url;
  std::string_view info_xml;
};

/// The Monitoring Query Processor proper: a Matcher plus the notification
/// envelope. All complex events detected on a document are emitted in one
/// batch (paper §3 footnote 1).
class MonitoringQueryProcessor {
 public:
  /// Uses the AES matcher (the paper's algorithm) by default.
  MonitoringQueryProcessor()
      : MonitoringQueryProcessor(std::make_unique<AesMatcher>()) {}
  explicit MonitoringQueryProcessor(std::unique_ptr<Matcher> matcher)
      : matcher_(std::move(matcher)) {}

  Status Register(ComplexEventId id, const EventSet& events) {
    return matcher_->Insert(id, events);
  }
  Status Unregister(ComplexEventId id) { return matcher_->Erase(id); }

  /// Matches the alert and appends one notification per detected complex
  /// event to `out`, in ascending complex-event id — not in the matcher's
  /// order, which depends on its registration history (DESIGN.md §11).
  void Process(const AlertMessage& alert,
               std::vector<MqpNotification>* out) const {
    scratch_.clear();
    matcher_->Match(alert.events, &scratch_);
    std::sort(scratch_.begin(), scratch_.end());
    for (ComplexEventId id : scratch_) {
      out->push_back(
          MqpNotification{id, alert.docid, alert.url, alert.info_xml});
    }
  }

  const Matcher& matcher() const { return *matcher_; }

 private:
  std::unique_ptr<Matcher> matcher_;
  mutable std::vector<ComplexEventId> scratch_;
};

}  // namespace xymon::mqp

#endif  // XYMON_MQP_PROCESSOR_H_
