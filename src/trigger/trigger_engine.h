#ifndef XYMON_TRIGGER_TRIGGER_ENGINE_H_
#define XYMON_TRIGGER_TRIGGER_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/clock.h"
#include "src/common/shared_string.h"
#include "src/common/status.h"

namespace xymon::trigger {

/// The Trigger Engine of Figure 3: fires external actions "either upon
/// receiving a notification, or at a given date". In xymon it drives the
/// evaluation of continuous queries; the actions are closures installed by
/// the Subscription Manager.
///
/// Time is injected (Tick) so the whole system runs on a SimClock. A
/// periodic trigger fires at most once per Tick even if several periods
/// elapsed while the system was down — re-evaluating a continuous query
/// twice in a row would only duplicate work (and delta-mode queries would
/// report nothing the second time).
class TriggerEngine {
 public:
  using TriggerId = uint32_t;
  using Action = std::function<void(Timestamp now)>;

  /// Fires every `period` seconds, first at `start + period`.
  TriggerId AddPeriodic(Timestamp start, Timestamp period, Action action);

  /// Fires whenever NotifyEvent(`key`) is called; `key` is conventionally
  /// "Subscription.QueryName" (paper §5.2's `when XylemeCompetitors.
  /// ChangeInMyProducts`).
  TriggerId AddNotificationTrigger(const std::string& key, Action action);

  Status Remove(TriggerId id);

  /// Fires all periodic triggers that are due at `now`.
  void Tick(Timestamp now);

  /// Delivers a notification event to every trigger listening on `key`.
  void NotifyEvent(std::string_view key, Timestamp now);

  size_t trigger_count() const {
    return periodic_.size() + notification_.size();
  }
  uint64_t firings() const { return firings_; }

 private:
  struct Periodic {
    Timestamp period;
    Timestamp next_fire;
    Action action;
  };
  struct OnNotification {
    std::string key;
    Action action;
  };

  TriggerId next_id_ = 1;
  std::map<TriggerId, Periodic> periodic_;
  std::map<TriggerId, OnNotification> notification_;
  std::unordered_map<std::string, std::vector<TriggerId>, StringViewHash,
                     std::equal_to<>>
      by_key_;
  uint64_t firings_ = 0;
};

}  // namespace xymon::trigger

#endif  // XYMON_TRIGGER_TRIGGER_ENGINE_H_
