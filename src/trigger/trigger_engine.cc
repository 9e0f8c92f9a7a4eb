#include "src/trigger/trigger_engine.h"

#include <algorithm>

namespace xymon::trigger {

TriggerEngine::TriggerId TriggerEngine::AddPeriodic(Timestamp start,
                                                    Timestamp period,
                                                    Action action) {
  TriggerId id = next_id_++;
  periodic_.emplace(id, Periodic{period, start + period, std::move(action)});
  return id;
}

TriggerEngine::TriggerId TriggerEngine::AddNotificationTrigger(
    const std::string& key, Action action) {
  TriggerId id = next_id_++;
  notification_.emplace(id, OnNotification{key, std::move(action)});
  by_key_[key].push_back(id);
  return id;
}

Status TriggerEngine::Remove(TriggerId id) {
  if (periodic_.erase(id) != 0) return Status::OK();
  auto it = notification_.find(id);
  if (it == notification_.end()) {
    return Status::NotFound("trigger " + std::to_string(id));
  }
  auto& ids = by_key_[it->second.key];
  ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
  if (ids.empty()) by_key_.erase(it->second.key);
  notification_.erase(it);
  return Status::OK();
}

void TriggerEngine::Tick(Timestamp now) {
  for (auto& [id, p] : periodic_) {
    (void)id;
    if (p.next_fire > now) continue;
    p.action(now);
    ++firings_;
    // Catch up without a firing storm: at most one firing per Tick.
    while (p.next_fire <= now) p.next_fire += p.period;
  }
}

void TriggerEngine::NotifyEvent(std::string_view key, Timestamp now) {
  if (by_key_.empty()) return;
  auto it = by_key_.find(key);
  if (it == by_key_.end()) return;
  // Copy: an action may add/remove triggers.
  std::vector<TriggerId> ids = it->second;
  for (TriggerId id : ids) {
    auto nit = notification_.find(id);
    if (nit == notification_.end()) continue;
    nit->second.action(now);
    ++firings_;
  }
}

}  // namespace xymon::trigger
