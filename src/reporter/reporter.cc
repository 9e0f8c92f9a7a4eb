#include "src/reporter/reporter.h"

#include "src/xml/parser.h"
#include "src/xml/serializer.h"

namespace xymon::reporter {
namespace {

using sublang::ReportCondition;

bool CompareCount(uint64_t count, alerters::Comparator cmp, uint64_t bound) {
  switch (cmp) {
    case alerters::Comparator::kLt:
      return count < bound;
    case alerters::Comparator::kLe:
      return count <= bound;
    case alerters::Comparator::kEq:
      return count == bound;
    case alerters::Comparator::kGe:
      return count >= bound;
    case alerters::Comparator::kGt:
      return count > bound;
  }
  return false;
}

}  // namespace

Status Reporter::AddSubscription(const std::string& name,
                                 const sublang::ReportSpec& spec,
                                 std::vector<std::string> recipients,
                                 Timestamp now) {
  auto [it, inserted] = subs_.try_emplace(name);
  if (!inserted) {
    return Status::AlreadyExists("subscription '" + name +
                                 "' already registered with the reporter");
  }
  SubState& sub = it->second;
  sub.spec = spec;
  if (!spec.query_text.empty()) {
    auto parsed = query::ParseQuery("Report", spec.query_text);
    if (parsed.ok()) sub.report_query = std::move(parsed).value();
  }
  for (const ReportCondition::Atom& atom : spec.when.atoms) {
    if (atom.kind == ReportCondition::Atom::Kind::kNamedCount) {
      sub.counts_queries = true;
    }
  }
  sub.recipients = std::move(recipients);
  sub.last_report_time = now;
  routes_[name].state = &sub;
  return Status::OK();
}

Status Reporter::RemoveSubscription(const std::string& name) {
  if (subs_.erase(name) == 0) {
    return Status::NotFound("subscription '" + name + "'");
  }
  auto it = routes_.find(name);
  // It stops listening everywhere; listeners on its own queries stay, so a
  // re-registered `name` (Modify) reaches them again.
  for (const auto& [target, query] : it->second.listens_to) {
    auto target_it = routes_.find(target);
    if (target_it == routes_.end()) continue;
    std::erase(target_it->second.listeners, std::pair(query, name));
    if (target_it != it) EraseRouteIfUnused(target_it);
  }
  it->second.listens_to.clear();
  it->second.state = nullptr;
  EraseRouteIfUnused(it);
  return Status::OK();
}

void Reporter::EraseRouteIfUnused(RouteMap::iterator it) {
  const Route& route = it->second;
  if (route.state == nullptr && route.listeners.empty() &&
      route.listens_to.empty()) {
    routes_.erase(it);
  }
}

Status Reporter::AddRecipient(const std::string& name,
                              const std::string& email) {
  auto it = subs_.find(name);
  if (it == subs_.end()) {
    return Status::NotFound("subscription '" + name + "'");
  }
  it->second.recipients.push_back(email);
  return Status::OK();
}

Status Reporter::AddVirtualListener(const std::string& virtual_sub,
                                    const std::string& target_sub,
                                    const std::string& target_query) {
  routes_[target_sub].listeners.emplace_back(target_query, virtual_sub);
  routes_[virtual_sub].listens_to.emplace_back(target_sub, target_query);
  return Status::OK();
}

void Reporter::AddNotification(Notification notification) {
  ++notifications_received_;
  auto it = routes_.find(notification.subscription.view());
  if (it == routes_.end()) return;
  const Route& route = it->second;
  if (route.listeners.empty()) {
    if (route.state != nullptr) {
      DeliverTo(it->first, route.state, std::move(notification));
    }
    return;
  }
  // The owner first, then its virtual listeners in registration order —
  // each buffer holds a copy of the same handles.
  if (route.state != nullptr) DeliverTo(it->first, route.state, notification);
  for (const auto& [query, virtual_sub] : route.listeners) {
    if (query != notification.query_name) continue;
    auto listener = routes_.find(virtual_sub);
    if (listener != routes_.end() && listener->second.state != nullptr) {
      DeliverTo(listener->first, listener->second.state, notification);
    }
  }
}

void Reporter::DeliverTo(const std::string& name, SubState* sub,
                         Notification notification) {
  const Timestamp time = notification.time;
  // atmost N: stop registering notifications past the cap until the next
  // report (paper §5.3).
  if (sub->spec.atmost_count.has_value() &&
      sub->buffer.size() >= *sub->spec.atmost_count) {
    ++notifications_dropped_;
  } else {
    if (sub->counts_queries) {
      auto count = sub->counts_by_query.find(notification.query_name.view());
      if (count == sub->counts_by_query.end()) {
        sub->counts_by_query.emplace(notification.query_name.str(), 1);
      } else {
        ++count->second;
      }
    }
    sub->buffer.push_back(std::move(notification));
  }
  MaybeReport(name, sub, time);
}

bool Reporter::ConditionHolds(const SubState& sub, Timestamp now) const {
  for (const ReportCondition::Atom& atom : sub.spec.when.atoms) {
    switch (atom.kind) {
      case ReportCondition::Atom::Kind::kImmediate:
        if (!sub.buffer.empty()) return true;
        break;
      case ReportCondition::Atom::Kind::kCount:
        if (CompareCount(sub.buffer.size(), atom.cmp, atom.count)) return true;
        break;
      case ReportCondition::Atom::Kind::kNamedCount: {
        auto it = sub.counts_by_query.find(atom.query_name);
        uint64_t count = it == sub.counts_by_query.end() ? 0 : it->second;
        if (CompareCount(count, atom.cmp, atom.count)) return true;
        break;
      }
      case ReportCondition::Atom::Kind::kPeriodic:
        if (!sub.buffer.empty() &&
            now - sub.last_report_time >=
                sublang::FrequencyPeriod(atom.frequency)) {
          return true;
        }
        break;
    }
  }
  return false;
}

void Reporter::MaybeReport(const std::string& name, SubState* sub,
                           Timestamp now) {
  if (!sub->pending && !ConditionHolds(*sub, now)) return;
  // atmost <freq>: never report more often than the rate, even when the
  // when-condition triggers (paper §5.3); the report stays pending.
  if (sub->spec.atmost_rate.has_value() && sub->has_reported &&
      now - sub->last_report_time <
          sublang::FrequencyPeriod(*sub->spec.atmost_rate)) {
    sub->pending = true;
    return;
  }
  sub->pending = false;
  GenerateReport(name, sub, now);
}

void Reporter::GenerateReport(const std::string& name, SubState* sub,
                              Timestamp now) {
  // Assemble the notification buffer as one XML document.
  auto buffer_root = xml::Node::Element("Report");
  buffer_root->SetAttribute("subscription", name);
  buffer_root->SetAttribute("date", FormatTimestamp(now));
  for (const Notification& n : sub->buffer) {
    auto parsed = xml::ParseFragment(n.payload_xml);
    if (parsed.ok()) {
      buffer_root->AddChild(std::move(parsed).value());
    } else if (!n.payload_xml.empty()) {
      // Malformed payloads are preserved verbatim rather than lost.
      buffer_root->AddElement("raw", n.payload_xml.str());
    }
  }

  // Post-process with the report query, if any (the Xyleme Reporter step).
  std::string body;
  if (!sub->spec.query_text.empty() && engine_ != nullptr) {
    if (sub->report_query.has_value()) {
      auto result = engine_->EvaluateOn(*sub->report_query, *buffer_root);
      if (result.ok()) {
        result.value()->SetAttribute("subscription", name);
        result.value()->SetAttribute("date", FormatTimestamp(now));
        body = xml::Serialize(*result.value(), {.indent = true});
      }
    }
    if (body.empty()) {
      // A broken report query must not swallow the data.
      body = xml::Serialize(*buffer_root, {.indent = true});
    }
  } else {
    body = xml::Serialize(*buffer_root, {.indent = true});
  }

  Report report{name, now, body};
  if (sub->spec.publish_web && web_portal_ != nullptr) {
    // Web publication (§3): the subscriber consults the report with a
    // browser instead of receiving an e-mail.
    web_portal_->Publish(name, now, body);
  } else {
    for (const std::string& recipient : sub->recipients) {
      outbox_->Send(Email{recipient, "Xyleme report: " + name, body, now});
    }
  }
  ++reports_generated_;

  sub->last_report = std::make_unique<Report>(report);
  if (sub->spec.archive.has_value()) {
    sub->archive.push_back(std::move(report));
  }
  // "The generation of a report empties the global buffer" (§5.3).
  sub->buffer.clear();
  sub->counts_by_query.clear();
  sub->last_report_time = now;
  sub->has_reported = true;
}

void Reporter::Tick(Timestamp now) {
  for (auto& [name, sub] : subs_) {
    MaybeReport(name, &sub, now);
    // Archive GC: keep reports for one archive period (§5.3).
    if (sub.spec.archive.has_value()) {
      Timestamp retention = sublang::FrequencyPeriod(*sub.spec.archive);
      while (!sub.archive.empty() &&
             now - sub.archive.front().time > retention) {
        sub.archive.pop_front();
      }
    }
  }
  outbox_->Drain(now);
}

const Report* Reporter::LastReport(const std::string& subscription) const {
  auto it = subs_.find(subscription);
  if (it == subs_.end()) return nullptr;
  return it->second.last_report.get();
}

std::vector<const Report*> Reporter::ArchivedReports(
    const std::string& subscription) const {
  std::vector<const Report*> out;
  auto it = subs_.find(subscription);
  if (it == subs_.end()) return out;
  for (const Report& r : it->second.archive) out.push_back(&r);
  return out;
}

size_t Reporter::BufferedCount(const std::string& subscription) const {
  return Buffered(subscription).size();
}

const std::vector<Notification>& Reporter::Buffered(
    const std::string& subscription) const {
  static const std::vector<Notification> kNone;
  auto it = subs_.find(subscription);
  return it == subs_.end() ? kNone : it->second.buffer;
}

}  // namespace xymon::reporter
