#ifndef XYMON_REPORTER_REPORTER_H_
#define XYMON_REPORTER_REPORTER_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/shared_string.h"
#include "src/common/status.h"
#include "src/query/engine.h"
#include "src/reporter/outbox.h"
#include "src/reporter/web_portal.h"
#include "src/sublang/ast.h"

namespace xymon::reporter {

/// One entry of the notification stream (Figure 2): a monitoring-query match
/// or a continuous-query evaluation, addressed to a subscription. The
/// strings are shared handles: a buffered notification holds the same
/// payload and names as every other copy of it (virtual listeners, the
/// other notifications of one document), and keeps them alive after its
/// subscription or query is gone (DESIGN.md §15).
struct Notification {
  SharedString subscription;
  SharedString query_name;   // monitoring or continuous query name
  SharedString payload_xml;  // XML fragment(s), opaque to the Reporter
  Timestamp time = 0;
};

/// An emitted report (also archived when the subscription asks for it).
struct Report {
  std::string subscription;
  Timestamp time = 0;
  std::string xml;
};

/// The (Xyleme) Reporter of Figure 3: buffers notifications per
/// subscription, evaluates report conditions (`when`), applies the report
/// query, enforces `atmost` limits, archives per `archive`, and hands the
/// result to the Outbox ("sent by email").
///
/// Virtual subscriptions (§5.4) register as extra listeners on another
/// subscription's queries: the notification is duplicated into their buffer,
/// which "only puts stress on the Reporter" — exactly the paper's cost
/// model.
class Reporter {
 public:
  Reporter(Outbox* outbox, const query::QueryEngine* engine)
      : outbox_(outbox), engine_(engine) {}

  /// Enables the web-publication channel; subscriptions whose report spec
  /// says `publish` go to the portal instead of the outbox.
  void set_web_portal(WebPortal* portal) { web_portal_ = portal; }

  /// Registers a subscription's report spec and recipients.
  Status AddSubscription(const std::string& name,
                         const sublang::ReportSpec& spec,
                         std::vector<std::string> recipients,
                         Timestamp now);
  Status RemoveSubscription(const std::string& name);

  /// Adds another e-mail recipient to a registered subscription.
  Status AddRecipient(const std::string& name, const std::string& email);

  /// Routes notifications of (`target_sub`, `target_query`) additionally to
  /// `virtual_sub`'s buffer.
  Status AddVirtualListener(const std::string& virtual_sub,
                            const std::string& target_sub,
                            const std::string& target_query);

  /// Appends to the subscription's buffer (and to its virtual listeners'
  /// buffers) and evaluates the report condition.
  void AddNotification(Notification notification);

  /// Evaluates time-based conditions (periodic atoms, atmost-rate backlog,
  /// archive GC) and drains the outbox.
  void Tick(Timestamp now);

  // -- Introspection ----------------------------------------------------------

  uint64_t reports_generated() const { return reports_generated_; }
  uint64_t notifications_received() const { return notifications_received_; }
  uint64_t notifications_dropped() const { return notifications_dropped_; }

  /// Most recent report of a subscription; nullptr if none yet.
  const Report* LastReport(const std::string& subscription) const;
  /// Archived reports of a subscription (only kept with an archive clause).
  std::vector<const Report*> ArchivedReports(
      const std::string& subscription) const;
  /// Buffered (not yet reported) notification count.
  size_t BufferedCount(const std::string& subscription) const;
  /// The subscription's buffered notifications, oldest first (empty if
  /// the subscription is unknown).
  const std::vector<Notification>& Buffered(
      const std::string& subscription) const;

 private:
  struct SubState {
    sublang::ReportSpec spec;
    /// spec.query_text, parsed once; nullopt without a report query or
    /// when it does not parse (the report then carries the raw buffer).
    std::optional<query::Query> report_query;
    /// The when-condition has a named-count atom, so counts_by_query is
    /// kept.
    bool counts_queries = false;
    std::vector<std::string> recipients;
    std::vector<Notification> buffer;
    std::map<std::string, uint64_t, std::less<>> counts_by_query;
    Timestamp last_report_time = 0;
    bool has_reported = false;
    bool pending = false;  // condition held but atmost-rate deferred it
    std::unique_ptr<Report> last_report;
    std::deque<Report> archive;
  };

  /// Where a subscription name's notifications go: its own state (nullptr
  /// while the name is not registered but virtual listeners still refer to
  /// it) and the virtual subscriptions listening on its queries.
  struct Route {
    SubState* state = nullptr;
    /// (query, virtual subscription), in registration order.
    std::vector<std::pair<std::string, std::string>> listeners;
    /// (target subscription, query) this name listens on as a virtual
    /// subscription.
    std::vector<std::pair<std::string, std::string>> listens_to;
  };
  using RouteMap =
      std::unordered_map<std::string, Route, StringViewHash, std::equal_to<>>;

  void EraseRouteIfUnused(RouteMap::iterator it);
  void DeliverTo(const std::string& name, SubState* sub,
                 Notification notification);
  bool ConditionHolds(const SubState& sub, Timestamp now) const;
  void MaybeReport(const std::string& name, SubState* sub, Timestamp now);
  void GenerateReport(const std::string& name, SubState* sub, Timestamp now);

  Outbox* outbox_;
  WebPortal* web_portal_ = nullptr;
  const query::QueryEngine* engine_;
  /// Owns the states; name order is the order Tick reports in.
  std::map<std::string, SubState> subs_;
  /// The notification path's lookup, by subscription name.
  RouteMap routes_;
  uint64_t reports_generated_ = 0;
  uint64_t notifications_received_ = 0;
  uint64_t notifications_dropped_ = 0;
};

}  // namespace xymon::reporter

#endif  // XYMON_REPORTER_REPORTER_H_
