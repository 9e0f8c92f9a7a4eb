#ifndef XYMON_MANAGER_SUBSCRIPTION_MANAGER_H_
#define XYMON_MANAGER_SUBSCRIPTION_MANAGER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/manager/delivery_table.h"
#include "src/manager/replica.h"
#include "src/manager/user_registry.h"
#include "src/query/delta_tracker.h"
#include "src/query/engine.h"
#include "src/reporter/reporter.h"
#include "src/storage/persistent_map.h"
#include "src/sublang/validator.h"
#include "src/trigger/trigger_engine.h"

namespace xymon::manager {

/// The (Xyleme) Subscription Manager (paper §3): "chooses the internal codes
/// of atomic events and (dynamically) warns the Alerters of the creation of
/// new events ... controls in a similar manner the Monitoring Query
/// Processor for managing complex events, the Trigger Engine for continuous
/// queries and the Reporter(s) for reports."
///
/// Atomic-event codes are deduplicated across subscriptions: two
/// subscriptions monitoring the same URL prefix share one code (and one
/// entry in the alerter structures) — the paper's implicit factorization.
/// Codes are refcounted so Unsubscribe retracts exactly the conditions no
/// longer needed.
///
/// Persistence: AttachStorage() opens the recovery log (the paper's MySQL
/// substitute) and replays stored subscriptions; every Subscribe /
/// Unsubscribe is logged.
class SubscriptionManager {
 public:
  struct Components {
    trigger::TriggerEngine* trigger_engine = nullptr;
    reporter::Reporter* reporter = nullptr;
    query::QueryEngine* query_engine = nullptr;
    const Clock* clock = nullptr;
    /// One detection replica per shard, each receiving every registration
    /// (the caller quiesces the document flow around mutations).
    std::vector<DetectionReplica*> replicas;
  };

  explicit SubscriptionManager(Components components,
                               sublang::ValidatorOptions validator_options = {})
      : components_(components),
        validator_options_(std::move(validator_options)) {}

  /// Opens (or creates) the durability log at `path` and recovers every
  /// stored subscription into the live structures. `log_options` tunes
  /// durability (fsync_every_n = 1 makes every Subscribe crash-proof).
  Status AttachStorage(const std::string& path,
                       const storage::LogStore::Options& log_options = {});

  /// Non-owning variant: recovers from (and writes through to) `store`,
  /// whose lifetime the caller manages (the StorageHub when the monitor
  /// runs). nullptr detaches.
  Status AttachStore(storage::PersistentMap* store);

  /// Atomically compacts the recovery log to one record per live
  /// subscription (no-op without storage). Crash-safe: see
  /// PersistentMap::Checkpoint.
  Status CheckpointStorage() {
    return store_ != nullptr ? store_->Checkpoint() : Status::OK();
  }

  /// Parses, validates and activates a subscription; returns its name.
  Result<std::string> Subscribe(const std::string& text,
                                const std::string& email);

  /// Subscribes on behalf of a registered account: the user's e-mail is the
  /// recipient and privileged users bypass the cost budget (§5.4). Requires
  /// set_user_registry.
  Result<std::string> SubscribeAs(const std::string& user_name,
                                  const std::string& text);

  void set_user_registry(const UserRegistry* users) { users_ = users; }

  /// Retracts a subscription: complex events, condition codes (refcounted),
  /// triggers, report registration and the stored record.
  Status Unsubscribe(const std::string& name);

  /// Adds another e-mail recipient to a live subscription (the paper's
  /// user registry keeps addresses in MySQL; recipients persist with the
  /// subscription record). AlreadyExists if the address is registered.
  Status AddRecipient(const std::string& name, const std::string& email);

  /// Replaces a live subscription with a new definition (paper §4.1:
  /// "subscriptions keep being added, removed and updated while the system
  /// is running"). `text` must parse to the same subscription name; the
  /// swap is atomic — on any failure the old subscription stays active.
  Status Modify(const std::string& name, const std::string& text);

  /// Swaps shard `shard_index`'s replica for `replica` (fresh, empty) and
  /// registers the live set into it, codes then complex events, with the
  /// manager's ids — the subscription half of a shard restart on every
  /// substrate (DESIGN.md §13). The rebuilt shard matches what a
  /// never-restarted one matches (DESIGN.md §11). The caller quiesces the
  /// document flow.
  Status RebindReplica(size_t shard_index, DetectionReplica* replica);

  const QueryBinding* FindBinding(mqp::ComplexEventId id) const {
    return delivery_.FindBinding(id);
  }
  /// The live complex events' delivery targets (what stage 4a reads).
  const DeliveryTable& delivery_table() const { return delivery_; }

  /// True if `subscription` has a (monitoring or continuous) query named
  /// `query` — target validation for virtual subscriptions.
  bool HasQuery(const std::string& subscription,
                const std::string& query) const;

  size_t subscription_count() const { return subs_.size(); }
  size_t atomic_event_count() const { return codes_.size(); }
  size_t complex_event_count() const { return delivery_.size(); }

  /// Names of all live subscriptions, sorted. With subscription_text this
  /// lets the crash sweep rebuild a from-scratch monitor and compare its
  /// MQP hash tree against the recovered one.
  std::vector<std::string> subscription_names() const;

  /// Source text of a live subscription; nullptr if unknown.
  const std::string* subscription_text(const std::string& name) const;

  /// Refresh hints ("refresh URL weekly") for the crawler: url -> period.
  const std::map<std::string, Timestamp>& refresh_hints() const {
    return refresh_hints_;
  }

 private:
  struct CodeEntry {
    alerters::Condition condition;
    mqp::AtomicEvent code;
    uint32_t refcount;
  };
  struct SubRecord {
    std::vector<std::string> recipients;
    std::string text;
    std::vector<std::string> query_names;  // monitoring + continuous
    /// Each live complex event with the EventSet it was registered with
    /// (what RebindReplica replays); its binding lives in delivery_.
    std::vector<std::pair<mqp::ComplexEventId, mqp::EventSet>> complex_events;
    std::vector<uint32_t> slots;  // one per monitoring query
    std::vector<std::string> condition_keys;  // one per acquired reference
    std::vector<trigger::TriggerEngine::TriggerId> triggers;
    std::vector<std::shared_ptr<query::DeltaTracker>> trackers;
  };

  Result<std::string> SubscribeInternal(const std::string& text,
                                        const std::string& email,
                                        bool persist,
                                        bool privileged = false);
  // Fan-out across components_.replicas. The Register forms roll back the
  // replicas they already reached on failure.
  Status RegisterCondition(mqp::AtomicEvent code,
                           const alerters::Condition& condition);
  void UnregisterCondition(mqp::AtomicEvent code,
                           const alerters::Condition& condition);
  Status RegisterComplex(mqp::ComplexEventId id, const mqp::EventSet& events,
                         QueryBinding binding);
  void UnregisterComplex(mqp::ComplexEventId id);
  Result<mqp::AtomicEvent> AcquireCode(const alerters::Condition& condition,
                                       SubRecord* record);
  void ReleaseCode(const std::string& key);
  Status WireContinuousQuery(const std::string& sub_name,
                             const sublang::ContinuousQueryAst& cq,
                             SubRecord* record);
  void RollbackSubscription(SubRecord* record);

  Components components_;
  sublang::ValidatorOptions validator_options_;
  std::unordered_map<std::string, CodeEntry> codes_;
  mqp::AtomicEvent next_code_ = 1;
  mqp::ComplexEventId next_complex_ = 1;
  std::map<std::string, SubRecord> subs_;
  DeliveryTable delivery_;
  /// Delivery slots of retired monitoring queries, reused before new ones.
  std::vector<uint32_t> free_slots_;
  uint32_t next_slot_ = 0;
  std::map<std::string, Timestamp> refresh_hints_;
  std::optional<storage::PersistentMap> owned_store_;
  storage::PersistentMap* store_ = nullptr;
  const UserRegistry* users_ = nullptr;
};

}  // namespace xymon::manager

#endif  // XYMON_MANAGER_SUBSCRIPTION_MANAGER_H_
