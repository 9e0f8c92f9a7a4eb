#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>

#include "src/manager/subscription_manager.h"

namespace xymon::manager {
namespace {

constexpr char kSimpleSub[] = R"(
subscription Simple
monitoring
select default
where URL extends "http://site.org/" and new Product
report when immediate
)";

constexpr char kOtherSub[] = R"(
subscription Other
monitoring
select default
where URL extends "http://site.org/" and updated Product
report when immediate
)";

class ManagerTest : public ::testing::Test {
 protected:
  ManagerTest()
      : pipeline_(&url_alerter_, &xml_alerter_, &html_alerter_),
        replica_(&mqp_, &url_alerter_, &xml_alerter_, &html_alerter_,
                 &pipeline_),
        query_engine_(&warehouse_),
        reporter_(&outbox_, &query_engine_),
        manager_(SubscriptionManager::Components{
            &trigger_engine_, &reporter_, &query_engine_, &clock_,
            {&replica_}}) {}

  SimClock clock_;
  warehouse::Warehouse warehouse_;
  mqp::MonitoringQueryProcessor mqp_;
  alerters::UrlAlerter url_alerter_;
  alerters::XmlAlerter xml_alerter_;
  alerters::HtmlAlerter html_alerter_;
  alerters::AlertPipeline pipeline_;
  LocalReplica replica_;
  trigger::TriggerEngine trigger_engine_;
  reporter::Outbox outbox_;
  query::QueryEngine query_engine_;
  reporter::Reporter reporter_;
  SubscriptionManager manager_;
};

TEST_F(ManagerTest, SubscribeRegistersEverything) {
  auto name = manager_.Subscribe(kSimpleSub, "u@x");
  ASSERT_TRUE(name.ok()) << name.status().ToString();
  EXPECT_EQ(*name, "Simple");
  EXPECT_EQ(manager_.subscription_count(), 1u);
  EXPECT_EQ(manager_.atomic_event_count(), 2u);
  EXPECT_EQ(url_alerter_.condition_count(), 1u);
  EXPECT_EQ(xml_alerter_.condition_count(), 1u);
  EXPECT_EQ(mqp_.matcher().size(), 1u);
}

TEST_F(ManagerTest, ConditionsSharedAcrossSubscriptions) {
  ASSERT_TRUE(manager_.Subscribe(kSimpleSub, "a@x").ok());
  ASSERT_TRUE(manager_.Subscribe(kOtherSub, "b@x").ok());
  // "URL extends http://site.org/" is shared: 2 + 2 conditions but only 3
  // distinct atomic events.
  EXPECT_EQ(manager_.atomic_event_count(), 3u);
  EXPECT_EQ(url_alerter_.condition_count(), 1u);
  EXPECT_EQ(mqp_.matcher().size(), 2u);
}

TEST_F(ManagerTest, UnsubscribeReleasesSharedConditionsLazily) {
  ASSERT_TRUE(manager_.Subscribe(kSimpleSub, "a@x").ok());
  ASSERT_TRUE(manager_.Subscribe(kOtherSub, "b@x").ok());
  ASSERT_TRUE(manager_.Unsubscribe("Simple").ok());
  // The shared URL condition survives (Other still needs it).
  EXPECT_EQ(manager_.atomic_event_count(), 2u);
  EXPECT_EQ(url_alerter_.condition_count(), 1u);
  ASSERT_TRUE(manager_.Unsubscribe("Other").ok());
  EXPECT_EQ(manager_.atomic_event_count(), 0u);
  EXPECT_EQ(url_alerter_.condition_count(), 0u);
  EXPECT_EQ(mqp_.matcher().size(), 0u);
  EXPECT_TRUE(manager_.Unsubscribe("Other").IsNotFound());
}

TEST_F(ManagerTest, DuplicateNameRejected) {
  ASSERT_TRUE(manager_.Subscribe(kSimpleSub, "a@x").ok());
  EXPECT_TRUE(manager_.Subscribe(kSimpleSub, "b@x").status().IsAlreadyExists());
}

TEST_F(ManagerTest, InvalidSubscriptionRejectedAtomically) {
  // Weak-only where clause: rejected by the validator; nothing registered.
  auto r = manager_.Subscribe(R"(
subscription Bad
monitoring
select default
where modified self
report when immediate
)",
                              "u@x");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(manager_.subscription_count(), 0u);
  EXPECT_EQ(manager_.atomic_event_count(), 0u);
  EXPECT_EQ(url_alerter_.condition_count(), 0u);
}

TEST_F(ManagerTest, BrokenContinuousQueryRolledBack) {
  auto r = manager_.Subscribe(R"(
subscription Bad
monitoring
select default
where URL extends "http://site.org/"
continuous Q
select ~~~nonsense~~~
when daily
report when immediate
)",
                              "u@x");
  EXPECT_FALSE(r.ok());
  // The monitoring query's registrations must have been rolled back.
  EXPECT_EQ(manager_.atomic_event_count(), 0u);
  EXPECT_EQ(mqp_.matcher().size(), 0u);
  EXPECT_EQ(trigger_engine_.trigger_count(), 0u);
}

TEST_F(ManagerTest, FindBindingMapsComplexEvents) {
  ASSERT_TRUE(manager_.Subscribe(kSimpleSub, "u@x").ok());
  const QueryBinding* binding = manager_.FindBinding(1);
  ASSERT_NE(binding, nullptr);
  EXPECT_EQ(binding->subscription, "Simple");
  EXPECT_EQ(binding->query_name, "m1");
  EXPECT_EQ(manager_.FindBinding(999), nullptr);
}

TEST_F(ManagerTest, DeliveryTargetsShareOneSlotPerQuery) {
  ASSERT_TRUE(manager_
                  .Subscribe(R"(
subscription Two
monitoring a
select default
where URL extends "http://a.org/" and new Product
   or URL extends "http://b.org/" and new Product
monitoring b
select default
where URL extends "http://c.org/" and new Product
report when immediate
)",
                             "u@x")
                  .ok());
  const DeliveryTable& table = manager_.delivery_table();
  ASSERT_EQ(table.size(), 3u);
  const DeliveryTable::Target* a1 = table.Find(1);
  const DeliveryTable::Target* a2 = table.Find(2);
  const DeliveryTable::Target* b = table.Find(3);
  ASSERT_NE(a1, nullptr);
  ASSERT_NE(a2, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(table.Find(4), nullptr);
  // The two disjuncts of `a` share the slot and the interned names.
  EXPECT_EQ(a1->slot, a2->slot);
  EXPECT_NE(a1->slot, b->slot);
  EXPECT_TRUE(a1->query_name.SharesWith(a2->query_name));
  EXPECT_EQ(a1->subscription, "Two");
  EXPECT_EQ(a1->query_name, "a");
  EXPECT_EQ(a1->trigger_key, "Two.a");
  EXPECT_EQ(b->trigger_key, "Two.b");
  EXPECT_LT(b->slot, table.slot_limit());

  // Retiring the subscription frees its ids and slots; a handle taken
  // before stays valid, and the next query reuses a slot.
  SharedString kept = a1->trigger_key;
  ASSERT_TRUE(manager_.Unsubscribe("Two").ok());
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(1), nullptr);
  EXPECT_EQ(kept, "Two.a");
  const size_t limit = table.slot_limit();
  ASSERT_TRUE(manager_.Subscribe(kSimpleSub, "u@x").ok());
  EXPECT_EQ(table.slot_limit(), limit);
  ASSERT_NE(table.Find(4), nullptr);
  EXPECT_EQ(table.Find(4)->trigger_key, "Simple.m1");
}

TEST_F(ManagerTest, VirtualRequiresExistingTarget) {
  auto bad = manager_.Subscribe("subscription V\nvirtual Nope.Q\n", "v@x");
  EXPECT_TRUE(bad.status().IsNotFound());
  ASSERT_TRUE(manager_.Subscribe(kSimpleSub, "u@x").ok());
  auto good = manager_.Subscribe("subscription V\nvirtual Simple.m1\n", "v@x");
  EXPECT_TRUE(good.ok()) << good.status().ToString();
}

TEST_F(ManagerTest, RefreshHintsExposed) {
  ASSERT_TRUE(manager_
                  .Subscribe(R"(
subscription R
monitoring
select default
where URL extends "http://site.org/"
refresh "http://site.org/hot.xml" daily
report when immediate
)",
                             "u@x")
                  .ok());
  ASSERT_EQ(manager_.refresh_hints().size(), 1u);
  EXPECT_EQ(manager_.refresh_hints().at("http://site.org/hot.xml"), kDay);
}

TEST_F(ManagerTest, ContinuousQueryWiredToTriggerEngine) {
  ASSERT_TRUE(manager_
                  .Subscribe(R"(
subscription C
continuous Counter
select m from any/museum m
when daily
report when immediate
)",
                             "u@x")
                  .ok());
  EXPECT_EQ(trigger_engine_.trigger_count(), 1u);
  clock_.Advance(kDay);
  trigger_engine_.Tick(clock_.Now());
  // Empty warehouse → empty result → still a notification (non-delta).
  EXPECT_EQ(reporter_.reports_generated(), 1u);
}


TEST_F(ManagerTest, ModifySwapsDefinitionAtomically) {
  ASSERT_TRUE(manager_.Subscribe(kSimpleSub, "u@x").ok());
  ASSERT_EQ(mqp_.matcher().size(), 1u);

  // Valid modification: same name, different conditions.
  ASSERT_TRUE(manager_
                  .Modify("Simple", R"(
subscription Simple
monitoring
select default
where URL extends "http://elsewhere.org/" and deleted Product
report when immediate
)")
                  .ok());
  EXPECT_EQ(manager_.subscription_count(), 1u);
  EXPECT_EQ(mqp_.matcher().size(), 1u);
  EXPECT_EQ(manager_.atomic_event_count(), 2u);

  // Renaming through Modify is rejected.
  EXPECT_TRUE(manager_.Modify("Simple", kOtherSub).IsInvalidArgument());
  // Unknown subscription.
  EXPECT_TRUE(manager_.Modify("Ghost", kSimpleSub).IsNotFound());
  // Invalid replacement: the old definition survives.
  EXPECT_FALSE(manager_
                   .Modify("Simple", R"(
subscription Simple
monitoring
select default
where modified self
report when immediate
)")
                   .ok());
  EXPECT_EQ(manager_.subscription_count(), 1u);
  EXPECT_EQ(mqp_.matcher().size(), 1u);
}


TEST_F(ManagerTest, AddRecipientDeliversToAll) {
  ASSERT_TRUE(manager_.Subscribe(kSimpleSub, "first@x").ok());
  ASSERT_TRUE(manager_.AddRecipient("Simple", "second@x").ok());
  EXPECT_TRUE(manager_.AddRecipient("Simple", "second@x").IsAlreadyExists());
  EXPECT_TRUE(manager_.AddRecipient("Ghost", "x@x").IsNotFound());

  // Drive one notification through the reporter directly.
  reporter_.AddNotification(
      reporter::Notification{"Simple", "m1", "<n/>", 1});
  ASSERT_EQ(outbox_.sent_count(), 2u);
  std::set<std::string> to;
  for (const auto& mail : outbox_.sent()) to.insert(mail.to);
  EXPECT_EQ(to, (std::set<std::string>{"first@x", "second@x"}));
}


TEST_F(ManagerTest, SubscribeAsHonorsUserPrivileges) {
  UserRegistry users;
  ASSERT_TRUE(users.AddUser({"alice", "alice@x", /*privileged=*/false}).ok());
  ASSERT_TRUE(users.AddUser({"root", "root@x", /*privileged=*/true}).ok());
  EXPECT_TRUE(users.AddUser({"alice", "dup@x", false}).IsAlreadyExists());
  EXPECT_TRUE(users.AddUser({"", "", false}).IsInvalidArgument());

  sublang::ValidatorOptions opts;
  opts.max_cost = 50;  // Hourly continuous queries cost far more.
  SubscriptionManager manager(
      SubscriptionManager::Components{&trigger_engine_, &reporter_,
                                      &query_engine_, &clock_, {&replica_}},
      opts);
  manager.set_user_registry(&users);

  constexpr char kExpensive[] = R"(
subscription Expensive
continuous Q
select m from any/museum m
when hourly
report when immediate
)";
  // Unknown user / unprivileged user / privileged user.
  EXPECT_TRUE(manager.SubscribeAs("ghost", kExpensive).status().IsNotFound());
  EXPECT_TRUE(manager.SubscribeAs("alice", kExpensive)
                  .status()
                  .IsResourceExhausted());
  auto ok = manager.SubscribeAs("root", kExpensive);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
  // Cheap subscriptions pass for everyone.
  auto cheap = manager.SubscribeAs("alice", kSimpleSub);
  EXPECT_TRUE(cheap.ok()) << cheap.status().ToString();
}

/// A replica that logs every operation it receives and can refuse the
/// `fail_at`-th Register (1-based; 0 = never).
class RecordingReplica : public DetectionReplica {
 public:
  Status RegisterCondition(mqp::AtomicEvent code,
                           const alerters::Condition&) override {
    return Record("+c" + std::to_string(code));
  }
  void UnregisterCondition(mqp::AtomicEvent code,
                           const alerters::Condition&) override {
    log.push_back("-c" + std::to_string(code));
  }
  Status RegisterComplex(mqp::ComplexEventId id, const mqp::EventSet&,
                         const QueryBinding& binding) override {
    return Record("+e" + std::to_string(id) + ":" + binding.subscription);
  }
  void UnregisterComplex(mqp::ComplexEventId id) override {
    log.push_back("-e" + std::to_string(id));
  }

  std::vector<std::string> log;
  int fail_at = 0;

 private:
  Status Record(std::string op) {
    if (++registers_ == fail_at) return Status::Unavailable("refused " + op);
    log.push_back(std::move(op));
    return Status::OK();
  }
  int registers_ = 0;
};

// A replica refusing a registration fails the subscription, and every
// replica before it is rolled back: the manager's fan-out is all or
// nothing across shards.
TEST_F(ManagerTest, RefusingReplicaRollsBackEveryReplica) {
  RecordingReplica second;
  SubscriptionManager manager(SubscriptionManager::Components{
      &trigger_engine_, &reporter_, &query_engine_, &clock_,
      {&replica_, &second}});
  second.fail_at = 3;  // the complex event, after both condition codes
  auto r = manager.Subscribe(kSimpleSub, "u@x");
  EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
  EXPECT_EQ(manager.subscription_count(), 0u);
  EXPECT_EQ(manager.atomic_event_count(), 0u);
  EXPECT_EQ(manager.complex_event_count(), 0u);
  EXPECT_EQ(url_alerter_.condition_count(), 0u);
  EXPECT_EQ(xml_alerter_.condition_count(), 0u);
  EXPECT_EQ(mqp_.matcher().size(), 0u);
  EXPECT_EQ(second.log,
            (std::vector<std::string>{"+c1", "+c2", "-c1", "-c2"}));
}

// RebindReplica registers exactly the live set — codes before complex
// events, with the manager's ids — whatever history produced it.
TEST_F(ManagerTest, RebindReplicaRegistersExactlyTheLiveSet) {
  ASSERT_TRUE(manager_.Subscribe(kSimpleSub, "a@x").ok());
  ASSERT_TRUE(manager_.Subscribe(kOtherSub, "b@x").ok());
  ASSERT_TRUE(manager_.Unsubscribe("Simple").ok());
  ASSERT_TRUE(manager_.Subscribe(kSimpleSub, "a@x").ok());

  RecordingReplica fresh;
  ASSERT_TRUE(manager_.RebindReplica(0, &fresh).ok());
  // Other holds code 1 (the shared URL prefix) and 3, complex event 2;
  // the re-subscribed Simple got code 4 and complex event 3.
  ASSERT_EQ(fresh.log.size(), 5u);
  std::sort(fresh.log.begin(), fresh.log.begin() + 3);
  std::sort(fresh.log.begin() + 3, fresh.log.end());
  EXPECT_EQ(fresh.log, (std::vector<std::string>{"+c1", "+c3", "+c4",
                                                 "+e2:Other", "+e3:Simple"}));
  EXPECT_TRUE(manager_.RebindReplica(1, &fresh).IsInvalidArgument());
  // Later registrations reach the rebound replica.
  ASSERT_TRUE(manager_.Unsubscribe("Other").ok());
  EXPECT_EQ(fresh.log.back(), "-c3");
}

class ManagerPersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("xymon_mgr_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

using ManagerPersistenceTest2 = ManagerPersistenceTest;

TEST_F(ManagerPersistenceTest, SubscriptionsSurviveRestart) {
  std::string path = dir_ / "subs.log";

  // "Process 1": subscribe and drop everything.
  {
    SimClock clock;
    warehouse::Warehouse wh;
    mqp::MonitoringQueryProcessor mqp;
    alerters::UrlAlerter url;
    alerters::XmlAlerter xml;
    alerters::HtmlAlerter html;
    alerters::AlertPipeline pipeline(&url, &xml, &html);
    LocalReplica replica(&mqp, &url, &xml, &html, &pipeline);
    trigger::TriggerEngine te;
    reporter::Outbox outbox;
    query::QueryEngine qe(&wh);
    reporter::Reporter rep(&outbox, &qe);
    SubscriptionManager mgr(SubscriptionManager::Components{
        &te, &rep, &qe, &clock, {&replica}});
    ASSERT_TRUE(mgr.AttachStorage(path).ok());
    ASSERT_TRUE(mgr.Subscribe(kSimpleSub, "a@x").ok());
    ASSERT_TRUE(mgr.Subscribe(kOtherSub, "b@x").ok());
    ASSERT_TRUE(mgr.AddRecipient("Simple", "extra@x").ok());
    ASSERT_TRUE(mgr.Unsubscribe("Other").ok());
  }

  // "Process 2": recover.
  SimClock clock;
  warehouse::Warehouse wh;
  mqp::MonitoringQueryProcessor mqp;
  alerters::UrlAlerter url;
  alerters::XmlAlerter xml;
  alerters::HtmlAlerter html;
  alerters::AlertPipeline pipeline(&url, &xml, &html);
  LocalReplica replica(&mqp, &url, &xml, &html, &pipeline);
  trigger::TriggerEngine te;
  reporter::Outbox outbox;
  query::QueryEngine qe(&wh);
  reporter::Reporter rep(&outbox, &qe);
  SubscriptionManager mgr(SubscriptionManager::Components{
      &te, &rep, &qe, &clock, {&replica}});
  ASSERT_TRUE(mgr.AttachStorage(path).ok());
  EXPECT_EQ(mgr.subscription_count(), 1u);
  EXPECT_EQ(mqp.matcher().size(), 1u);
  EXPECT_EQ(url.condition_count(), 1u);
  // The recovered subscription is live: duplicates rejected.
  EXPECT_TRUE(mgr.Subscribe(kSimpleSub, "a@x").status().IsAlreadyExists());
  // Recipients added before the restart were recovered too.
  EXPECT_TRUE(mgr.AddRecipient("Simple", "extra@x").IsAlreadyExists());
}

TEST_F(ManagerPersistenceTest, UsersSurviveRestart) {
  std::string path = dir_ / "users.log";
  {
    UserRegistry users;
    ASSERT_TRUE(users.AttachStorage(path).ok());
    ASSERT_TRUE(users.AddUser({"bob", "bob@x", true}).ok());
    ASSERT_TRUE(users.AddUser({"eve", "eve@x", false}).ok());
    ASSERT_TRUE(users.SetPrivileged("eve", true).ok());
    ASSERT_TRUE(users.AddUser({"gone", "g@x", false}).ok());
    ASSERT_TRUE(users.RemoveUser("gone").ok());
  }
  UserRegistry users;
  ASSERT_TRUE(users.AttachStorage(path).ok());
  EXPECT_EQ(users.user_count(), 2u);
  ASSERT_TRUE(users.Find("bob").has_value());
  EXPECT_TRUE(users.Find("bob")->privileged);
  EXPECT_TRUE(users.Find("eve")->privileged);
  EXPECT_FALSE(users.Find("gone").has_value());
}

}  // namespace
}  // namespace xymon::manager
