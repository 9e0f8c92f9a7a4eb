#include <gtest/gtest.h>

#include <filesystem>

#include "src/common/rng.h"
#include "src/system/monitor.h"
#include "src/xml/parser.h"
#include "src/webstub/crawler.h"
#include "src/webstub/synthetic_web.h"

namespace xymon::system {
namespace {

// The paper's MyXyleme subscription (§2.2), with reporting tuned small so a
// test exercises the full loop quickly.
constexpr char kMyXyleme[] = R"(
subscription MyXyleme
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://inria.fr/Xy/" and modified self
monitoring
select X
from self//Member X
where URL = "http://inria.fr/Xy/members.xml" and new X
report
when count >= 5
)";

class SystemTest : public ::testing::Test {
 protected:
  SystemTest() : clock_(1000), monitor_(&clock_) {}

  SimClock clock_;
  XylemeMonitor monitor_;
};

TEST_F(SystemTest, MyXylemeEndToEnd) {
  auto sub = monitor_.Subscribe(kMyXyleme, "benjamin@inria.fr");
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();

  // First crawl: pages are new, not modified — only `new Member` can fire,
  // and it needs the members page.
  monitor_.ProcessFetch("http://inria.fr/Xy/index.html", "<page>v1</page>");
  monitor_.ProcessFetch(
      "http://inria.fr/Xy/members.xml",
      "<Members><Member><name>jouglet</name></Member></Members>");
  // New document => every Member is new => 1 notification so far.
  EXPECT_EQ(monitor_.stats().notifications, 1u);

  // Second crawl: index page modified, two new members.
  clock_.Advance(kDay);
  monitor_.ProcessFetch("http://inria.fr/Xy/index.html", "<page>v2</page>");
  monitor_.ProcessFetch(
      "http://inria.fr/Xy/members.xml",
      "<Members><Member><name>jouglet</name></Member>"
      "<Member><name>nguyen</name></Member>"
      "<Member><name>preda</name></Member></Members>");

  // UpdatedPage for both pages + 2 new Members = 4 more notifications,
  // reaching the count >= 5 report threshold exactly.
  EXPECT_EQ(monitor_.stats().notifications, 5u);
  EXPECT_GE(monitor_.reporter().reports_generated(), 1u);
  ASSERT_GE(monitor_.outbox().sent_count(), 1u);

  const reporter::Email* mail = monitor_.outbox().last();
  ASSERT_NE(mail, nullptr);
  EXPECT_EQ(mail->to, "benjamin@inria.fr");
  // Report shape per §2.2: UpdatedPage elements with url attributes and the
  // new Member payloads.
  EXPECT_NE(mail->body.find("UpdatedPage"), std::string::npos);
  EXPECT_NE(mail->body.find("url=\"http://inria.fr/Xy/index.html\""),
            std::string::npos);
  EXPECT_NE(mail->body.find("<Member>"), std::string::npos);
  EXPECT_NE(mail->body.find("nguyen"), std::string::npos);
}

TEST_F(SystemTest, UninterestingPagesRaiseNoAlerts) {
  ASSERT_TRUE(monitor_.Subscribe(kMyXyleme, "u@x").ok());
  monitor_.ProcessFetch("http://elsewhere.org/", "<doc>hello</doc>");
  EXPECT_EQ(monitor_.stats().documents_processed, 1u);
  EXPECT_EQ(monitor_.stats().alerts_raised, 0u);
  EXPECT_EQ(monitor_.stats().notifications, 0u);
}

TEST_F(SystemTest, CatalogMonitoringWithContains) {
  ASSERT_TRUE(monitor_
                  .Subscribe(R"(
subscription Cameras
monitoring
select default
where URL extends "http://shop.example.com/"
  and updated Product contains "camera"
report when immediate
)",
                             "buyer@x")
                  .ok());

  monitor_.ProcessFetch(
      "http://shop.example.com/cat.xml",
      "<catalog><Product><name>camera z1</name><price>100</price></Product>"
      "<Product><name>tv</name><price>500</price></Product></catalog>");
  EXPECT_EQ(monitor_.stats().notifications, 0u);  // New, not updated.

  // Reprice the camera: fires.
  monitor_.ProcessFetch(
      "http://shop.example.com/cat.xml",
      "<catalog><Product><name>camera z1</name><price>90</price></Product>"
      "<Product><name>tv</name><price>500</price></Product></catalog>");
  EXPECT_EQ(monitor_.stats().notifications, 1u);

  // Reprice the tv: does not fire.
  monitor_.ProcessFetch(
      "http://shop.example.com/cat.xml",
      "<catalog><Product><name>camera z1</name><price>90</price></Product>"
      "<Product><name>tv</name><price>450</price></Product></catalog>");
  EXPECT_EQ(monitor_.stats().notifications, 1u);
}

TEST_F(SystemTest, ContinuousQueryOverWarehouse) {
  monitor_.AddDomainRule({"culture", "", "museum", ""});
  ASSERT_TRUE(monitor_
                  .Subscribe(R"(
subscription Art
continuous Paintings
select p/title from culture//painting p
when daily
report when immediate
)",
                             "curator@x")
                  .ok());

  monitor_.ProcessFetch(
      "http://art/rijks.xml",
      "<museum><painting><title>NightWatch</title></painting></museum>");

  clock_.Advance(kDay + 1);
  monitor_.Tick();
  ASSERT_GE(monitor_.reporter().reports_generated(), 1u);
  EXPECT_NE(monitor_.outbox().last()->body.find("NightWatch"),
            std::string::npos);
}

TEST_F(SystemTest, DeltaContinuousQueryReportsOnlyChanges) {
  monitor_.AddDomainRule({"culture", "", "museum", ""});
  ASSERT_TRUE(monitor_
                  .Subscribe(R"(
subscription ArtDelta
continuous delta Paintings
select p/title from culture//painting p
when daily
report when immediate
)",
                             "curator@x")
                  .ok());

  monitor_.ProcessFetch(
      "http://art/m.xml",
      "<museum><painting><title>A</title></painting></museum>");
  clock_.Advance(kDay + 1);
  monitor_.Tick();
  uint64_t after_first = monitor_.reporter().reports_generated();
  EXPECT_GE(after_first, 1u);  // Initial full result.

  // No change: next evaluation must NOT notify.
  clock_.Advance(kDay);
  monitor_.Tick();
  EXPECT_EQ(monitor_.reporter().reports_generated(), after_first);

  // Change: a delta notification arrives.
  monitor_.ProcessFetch(
      "http://art/m.xml",
      "<museum><painting><title>A</title></painting>"
      "<painting><title>B</title></painting></museum>");
  clock_.Advance(kDay);
  monitor_.Tick();
  EXPECT_GT(monitor_.reporter().reports_generated(), after_first);
  EXPECT_NE(monitor_.outbox().last()->body.find("Paintings-delta"),
            std::string::npos);
}

TEST_F(SystemTest, NotificationTriggeredContinuousQuery) {
  // §5.2's XylemeCompetitors: a monitoring query whose notifications
  // re-evaluate a continuous query.
  ASSERT_TRUE(monitor_
                  .Subscribe(R"(
subscription XylemeCompetitors
monitoring ChangeInMyProducts
select default
where URL = "http://www.xyleme.com/products.xml" and modified self
continuous MyCompetitors
select c from market//competitor c
when XylemeCompetitors.ChangeInMyProducts
report when immediate
)",
                             "ceo@xyleme.com")
                  .ok());
  monitor_.AddDomainRule({"market", "", "competitors", ""});
  monitor_.ProcessFetch("http://scan/market.xml",
                        "<competitors><competitor>conquer</competitor>"
                        "</competitors>");
  uint64_t before = monitor_.trigger_engine().firings();

  monitor_.ProcessFetch("http://www.xyleme.com/products.xml", "<p>v1</p>");
  EXPECT_EQ(monitor_.trigger_engine().firings(), before);  // New, not modified.
  monitor_.ProcessFetch("http://www.xyleme.com/products.xml", "<p>v2</p>");
  EXPECT_EQ(monitor_.trigger_engine().firings(), before + 1);
  EXPECT_NE(monitor_.outbox().last()->body.find("conquer"), std::string::npos);
}

TEST_F(SystemTest, VirtualSubscriptionSharesQueries) {
  ASSERT_TRUE(monitor_.Subscribe(kMyXyleme, "owner@x").ok());
  ASSERT_TRUE(monitor_
                  .Subscribe("subscription MyVirtual\n"
                             "virtual MyXyleme.UpdatedPage\n",
                             "guest@x")
                  .ok());
  // Virtual subscriptions add no monitoring machinery (the paper's cost
  // argument §5.4): still 2 complex events and 3 atomic events.
  EXPECT_EQ(monitor_.mqp().matcher().size(), 2u);

  monitor_.ProcessFetch("http://inria.fr/Xy/i.html", "<p>1</p>");
  monitor_.ProcessFetch("http://inria.fr/Xy/i.html", "<p>2</p>");
  // Virtual delivery is immediate (default report spec).
  bool guest_got_mail = false;
  for (const auto& mail : monitor_.outbox().sent()) {
    if (mail.to == "guest@x") guest_got_mail = true;
  }
  EXPECT_TRUE(guest_got_mail);
}

TEST_F(SystemTest, UnsubscribeStopsNotifications) {
  ASSERT_TRUE(monitor_.Subscribe(kMyXyleme, "u@x").ok());
  monitor_.ProcessFetch("http://inria.fr/Xy/i.html", "<p>1</p>");
  monitor_.ProcessFetch("http://inria.fr/Xy/i.html", "<p>2</p>");
  uint64_t before = monitor_.stats().notifications;
  EXPECT_GT(before, 0u);
  ASSERT_TRUE(monitor_.Unsubscribe("MyXyleme").ok());
  monitor_.ProcessFetch("http://inria.fr/Xy/i.html", "<p>3</p>");
  EXPECT_EQ(monitor_.stats().notifications, before);
}

TEST_F(SystemTest, ExplicitDeletionRaisesDeletedEvents) {
  ASSERT_TRUE(monitor_
                  .Subscribe(R"(
subscription Del
monitoring
select default
where URL extends "http://gone.org/" and deleted self
report when immediate
)",
                             "u@x")
                  .ok());
  monitor_.ProcessFetch("http://gone.org/x.xml", "<a/>");
  EXPECT_EQ(monitor_.stats().notifications, 0u);
  ASSERT_TRUE(monitor_.ProcessDeletion("http://gone.org/x.xml").ok());
  EXPECT_EQ(monitor_.stats().notifications, 1u);
}

TEST_F(SystemTest, CrawlerDrivenScenario) {
  webstub::SyntheticWeb web(42);
  web.AddCatalogPage("http://shop.example.com/cat.xml",
                     "http://shop.example.com/dtd/catalog.dtd", 10);
  web.AddMembersPage("http://inria.fr/Xy/members.xml", 4);
  for (int i = 0; i < 5; ++i) {
    web.AddHtmlPage("http://misc.org/p" + std::to_string(i) + ".html");
  }

  ASSERT_TRUE(monitor_
                  .Subscribe(R"(
subscription Watch
monitoring
select default
where URL extends "http://shop.example.com/" and new Product
refresh "http://shop.example.com/cat.xml" hourly
report when count >= 1
)",
                             "u@x")
                  .ok());

  webstub::Crawler crawler(&web, /*default_period=*/kDay);
  monitor_.ApplyRefreshHints(&crawler);
  crawler.DiscoverAll(clock_.Now());

  // Day 0: full crawl — catalog is new, so new Product fires.
  for (const auto& doc : crawler.FetchAllDue(clock_.Now())) {
    monitor_.ProcessFetch(doc);
  }
  monitor_.Tick();
  EXPECT_GE(monitor_.reporter().reports_generated(), 1u);

  // A week of evolution, crawling every hour.
  uint64_t fetches_before = crawler.fetch_count();
  for (int day = 1; day <= 7; ++day) {
    web.Step();
    for (int hour = 0; hour < 24; ++hour) {
      clock_.Advance(kHour);
      for (const auto& doc : crawler.FetchAllDue(clock_.Now())) {
        monitor_.ProcessFetch(doc);
      }
    }
    monitor_.Tick();
  }
  // The hourly refresh hint makes the catalog page fetched far more often
  // than the pages on the daily default (24x vs 1x per day).
  EXPECT_GT(crawler.fetch_count(), fetches_before + 7 * web.page_count());
}

TEST_F(SystemTest, RecoveryAcrossRestart) {
  std::string path = std::filesystem::temp_directory_path() /
                     ("xymon_system_recovery_" + std::to_string(::getpid()));
  std::filesystem::remove(path);
  {
    SimClock clock(0);
    XylemeMonitor::Options options;
    options.storage_path = path;
    XylemeMonitor m1(&clock, options);
    ASSERT_TRUE(m1.Subscribe(kMyXyleme, "u@x").ok());
  }
  SimClock clock(0);
  XylemeMonitor::Options options;
  options.storage_path = path;
  XylemeMonitor m2(&clock, options);
  // Recovered subscription is fully live.
  m2.ProcessFetch("http://inria.fr/Xy/i.html", "<p>1</p>");
  m2.ProcessFetch("http://inria.fr/Xy/i.html", "<p>2</p>");
  EXPECT_GT(m2.stats().notifications, 0u);
  std::filesystem::remove(path);
}

TEST_F(SystemTest, DisjunctiveSubscriptionNotifiesOncePerDocument) {
  ASSERT_TRUE(monitor_
                  .Subscribe(R"(
subscription Either
monitoring
select default
where URL extends "http://a.example.org/" and modified self
   or URL extends "http://overlap.example.org/" and modified self
   or self contains "xyleme"
report when immediate
)",
                             "u@x")
                  .ok());
  // Three disjuncts => three complex events for one query.
  EXPECT_EQ(monitor_.mqp().matcher().size(), 3u);

  // Site A page modified: one notification.
  monitor_.ProcessFetch("http://a.example.org/p.xml", "<p>1</p>");
  EXPECT_EQ(monitor_.stats().notifications, 0u);  // New, not modified.
  monitor_.ProcessFetch("http://a.example.org/p.xml", "<p>2</p>");
  EXPECT_EQ(monitor_.stats().notifications, 1u);

  // A page matching TWO disjuncts (overlap URL + xyleme keyword) must
  // still notify the query only once.
  monitor_.ProcessFetch("http://overlap.example.org/q.xml",
                        "<p>about xyleme</p>");
  EXPECT_EQ(monitor_.stats().notifications, 2u);  // keyword disjunct (new doc)
  monitor_.ProcessFetch("http://overlap.example.org/q.xml",
                        "<p>more about xyleme v2</p>");
  EXPECT_EQ(monitor_.stats().notifications, 3u);  // both disjuncts, one notif
}

// One alert matching N kDefault subscriptions carries one payload: every
// buffered notification holds the same buffer, not an equal copy. Some
// subscriptions match through two disjuncts at once and must still be
// notified once. Counted, not timed. With 4 shard threads the buffer is
// built on a shard thread and released on the gather thread.
TEST_F(SystemTest, OneAlertSharesOnePayloadAcrossSubscriptions) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    SimClock clock(1000);
    XylemeMonitor::Options options;
    options.num_shards = seed % 2 == 0 ? 4 : 1;
    XylemeMonitor monitor(&clock, options);
    Rng rng(seed);
    const size_t n = 5 + rng.Uniform(40);
    size_t disjunctive = 0;
    for (size_t i = 0; i < n; ++i) {
      std::string where =
          "where URL extends \"http://a.example.org/\" and modified self";
      if (rng.Uniform(3) == 0) {
        // A second disjunct the same document satisfies.
        where += "\n   or self contains \"xyleme\"";
        ++disjunctive;
      }
      std::string text = "subscription S" + std::to_string(i) +
                         "\nmonitoring q" + std::to_string(rng.Uniform(3)) +
                         "\nselect default\n" + where +
                         "\nreport when count >= 1000\n";
      ASSERT_TRUE(monitor.Subscribe(text, "u@x").ok()) << text;
    }
    // Subscriptions the document does not match stay empty.
    ASSERT_TRUE(monitor
                    .Subscribe("subscription Elsewhere\nmonitoring q\n"
                               "select default\nwhere URL extends "
                               "\"http://b.example.org/\" and modified self\n"
                               "report when count >= 1000\n",
                               "u@x")
                    .ok());
    EXPECT_EQ(monitor.mqp().matcher().size(), n + disjunctive + 1);

    // New, then modified and about xyleme: one alert satisfying every
    // disjunct.
    monitor.ProcessFetch("http://a.example.org/p.xml", "<p>1</p>");
    monitor.ProcessFetch("http://a.example.org/p.xml", "<p>xyleme 2</p>");
    ASSERT_EQ(monitor.stats().notifications, n) << "seed " << seed;

    const SharedString& payload =
        monitor.reporter().Buffered("S0").at(0).payload_xml;
    ASSERT_FALSE(payload.empty());
    for (size_t i = 0; i < n; ++i) {
      const auto& buffer = monitor.reporter().Buffered("S" + std::to_string(i));
      ASSERT_EQ(buffer.size(), 1u) << "seed " << seed << " S" << i;
      EXPECT_TRUE(buffer[0].payload_xml.SharesWith(payload))
          << "seed " << seed << " S" << i;
    }
    EXPECT_EQ(monitor.reporter().BufferedCount("Elsewhere"), 0u);
  }
}

// A buffered notification owns its names and payload: a virtual
// subscription's buffer keeps (Main, q, payload) after Main is removed, or
// modified so that q no longer exists, and its report still carries them.
TEST_F(SystemTest, BufferedNotificationOutlivesUnsubscribeAndModify) {
  constexpr char kMain[] =
      "subscription Main\nmonitoring q\nselect default\n"
      "where URL extends \"http://a.example.org/\" and modified self\n"
      "report when count >= 1000\n";
  constexpr char kRenamed[] =
      "subscription Main\nmonitoring renamed\nselect default\n"
      "where URL extends \"http://a.example.org/\" and modified self\n"
      "report when count >= 1000\n";
  for (bool modify : {false, true}) {
    SimClock clock(1000);
    XylemeMonitor monitor(&clock);
    ASSERT_TRUE(monitor.Subscribe(kMain, "main@x").ok());
    ASSERT_TRUE(monitor
                    .Subscribe("subscription V\nvirtual Main.q\n"
                               "report when daily\n",
                               "v@x")
                    .ok());
    monitor.ProcessFetch("http://a.example.org/p.xml", "<p>1</p>");
    monitor.ProcessFetch("http://a.example.org/p.xml", "<p>2</p>");
    ASSERT_EQ(monitor.reporter().BufferedCount("V"), 1u);
    const std::string payload =
        monitor.reporter().Buffered("V")[0].payload_xml.str();
    ASSERT_NE(payload.find("http://a.example.org/p.xml"), std::string::npos);

    if (modify) {
      ASSERT_TRUE(monitor.manager().Modify("Main", kRenamed).ok());
      // The renamed query notifies Main, not V.
      monitor.ProcessFetch("http://a.example.org/p.xml", "<p>3</p>");
      EXPECT_EQ(monitor.reporter().BufferedCount("Main"), 1u);
    } else {
      ASSERT_TRUE(monitor.Unsubscribe("Main").ok());
    }

    const auto& buffer = monitor.reporter().Buffered("V");
    ASSERT_EQ(buffer.size(), 1u) << "modify=" << modify;
    EXPECT_EQ(buffer[0].subscription, "Main");
    EXPECT_EQ(buffer[0].query_name, "q");
    EXPECT_EQ(buffer[0].payload_xml, payload);

    clock.Advance(kDay);
    monitor.Tick();
    const reporter::Report* report = monitor.reporter().LastReport("V");
    ASSERT_NE(report, nullptr) << "modify=" << modify;
    EXPECT_NE(report->xml.find("http://a.example.org/p.xml"),
              std::string::npos)
        << report->xml;
    EXPECT_EQ(monitor.reporter().BufferedCount("V"), 0u);
  }
}

TEST_F(SystemTest, WarehousePersistenceKeepsChangeSemanticsAcrossRestart) {
  auto dir = std::filesystem::temp_directory_path();
  std::string subs_path = dir / ("xymon_subs_" + std::to_string(::getpid()));
  std::string wh_path = dir / ("xymon_wh_" + std::to_string(::getpid()));
  std::filesystem::remove(subs_path);
  std::filesystem::remove(wh_path);

  XylemeMonitor::Options options;
  options.storage_path = subs_path;
  options.warehouse_path = wh_path;
  {
    SimClock clock(0);
    XylemeMonitor m1(&clock, options);
    ASSERT_TRUE(m1
                    .Subscribe(R"(
subscription P
monitoring
select default
where URL extends "http://shop.example.org/" and new Product
report when immediate
)",
                               "u@x")
                    .ok());
    m1.ProcessFetch("http://shop.example.org/c.xml",
                    "<c><Product id=\"1\"/></c>");
    EXPECT_EQ(m1.stats().notifications, 1u);
  }
  // Restart: the same page refetched unchanged must NOT count as new —
  // without warehouse persistence it would re-notify.
  SimClock clock(10);
  XylemeMonitor m2(&clock, options);
  m2.ProcessFetch("http://shop.example.org/c.xml",
                  "<c><Product id=\"1\"/></c>");
  EXPECT_EQ(m2.stats().notifications, 0u);
  // A genuinely new product after restart notifies exactly once.
  m2.ProcessFetch("http://shop.example.org/c.xml",
                  "<c><Product id=\"1\"/><Product id=\"2\"/></c>");
  EXPECT_EQ(m2.stats().notifications, 1u);
  std::filesystem::remove(subs_path);
  std::filesystem::remove(wh_path);
}

TEST_F(SystemTest, StatusReportDescribesEveryModule) {
  ASSERT_TRUE(monitor_.Subscribe(kMyXyleme, "u@x").ok());
  monitor_.ProcessFetch("http://inria.fr/Xy/i.html", "<p>1</p>");
  monitor_.ProcessFetch("http://inria.fr/Xy/i.html", "<p>2</p>");

  std::string status = monitor_.StatusReport();
  auto doc = xml::Parse(status);
  ASSERT_TRUE(doc.ok()) << status;
  EXPECT_EQ(doc->root->name(), "XylemeStatus");
  for (const char* section :
       {"DocumentFlow", "Warehouse", "Subscriptions", "MQP", "TriggerEngine",
        "Reporter", "Outbox", "WebPortal"}) {
    EXPECT_NE(doc->root->FindChild(section), nullptr) << section;
  }
  EXPECT_EQ(*doc->root->FindChild("DocumentFlow")->GetAttribute("processed"),
            "2");
  EXPECT_EQ(*doc->root->FindChild("Subscriptions")->GetAttribute("count"),
            "1");
  EXPECT_EQ(*doc->root->FindChild("MQP")->GetAttribute("algorithm"), "aes");
}

}  // namespace
}  // namespace xymon::system
