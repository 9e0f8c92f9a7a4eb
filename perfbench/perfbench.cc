// End-to-end benchmark of the xymon document flow (see NOTES.md).
//
//   perfbench --workload <crawl_mixed|fanout_50k|churn_durable> --seed <n>
//             --seconds <s> --trace <0|1>
//
// One single-threaded process per run: num_shards = 1, inline, no worker
// threads or processes. Load is a closed loop: one caller submits each
// pre-rendered ProcessFetchBatch only after the previous one returned. Page
// rendering and the seed-driven generators run outside every timed region.
//
// The program prints raw samples and counters as one JSON object on its last
// stdout line; run.py turns them into the reported metrics (stats.py).
//
// Every run checks its outputs:
//   * the batch path's counts, delivery actions and mail digest over a prefix
//     of the run equal a replay of the same inputs through per-document
//     ProcessFetch on a second monitor;
//   * on that replay, every alert's AES match set equals the match set of
//     mqp::BruteForceMatcher holding the same complex events;
//   * on the side pass, Apply(old, Diff(old, new)) equals new.
//
// With --trace 1, odd rounds are traced: decorators over the public stage
// seams time ingest, detect, match and resolve; deliver is the remainder of
// the batch wall time. Side passes re-run xml::Parse, xmldiff::Diff, the
// subscription parser and the IPC codec on the same inputs, off the clock.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <ctime>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/clock.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/ipc/wire.h"
#include "src/mqp/aes_matcher.h"
#include "src/mqp/brute_matcher.h"
#include "src/storage/env.h"
#include "src/sublang/parser.h"
#include "src/system/binding_resolver.h"
#include "src/system/monitor.h"
#include "src/webstub/crawler.h"
#include "src/webstub/synthetic_web.h"
#include "src/xml/parser.h"
#include "src/xmldiff/diff.h"

namespace xymon::perfbench {
namespace {

using SteadyClock = std::chrono::steady_clock;
using system::XylemeMonitor;
using webstub::FetchedDoc;

/// CPU time of the calling thread, in microseconds.
double ThreadCpuMicros() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

double MicrosSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double, std::micro>(SteadyClock::now() - t0)
      .count();
}

// -- Workloads ---------------------------------------------------------------

struct PageSpec {
  enum class Kind { kCatalog, kNews, kMembers, kHtml };
  Kind kind;
  std::string url;
  uint32_t size = 0;  // products (catalog) or initial members
  double change_rate = 0.5;
  std::vector<std::string> keywords;
};

struct WorkloadSpec {
  std::string name;
  std::vector<PageSpec> pages;
  /// Registered during set-up, in order.
  std::vector<std::string> subscriptions;
  std::vector<warehouse::DomainClassifier::Rule> domain_rules;
  /// Subscriptions whose continuous query a notification triggers.
  std::set<std::string> triggered;
  size_t batch_size = 100;
  /// A run is a number of episodes, each a fresh monitor driven through
  /// `rounds` timed rounds (every round re-fetches every page). The work is
  /// fixed by --seconds, not by the clock, so state-dependent metrics (peak
  /// RSS, buffered notifications) do not drift with host speed; memory
  /// stays bounded by one episode.
  size_t rounds = 36;
  /// Timed seconds one episode takes on the reference host (NOTES.md):
  /// --seconds / seconds_per_episode episodes, at least one.
  double seconds_per_episode = 4;
  /// Untimed rounds at the start of the first episode, replayed per
  /// document for the check.
  size_t prefix_rounds = 2;
  /// kSubOps Subscribe and kSubOps Unsubscribe calls before every batch,
  /// or else once per round.
  bool ops_per_batch = false;
  /// All four stores durable with an fsync per append (else only the
  /// subscription store, flush-only).
  bool durable_all = false;
  bool tick_every_round = false;
  /// Generator state for the Subscribe calls made during the run.
  size_t generator_sites = 100;
  int generator_kinds = 3;
  int report_count = 100;
};

constexpr size_t kSubOps = 5;
constexpr size_t kCheckpointEvery = 2;  // rounds

const char* kSubWords[] = {"camera",   "museum",   "database", "wireless",
                           "painting", "notebook", "stereo",   "laptop"};
const char* kLastNames[] = {"jouglet", "nguyen", "preda",  "abiteboul",
                            "cobena",  "marian", "mignet", "cluet",
                            "aguilera"};

std::string SiteUrl(size_t site) {
  return "http://site" + std::to_string(site) + ".example.org/";
}

/// bench/bench_pipeline.cpp's subscription generator, with the site range
/// as a parameter (so subscriptions can concentrate on the crawled sites)
/// and an optional fourth kind (`new Member`) for member pages. The
/// generator's own report threshold is 100.
std::string MakeSubscription(uint64_t i, size_t sites, int kinds,
                             int report_count, Rng* rng) {
  std::string text = "subscription S" + std::to_string(i) +
                     "\nmonitoring\nselect default\nwhere URL extends \"" +
                     SiteUrl(rng->Uniform(sites)) + "\"";
  switch (rng->Uniform(static_cast<uint64_t>(kinds))) {
    case 0:
      text += " and new Product";
      break;
    case 1:
      text += std::string(" and updated Product contains \"") +
              kSubWords[rng->Uniform(8)] + "\"";
      break;
    case 2:
      text += std::string(" and article contains \"") +
              kSubWords[rng->Uniform(8)] + "\"";
      break;
    default:
      text += " and new Member";
      break;
  }
  text += "\nreport when count >= " + std::to_string(report_count) + "\n";
  return text;
}

/// A notification-triggered continuous query: every modification on the
/// site re-runs a warehouse query over the roster domain (the member pages
/// of kRosterSites sites). Not `delta`: each evaluation notifies, so batch
/// and per-document runs send the same number of reports (see MailDigest).
std::string MakeContinuousSubscription(size_t i, size_t site) {
  return "subscription Cq" + std::to_string(i) +
         "\nmonitoring Watch\nselect default\nwhere URL extends \"" +
         SiteUrl(site) + "\" and modified self\ncontinuous Roster\n" +
         "select m from roster//Member m where m contains \"" +
         kLastNames[i % 9] + "\"\nwhen Cq" + std::to_string(i) +
         ".Watch\nreport when count >= 5\n";
}

constexpr size_t kRosterSites = 10;

/// Per-seed path segment: page content is a function of the URL, so the
/// seed must reach the URLs for different seeds to render different pages.
std::string SeedPath(uint64_t seed) { return "s" + std::to_string(seed) + "/"; }

/// Stratified heavy-tailed catalog sizes: the i-th of n quantiles of a
/// Pareto(x_min = 20, alpha = 1.1) clipped at 2000, in a fixed shuffled
/// order. Stratifying and fixing the order keep the size mix of every batch
/// (and so the cost per batch) identical across seeds.
std::vector<uint32_t> CatalogSizes(size_t n) {
  std::vector<uint32_t> sizes;
  for (size_t i = 0; i < n; ++i) {
    double u = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    double x = 20.0 * std::pow(1.0 - u, -1.0 / 1.1);
    sizes.push_back(static_cast<uint32_t>(std::min(x, 2000.0)));
  }
  Rng rng(12345);
  for (size_t i = n; i > 1; --i) {
    std::swap(sizes[i - 1], sizes[rng.Uniform(i)]);
  }
  return sizes;
}

// The three workloads. Each layer an optimisation may target does most of
// the work in one workload and little in another; the comment on each says
// which (NOTES.md has the measured shares). Claims are measured on seeds
// 1..10 and must also hold on the hold-out seed 7919.

/// Ingest-bound: parse, diff and detect dominate; match and deliver are a
/// few percent. 150 sites x {catalog, news, members, html} = 600 pages.
WorkloadSpec CrawlMixed(uint64_t seed) {
  WorkloadSpec w;
  w.name = "crawl_mixed";
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  const size_t sites = 150;
  std::vector<uint32_t> sizes = CatalogSizes(sites);
  for (size_t s = 0; s < sites; ++s) {
    std::string base = SiteUrl(s) + SeedPath(seed);
    w.pages.push_back({PageSpec::Kind::kCatalog, base + "catalog.xml",
                       sizes[s], 0.5, {}});
    w.pages.push_back({PageSpec::Kind::kNews, base + "news.xml", 0, 0.7,
                       {kSubWords[s % 8], kSubWords[(s + 3) % 8]}});
    w.pages.push_back({PageSpec::Kind::kMembers, base + "members.xml",
                       static_cast<uint32_t>(20 + s % 41), 0.3, {}});
    w.pages.push_back({PageSpec::Kind::kHtml, base + "index.html", 0, 0.4,
                       {kSubWords[(s + 5) % 8]}});
  }
  for (int i = 0; i < 500; ++i) {
    w.subscriptions.push_back(MakeSubscription(i, sites, 4, 5, &rng));
  }
  w.batch_size = 100;
  w.rounds = 36;  // 6 batches a round: >= 216 batch samples an episode
  w.seconds_per_episode = 3.7;
  w.prefix_rounds = 4;  // long enough for the first reports
  w.generator_sites = sites;
  w.generator_kinds = 4;
  w.report_count = 5;
  return w;
}

/// Notification-bound: 200 small pages that all change every round, and
/// 50,000 subscriptions on the crawled sites, so each alert matches on the
/// order of 100 complex events and match, resolve and deliver dominate.
WorkloadSpec Fanout50k(uint64_t seed) {
  WorkloadSpec w;
  w.name = "fanout_50k";
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 2);
  const size_t sites = 100;
  for (size_t s = 0; s < sites; ++s) {
    std::string base = SiteUrl(s) + SeedPath(seed);
    w.pages.push_back({PageSpec::Kind::kCatalog, base + "c.xml", 20, 1.0, {}});
    w.pages.push_back(
        {PageSpec::Kind::kNews, base + "n.xml", 0, 1.0, {"camera", "museum"}});
  }
  for (int i = 0; i < 50000; ++i) {
    w.subscriptions.push_back(MakeSubscription(i, sites, 3, 100, &rng));
  }
  w.batch_size = 25;
  w.rounds = 28;  // 8 batches a round: >= 224 batch samples an episode
  w.seconds_per_episode = 4.5;
  w.generator_sites = sites;
  w.generator_kinds = 3;
  return w;
}

/// Writes beside reads: every store durable on MemEnv with an fsync per
/// append, Subscribe/Unsubscribe between batches, Tick every round and a
/// checkpoint every other round; notification-triggered continuous queries
/// run the trigger engine and the query engine inside the batch.
WorkloadSpec ChurnDurable(uint64_t seed) {
  WorkloadSpec w;
  w.name = "churn_durable";
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 3);
  const size_t sites = 100;
  for (size_t s = 0; s < sites; ++s) {
    std::string base = SiteUrl(s) + SeedPath(seed);
    w.pages.push_back({PageSpec::Kind::kCatalog, base + "catalog.xml",
                       static_cast<uint32_t>(30 + s % 31), 0.5, {}});
    w.pages.push_back({PageSpec::Kind::kNews, base + "news.xml", 0, 0.7,
                       {kSubWords[s % 8]}});
    w.pages.push_back({PageSpec::Kind::kMembers, base + "members.xml",
                       static_cast<uint32_t>(20 + s % 21), 0.3, {}});
  }
  for (size_t s = 0; s < kRosterSites; ++s) {
    w.domain_rules.push_back(
        {"roster", "", "Members", "//site" + std::to_string(s) + "."});
  }
  const size_t continuous = 36;
  for (size_t i = 0; i < continuous; ++i) {
    w.subscriptions.push_back(
        MakeContinuousSubscription(i, rng.Uniform(sites)));
    w.triggered.insert("Cq" + std::to_string(i));
  }
  for (size_t i = continuous; i < 2000; ++i) {
    w.subscriptions.push_back(MakeSubscription(i, sites, 4, 10, &rng));
  }
  w.batch_size = 50;
  w.rounds = 60;  // 6 batches a round: >= 360 batch samples an episode
  w.seconds_per_episode = 3.6;
  w.ops_per_batch = true;
  w.durable_all = true;
  w.tick_every_round = true;
  w.generator_sites = sites;
  w.generator_kinds = 4;
  w.report_count = 10;
  return w;
}

std::optional<WorkloadSpec> MakeWorkload(const std::string& name,
                                         uint64_t seed) {
  if (name == "crawl_mixed") return CrawlMixed(seed);
  if (name == "fanout_50k") return Fanout50k(seed);
  if (name == "churn_durable") return ChurnDurable(seed);
  return std::nullopt;
}

/// The synthetic web of a workload; Render() fetches every page in URL
/// order (the crawler's deterministic order).
class Web {
 public:
  Web(const WorkloadSpec& spec, uint64_t seed) : web_(seed) {
    for (const PageSpec& p : spec.pages) {
      switch (p.kind) {
        case PageSpec::Kind::kCatalog:
          web_.AddCatalogPage(p.url, p.url.substr(0, p.url.find('/', 8)) +
                                         "/catalog.dtd",
                              p.size, p.change_rate);
          break;
        case PageSpec::Kind::kNews:
          web_.AddNewsPage(p.url, p.keywords, p.change_rate);
          break;
        case PageSpec::Kind::kMembers:
          web_.AddMembersPage(p.url, p.size, p.change_rate);
          break;
        case PageSpec::Kind::kHtml:
          web_.AddHtmlPage(p.url, p.keywords, p.change_rate);
          break;
      }
    }
  }

  void Step() { web_.Step(); }

  std::vector<FetchedDoc> Render() const {
    std::vector<FetchedDoc> docs;
    for (const std::string& url : web_.Urls()) {
      Result<webstub::FetchResponse> r = web_.Fetch(url);
      if (!r.ok()) continue;
      FetchedDoc doc;
      doc.url = url;
      doc.body = std::move(r.value().body);
      docs.push_back(std::move(doc));
    }
    return docs;
  }

 private:
  webstub::SyntheticWeb web_;
};

std::vector<std::vector<FetchedDoc>> SplitBatches(std::vector<FetchedDoc> docs,
                                                  size_t batch_size) {
  std::vector<std::vector<FetchedDoc>> out;
  for (size_t i = 0; i < docs.size(); i += batch_size) {
    size_t end = std::min(docs.size(), i + batch_size);
    out.emplace_back(std::make_move_iterator(docs.begin() + i),
                     std::make_move_iterator(docs.begin() + end));
  }
  return out;
}

// -- Host probe ---------------------------------------------------------------

struct Probe {
  double compute_ms = 0;
  double chase_ns = 0;
};

/// A fixed compute loop and a dependent pointer chase over 16 MB. Printed
/// beside the metrics (never gated) so host drift can be told apart from a
/// regression.
Probe HostProbe() {
  Probe p;
  auto t0 = SteadyClock::now();
  uint64_t x = 0x2545f4914f6cdd1dull;
  for (int i = 0; i < 20000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  p.compute_ms = MicrosSince(t0) / 1000.0;

  const uint32_t n = 4u << 20;
  std::vector<uint32_t> next(n);
  for (uint32_t i = 0; i < n; ++i) next[i] = i;
  Rng rng(77);
  for (uint32_t i = n - 1; i > 0; --i) {  // Sattolo: one cycle over all
    std::swap(next[i], next[rng.Uniform(i)]);
  }
  const int steps = 2000000;
  uint32_t at = 0;
  t0 = SteadyClock::now();
  for (int i = 0; i < steps; ++i) at = next[at];
  p.chase_ns = MicrosSince(t0) * 1000.0 / steps;
  if ((x ^ at) == 1) fprintf(stderr, " ");  // keep both loops live
  return p;
}

// -- Trace: decorators over the stage seams -----------------------------------

/// Counters of one run; the traced fields only move on traced rounds.
struct Layers {
  bool tracing = false;  // set per round
  // Seams.
  double ingest_us = 0, detect_us = 0, match_us = 0, resolve_us = 0;
  double bookkeeping_us = 0;
  uint64_t ingest_docs = 0, changed_docs = 0;
  uint64_t detect_docs = 0, alerts = 0, events = 0;
  uint64_t matches = 0, cells = 0;
  uint64_t actions = 0, payload_bytes = 0;
  uint64_t reports = 0, report_bytes = 0;
  // Batches of traced / untraced rounds.
  double traced_wall_us = 0, untraced_wall_us = 0;
  uint64_t traced_docs = 0, untraced_docs = 0;
  // Side passes.
  double parse_us = 0;
  uint64_t parse_bytes = 0, nodes = 0;
  double diff_us = 0, diff_max_us = 0;
  uint64_t changes = 0, max_siblings = 0;
  double encode_us = 0, decode_us = 0;
  uint64_t ipc_bytes = 0, ipc_docs = 0;
  double sublang_us = 0;
  uint64_t sublang_subs = 0;
  // Storage.
  int64_t storage_doc_bytes = 0, storage_op_bytes = 0;
  uint64_t storage_ops = 0;
  /// Actions of the current batch by URL, for the IPC side pass.
  std::unordered_map<std::string, std::vector<system::DeliveryAction>>
      batch_actions;
};

/// One alert seen by the match stage: the check compares these between the
/// measured (batched) monitor and the per-document replay.
struct AlertRecord {
  uint64_t docid = 0;
  std::string url;
  mqp::EventSet events;
  std::vector<mqp::ComplexEventId> matched;  // sorted

  bool operator==(const AlertRecord&) const = default;
};

/// The AES matcher, checked against the brute-force oracle on every Match.
/// Output (and its order) is the AES matcher's, so a monitor using it
/// delivers exactly what a plain one does.
class CheckedMatcher : public mqp::Matcher {
 public:
  Status Insert(mqp::ComplexEventId id, const mqp::EventSet& events) override {
    Status st = aes_.Insert(id, events);
    return st.ok() ? brute_.Insert(id, events) : st;
  }
  Status Erase(mqp::ComplexEventId id) override {
    Status st = aes_.Erase(id);
    Status oracle = brute_.Erase(id);
    return st.ok() ? oracle : st;
  }
  void Match(const mqp::EventSet& s,
             std::vector<mqp::ComplexEventId>* out) const override {
    size_t before = out->size();
    aes_.Match(s, out);
    std::vector<mqp::ComplexEventId> got(out->begin() + before, out->end());
    std::vector<mqp::ComplexEventId> want;
    brute_.Match(s, &want);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ++checked;
    if (got != want) ++mismatches;
  }
  size_t size() const override { return aes_.size(); }
  size_t MemoryUsage() const override { return aes_.MemoryUsage(); }
  const mqp::MatchStats& stats() const override { return aes_.stats(); }
  const char* name() const override { return "aes-checked"; }

  mutable uint64_t checked = 0;
  mutable uint64_t mismatches = 0;

 private:
  mqp::AesMatcher aes_;
  mqp::BruteForceMatcher brute_;
};

class TracedIngest : public system::IngestStage {
 public:
  TracedIngest(std::unique_ptr<system::IngestStage> inner, Layers* layers)
      : inner_(std::move(inner)), layers_(layers) {}

  warehouse::IngestResult Ingest(const warehouse::FetchedContent& page,
                                 Timestamp now, uint64_t docid) override {
    if (!layers_->tracing) return inner_->Ingest(page, now, docid);
    auto t0 = SteadyClock::now();
    warehouse::IngestResult r = inner_->Ingest(page, now, docid);
    layers_->ingest_us += MicrosSince(t0);
    ++layers_->ingest_docs;
    if (r.meta.status == warehouse::DocStatus::kNew ||
        r.meta.status == warehouse::DocStatus::kUpdated) {
      ++layers_->changed_docs;
    }
    return r;
  }

  Result<warehouse::IngestResult> Delete(const std::string& url,
                                         Timestamp now) override {
    return inner_->Delete(url, now);
  }

 private:
  std::unique_ptr<system::IngestStage> inner_;
  Layers* layers_;
};

class TracedDetect : public system::DetectStage {
 public:
  TracedDetect(std::unique_ptr<system::DetectStage> inner, Layers* layers)
      : inner_(std::move(inner)), layers_(layers) {}

  std::optional<mqp::AlertMessage> Detect(const warehouse::IngestResult& ingest,
                                          std::string_view raw) override {
    if (!layers_->tracing) return inner_->Detect(ingest, raw);
    auto t0 = SteadyClock::now();
    std::optional<mqp::AlertMessage> alert = inner_->Detect(ingest, raw);
    layers_->detect_us += MicrosSince(t0);
    ++layers_->detect_docs;
    if (alert.has_value()) {
      ++layers_->alerts;
      layers_->events += alert->events.size();
    }
    return alert;
  }

 private:
  std::unique_ptr<system::DetectStage> inner_;
  Layers* layers_;
};

/// Times the match stage when tracing, and records every alert while
/// `recording` is set (the prefix of the run the check replays).
class TracedMatch : public system::MatchStage {
 public:
  TracedMatch(std::unique_ptr<system::MatchStage> inner,
              const mqp::MonitoringQueryProcessor* mqp, Layers* layers)
      : inner_(std::move(inner)), mqp_(mqp), layers_(layers) {}

  void Match(const mqp::AlertMessage& alert,
             std::vector<mqp::MqpNotification>* out) override {
    size_t before = out->size();
    if (layers_ != nullptr && layers_->tracing) {
      uint64_t cells = mqp_->matcher().stats().cells_visited;
      auto t0 = SteadyClock::now();
      inner_->Match(alert, out);
      layers_->match_us += MicrosSince(t0);
      layers_->matches += out->size() - before;
      layers_->cells += mqp_->matcher().stats().cells_visited - cells;
    } else {
      inner_->Match(alert, out);
    }
    if (recording) {
      AlertRecord rec{alert.docid, alert.url, alert.events, {}};
      for (size_t i = before; i < out->size(); ++i) {
        rec.matched.push_back((*out)[i].complex_event);
      }
      std::sort(rec.matched.begin(), rec.matched.end());
      records.push_back(std::move(rec));
    }
  }

  bool recording = false;
  std::vector<AlertRecord> records;

 private:
  std::unique_ptr<system::MatchStage> inner_;
  const mqp::MonitoringQueryProcessor* mqp_;
  Layers* layers_;
};

/// Stage 4a: a BindingResolver over the monitor's manager. Times it when
/// tracing, and digests the deliverable actions in submission order while
/// `recording` is set.
class TracedResolver : public system::NotifyResolver {
 public:
  TracedResolver(const manager::SubscriptionManager* manager, Layers* layers)
      : inner_(manager), layers_(layers) {}

  void Resolve(const warehouse::IngestResult& ingest,
               const std::vector<mqp::MqpNotification>& matches,
               system::DocOutcome* out) const override {
    size_t before = out->actions.size();
    if (layers_ == nullptr || !layers_->tracing) {
      inner_.Resolve(ingest, matches, out);
    } else {
      auto t0 = SteadyClock::now();
      inner_.Resolve(ingest, matches, out);
      auto t1 = SteadyClock::now();
      layers_->resolve_us +=
          std::chrono::duration<double, std::micro>(t1 - t0).count();
      std::vector<system::DeliveryAction>& keep =
          layers_->batch_actions[ingest.meta.url];
      for (size_t i = before; i < out->actions.size(); ++i) {
        const system::DeliveryAction& a = out->actions[i];
        ++layers_->actions;
        layers_->payload_bytes += a.payload_xml.size();
        keep.push_back(a);
      }
      layers_->bookkeeping_us += MicrosSince(t1);
    }
    if (recording) {
      for (size_t i = before; i < out->actions.size(); ++i) {
        const system::DeliveryAction& a = out->actions[i];
        digest = HashCombine(digest, static_cast<uint64_t>(a.kind));
        digest = HashCombine(digest, Fnv1a(a.subscription));
        digest = HashCombine(digest, Fnv1a(a.query_name));
        digest = HashCombine(digest, Fnv1a(a.payload_xml));
        digest = HashCombine(digest, Fnv1a(a.event_key));
        ++recorded;
      }
    }
  }

  bool recording = false;
  mutable uint64_t digest = kFnvOffset;
  mutable uint64_t recorded = 0;

 private:
  system::BindingResolver inner_;
  Layers* layers_;
};

// -- The system under test ----------------------------------------------------

constexpr Timestamp kStart = 1000000;
/// setup_s is the median of this many set-ups at least; runs with fewer
/// episodes add set-ups of throwaway monitors.
constexpr size_t kMinSetups = 3;

/// One monitor with its clock, MemEnv and subscription bookkeeping.
struct System {
  SimClock clock{kStart};
  storage::MemEnv env;
  /// Installed as the monitor's stage-4a resolver; declared first so it
  /// outlives the monitor.
  std::unique_ptr<TracedResolver> resolver;
  std::unique_ptr<XylemeMonitor> monitor;
  /// Generator subscriptions in subscription order; Unsubscribe takes the
  /// oldest (continuous-query subscriptions are never removed).
  std::deque<std::string> live;
  uint64_t next_sub = 0;
  Rng op_rng{1};
  TracedMatch* match = nullptr;       // owned by the monitor's shard
  CheckedMatcher* checked = nullptr;  // replay monitor only; owned likewise
};

struct Counts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for stderr

  void Fail(uint64_t n, const std::string& what) {
    failed += n;
    if (failures.size() < 8) failures.push_back(what);
  }
};

XylemeMonitor::Options MonitorOptions(const WorkloadSpec& spec,
                                      storage::Env* env) {
  XylemeMonitor::Options o;
  o.num_shards = 1;
  o.shard_mode = system::ShardMode::kInline;
  o.env = env;
  o.storage_path = "db/subscriptions";
  if (spec.durable_all) {
    o.warehouse_path = "db/warehouse";
    o.user_registry_path = "db/users";
    o.outbox_path = "db/outbox";
    o.storage_fsync_every_n = 1;
  }
  return o;
}

/// Builds a monitor, registers the workload's subscriptions and runs the
/// warm-up round (batched, or per document for the replay monitor). Returns
/// the wall time in seconds; rendering happened before.
double SetUp(const WorkloadSpec& spec, uint64_t seed,
             const std::vector<FetchedDoc>& warmup, bool per_document,
             bool checked_matcher, Layers* layers, System* sys,
             Counts* counts) {
  auto t0 = SteadyClock::now();
  sys->monitor = std::make_unique<XylemeMonitor>(
      &sys->clock, MonitorOptions(spec, &sys->env));
  XylemeMonitor& m = *sys->monitor;
  if (!m.storage_status().ok()) {
    counts->Fail(1, "storage: " + m.storage_status().ToString());
  }
  system::PipelineShard& shard = m.pipeline().shard(0);
  if (checked_matcher) {
    auto matcher = std::make_unique<CheckedMatcher>();
    sys->checked = matcher.get();
    shard.mqp = mqp::MonitoringQueryProcessor(std::move(matcher));
  }
  if (layers != nullptr) {
    shard.ingest_stage =
        std::make_unique<TracedIngest>(std::move(shard.ingest_stage), layers);
    shard.detect_stage =
        std::make_unique<TracedDetect>(std::move(shard.detect_stage), layers);
  }
  sys->resolver = std::make_unique<TracedResolver>(&m.manager(), layers);
  sys->resolver->recording = true;
  m.pipeline().set_resolver(sys->resolver.get());
  auto match = std::make_unique<TracedMatch>(std::move(shard.match_stage),
                                             &shard.mqp, layers);
  sys->match = match.get();
  sys->match->recording = true;  // the warm-up round is part of the prefix
  shard.match_stage = std::move(match);

  for (const auto& rule : spec.domain_rules) m.AddDomainRule(rule);
  for (const std::string& text : spec.subscriptions) {
    Result<std::string> name = m.Subscribe(text, "user@example.org");
    ++counts->attempted;
    if (!name.ok()) {
      counts->Fail(1, "subscribe: " + name.status().ToString());
    } else if (name.value()[0] == 'S') {
      sys->live.push_back(name.value());
    }
  }
  sys->next_sub = spec.subscriptions.size();
  sys->op_rng = Rng(seed * 31 + 7);

  if (per_document) {
    for (const FetchedDoc& doc : warmup) m.ProcessFetch(doc);
  } else {
    for (size_t i = 0; i < warmup.size(); i += spec.batch_size) {
      std::vector<FetchedDoc> batch(
          warmup.begin() + i,
          warmup.begin() + std::min(warmup.size(), i + spec.batch_size));
      m.ProcessFetchBatch(batch);
    }
  }
  counts->attempted += warmup.size();
  return MicrosSince(t0) / 1e6;
}

uint64_t EnvBytes(storage::MemEnv* env) {
  uint64_t total = 0;
  for (const std::string& f : env->ListFiles()) {
    Result<uint64_t> size = env->GetFileSize(f);
    if (size.ok()) total += size.value();
  }
  return total;
}

struct OpLog {
  std::vector<double> subscribe_us, unsubscribe_us;
  std::vector<std::string> results;  // names / statuses, compared in replay
};

/// kSubOps Subscribe then kSubOps Unsubscribe calls, each timed: what a
/// user waits for while the document flow is quiesced.
void SubscriptionOps(const WorkloadSpec& spec, System* sys, Layers* layers,
                     OpLog* log, Counts* counts) {
  XylemeMonitor& m = *sys->monitor;
  bool trace_storage = layers != nullptr && layers->tracing;
  uint64_t bytes_before = trace_storage ? EnvBytes(&sys->env) : 0;
  for (size_t i = 0; i < kSubOps; ++i) {
    std::string text =
        MakeSubscription(sys->next_sub++, spec.generator_sites,
                         spec.generator_kinds, spec.report_count, &sys->op_rng);
    auto t0 = SteadyClock::now();
    Result<std::string> name = m.Subscribe(text, "user@example.org");
    log->subscribe_us.push_back(MicrosSince(t0));
    ++counts->attempted;
    if (name.ok()) {
      sys->live.push_back(name.value());
      log->results.push_back(name.value());
    } else {
      counts->Fail(1, "subscribe: " + name.status().ToString());
      log->results.push_back(name.status().ToString());
    }
  }
  for (size_t i = 0; i < kSubOps && !sys->live.empty(); ++i) {
    std::string name = sys->live.front();
    sys->live.pop_front();
    auto t0 = SteadyClock::now();
    Status st = m.Unsubscribe(name);
    log->unsubscribe_us.push_back(MicrosSince(t0));
    ++counts->attempted;
    log->results.push_back(st.ToString());
    if (!st.ok()) counts->Fail(1, "unsubscribe: " + st.ToString());
  }
  if (trace_storage) {
    layers->storage_op_bytes +=
        static_cast<int64_t>(EnvBytes(&sys->env)) -
        static_cast<int64_t>(bytes_before);
    layers->storage_ops += 2 * kSubOps;
  }
}

/// Digest of every e-mail sent so far: each subscription's report stream in
/// order, the streams folded in subscription order. Interleaving across
/// subscriptions (and so the outbox seq numbers) is left out, and for
/// subscriptions with a notification-triggered continuous query only the
/// envelope is digested: DESIGN.md ("Trigger timing") evaluates those
/// queries at the post-batch barrier, so a per-document replay evaluates
/// them at other points, and their results and the place of their reports
/// in the outbox legitimately differ (see NOTES.md).
uint64_t MailDigest(const reporter::Outbox& outbox,
                    const std::set<std::string>& triggered) {
  std::map<std::string, uint64_t> streams;
  for (const reporter::Email& e : outbox.sent()) {
    auto [it, fresh] = streams.emplace(e.subject, kFnvOffset);
    uint64_t& h = it->second;
    h = HashCombine(h, Fnv1a(e.to));
    if (triggered.count(e.subject.substr(e.subject.rfind(' ') + 1)) == 0) {
      h = HashCombine(h, Fnv1a(e.body));
    }
    h = HashCombine(h, static_cast<uint64_t>(e.time));
  }
  uint64_t h = kFnvOffset;
  for (const auto& [subject, stream] : streams) {
    h = HashCombine(HashCombine(h, Fnv1a(subject)), stream);
  }
  return h;
}

// -- Side passes --------------------------------------------------------------

size_t MaxSiblings(const xml::Node& node) {
  size_t best = node.child_count();
  for (size_t i = 0; i < node.child_count(); ++i) {
    best = std::max(best, MaxSiblings(*node.child(i)));
  }
  return best;
}

/// Re-runs parse and diff on the bodies the warehouse parsed (new or changed
/// ones) and checks Apply(old, Diff(old, new)) == new. `last` holds each
/// URL's previous body. Timed only when `timed`.
void ParseDiffPass(const std::vector<FetchedDoc>& docs,
                   std::unordered_map<std::string, std::string>* last,
                   bool timed, Layers* layers, Counts* counts) {
  for (const FetchedDoc& doc : docs) {
    auto it = last->find(doc.url);
    bool seen = it != last->end();
    if (seen && it->second == doc.body) continue;
    auto t0 = SteadyClock::now();
    Result<xml::Document> parsed = xml::Parse(doc.body);
    double parse_us = MicrosSince(t0);
    if (timed) {
      layers->parse_us += parse_us;
      layers->parse_bytes += doc.body.size();
    }
    if (parsed.ok() && seen) {
      Result<xml::Document> old = xml::Parse(it->second);
      if (old.ok()) {
        xmldiff::XidAllocator alloc;
        alloc.AssignAll(old.value().root.get());
        xml::Document& now = parsed.value();
        auto t1 = SteadyClock::now();
        xmldiff::DiffResult diff =
            xmldiff::Diff(*old.value().root, now.root.get(), &alloc);
        double diff_us = MicrosSince(t1);
        if (timed) {
          layers->diff_us += diff_us;
          layers->diff_max_us = std::max(layers->diff_max_us, diff_us);
          layers->changes += diff.changes.size();
          layers->max_siblings = std::max<uint64_t>(
              layers->max_siblings, MaxSiblings(*old.value().root));
        }
        Result<std::unique_ptr<xml::Node>> applied =
            xmldiff::Apply(*old.value().root, diff.delta);
        ++counts->attempted;
        if (!applied.ok() ||
            !applied.value()->EqualsIgnoringXids(*now.root)) {
          counts->Fail(1, "Apply(old, Diff(old, new)) != new for " + doc.url);
        }
      }
    }
    if (timed && parsed.ok()) {
      uint64_t n = 0;
      parsed.value().root->VisitPostorder([&n](const xml::Node&) { ++n; });
      layers->nodes += n;
    }
    (*last)[doc.url] = doc.body;
  }
}

/// What the excluded process mode would pay on the wire: encode and decode
/// each document's SlotMsg and its SlotResultMsg.
void IpcPass(const std::vector<FetchedDoc>& docs, Timestamp now,
             Layers* layers, Counts* counts) {
  for (size_t slot = 0; slot < docs.size(); ++slot) {
    const FetchedDoc& doc = docs[slot];
    ipc::SlotMsg job;
    job.batch = 1;
    job.slot = static_cast<uint32_t>(slot);
    job.now = now;
    job.url = doc.url;
    job.body = doc.body;
    ipc::SlotResultMsg result;
    result.batch = 1;
    result.slot = job.slot;
    result.processed = 1;
    auto found = layers->batch_actions.find(doc.url);
    if (found != layers->batch_actions.end()) {
      result.alert = 1;
      for (const system::DeliveryAction& a : found->second) {
        result.actions.push_back({static_cast<uint8_t>(a.kind), a.subscription,
                                  a.query_name, a.payload_xml, a.event_key});
      }
    }
    auto t0 = SteadyClock::now();
    std::string job_wire = job.Encode();
    std::string result_wire = result.Encode();
    auto t1 = SteadyClock::now();
    ipc::SlotMsg job_back;
    ipc::SlotResultMsg result_back;
    // Decode takes the payload after its leading MsgType byte.
    Status a = ipc::SlotMsg::Decode(std::string_view(job_wire).substr(1),
                                    &job_back);
    Status b = ipc::SlotResultMsg::Decode(
        std::string_view(result_wire).substr(1), &result_back);
    auto t2 = SteadyClock::now();
    layers->encode_us +=
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    layers->decode_us +=
        std::chrono::duration<double, std::micro>(t2 - t1).count();
    layers->ipc_bytes += job_wire.size() + result_wire.size();
    ++layers->ipc_docs;
    ++counts->attempted;
    if (!a.ok() || !b.ok() || job_back.body != doc.body ||
        result_back.actions.size() != result.actions.size()) {
      counts->Fail(1, "ipc round trip of " + doc.url);
    }
  }
}

// -- Rounds -------------------------------------------------------------------

/// The measured monitor's observable state at the end of the prefix.
struct Snapshot {
  XylemeMonitor::Stats stats;
  uint64_t sent = 0;
  uint64_t last_seq = 0;
  uint64_t mail_digest = 0;
  uint64_t action_digest = 0;
  uint64_t actions = 0;
  std::vector<std::string> op_results;
};

/// Timed samples of the measured rounds.
struct Samples {
  std::vector<double> batch_us, ckpt_us;
  /// Thread CPU time inside the timed batches: against their wall time it
  /// shows how long the host kept the process off the CPU.
  double batch_cpu_us = 0;
  uint64_t docs = 0;
};

/// One round of the closed loop on `sys`: subscription ops (before every
/// batch, or once after the round), the batches in order (or the same
/// documents one ProcessFetch at a time), Tick, and a checkpoint every
/// kCheckpointEvery rounds. Records timings into `samples` when given.
void PlayRound(const WorkloadSpec& spec, size_t round,
               std::vector<FetchedDoc> docs, bool per_document, System* sys,
               Layers* layers, OpLog* ops, Counts* counts, Samples* samples) {
  XylemeMonitor& m = *sys->monitor;
  const bool tracing = layers != nullptr && layers->tracing;
  for (auto& batch : SplitBatches(std::move(docs), spec.batch_size)) {
    if (spec.ops_per_batch) SubscriptionOps(spec, sys, layers, ops, counts);
    counts->attempted += batch.size();
    if (per_document) {
      for (const FetchedDoc& doc : batch) m.ProcessFetch(doc);
      continue;
    }
    uint64_t env_before = tracing ? EnvBytes(&sys->env) : 0;
    if (tracing) layers->batch_actions.clear();
    double cpu0 = ThreadCpuMicros();
    auto t0 = SteadyClock::now();
    m.ProcessFetchBatch(batch);
    double us = MicrosSince(t0);
    if (samples == nullptr) continue;
    samples->batch_cpu_us += ThreadCpuMicros() - cpu0;
    samples->batch_us.push_back(us);
    samples->docs += batch.size();
    if (tracing) {
      layers->traced_wall_us += us;
      layers->traced_docs += batch.size();
      layers->storage_doc_bytes += static_cast<int64_t>(EnvBytes(&sys->env)) -
                                   static_cast<int64_t>(env_before);
      IpcPass(batch, sys->clock.Now(), layers, counts);
    } else if (layers != nullptr) {
      layers->untraced_wall_us += us;
      layers->untraced_docs += batch.size();
    }
  }
  if (!spec.ops_per_batch) SubscriptionOps(spec, sys, layers, ops, counts);
  if (spec.tick_every_round) m.Tick();
  if (round % kCheckpointEvery == 0) {
    auto t0 = SteadyClock::now();
    Status st = m.CheckpointStorage();
    double us = MicrosSince(t0);
    if (samples != nullptr) samples->ckpt_us.push_back(us);
    ++counts->attempted;
    if (!st.ok()) counts->Fail(1, "checkpoint: " + st.ToString());
  }
}

// -- JSON output --------------------------------------------------------------

class Json {
 public:
  void Key(const char* k) {
    Sep();
    out_ += '"';
    out_ += k;
    out_ += "\":";
    fresh_ = true;
  }
  void Num(double v) {
    Sep();
    char buf[64];
    snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
  }
  void Num(const char* k, double v) {
    Key(k);
    Num(v);
  }
  void Str(const char* k, const std::string& v) {
    Key(k);
    Sep();
    out_ += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += (c == '\n' || c == '\t') ? ' ' : c;
    }
    out_ += '"';
  }
  void Array(const char* k, const std::vector<double>& v) {
    Key(k);
    Open('[');
    for (double x : v) Num(x);
    Close(']');
  }
  void Open(char c) {
    Sep();
    out_ += c;
    fresh_ = true;
  }
  void Close(char c) {
    out_ += c;
    fresh_ = false;
  }
  const std::string& str() const { return out_; }

 private:
  void Sep() {
    if (!fresh_) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// -- The run ------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      args->workload = v;
    } else if (k == "--seed") {
      args->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      args->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      args->trace = v == "1";
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

/// The output check: replays the first episode's warm-up and prefix rounds
/// through per-document ProcessFetch on a second monitor whose matcher is
/// checked against the brute-force oracle, and compares what the measured
/// monitor `a` observed at the end of the prefix.
void CheckPrefix(const WorkloadSpec& spec, uint64_t seed,
                 const std::vector<FetchedDoc>& warmup,
                 const std::vector<std::vector<FetchedDoc>>& replay_rounds,
                 const Snapshot& prefix, const System& a, Counts* counts) {
  System b;
  Counts replay_counts;
  SetUp(spec, seed, warmup, /*per_document=*/true,
        /*checked_matcher=*/true, nullptr, &b, &replay_counts);
  OpLog replay_ops;
  for (size_t r = 1; r <= spec.prefix_rounds; ++r) {
    b.clock.Advance(kHour);
    PlayRound(spec, r, replay_rounds[r - 1], /*per_document=*/true, &b,
              nullptr, &replay_ops, &replay_counts, nullptr);
  }
  uint64_t prefix_docs = warmup.size();
  for (const auto& round : replay_rounds) prefix_docs += round.size();
  XylemeMonitor& bm = *b.monitor;
  if (replay_counts.failed > 0) {
    counts->Fail(replay_counts.failed, "replay: operations failed");
  }
  if (!(bm.stats() == prefix.stats)) {
    counts->Fail(prefix_docs, "replay: monitor stats differ");
  }
  if (b.resolver->digest != prefix.action_digest ||
      b.resolver->recorded != prefix.actions) {
    counts->Fail(prefix_docs, "replay: delivery actions differ");
  }
  if (bm.outbox().sent_count() != prefix.sent ||
      MailDigest(bm.outbox(), spec.triggered) != prefix.mail_digest) {
    counts->Fail(prefix_docs, "replay: mail digest differs");
    // Name the first subscription whose report stream differs.
    std::map<std::string, std::vector<const reporter::Email*>> want_mail,
        got_mail;
    for (const auto& e : a.monitor->outbox().sent()) {
      if (e.seq <= prefix.last_seq) want_mail[e.subject].push_back(&e);
    }
    for (const auto& e : bm.outbox().sent()) {
      got_mail[e.subject].push_back(&e);
    }
    for (const auto& [subject, mails] : got_mail) {
      const auto& other = want_mail[subject];
      if (other.size() != mails.size()) {
        fprintf(stderr,
                "perfbench: %s: %zu reports batched, %zu per document\n",
                subject.c_str(), other.size(), mails.size());
        break;
      }
    }
  }
  if (replay_ops.results != prefix.op_results) {
    counts->Fail(replay_ops.results.size(), "replay: subscription ops differ");
  }
  const std::vector<AlertRecord>& want = a.match->records;
  const std::vector<AlertRecord>& got = b.match->records;
  if (want.size() != got.size()) {
    counts->Fail(std::max(want.size(), got.size()),
                "matcher: alert count differs (" +
                    std::to_string(want.size()) + " vs " +
                    std::to_string(got.size()) + ")");
  } else {
    uint64_t bad = 0;
    for (size_t i = 0; i < want.size(); ++i) bad += !(want[i] == got[i]);
    if (bad > 0) counts->Fail(bad, "replay: alerts or match sets differ");
  }
  if (b.checked->mismatches > 0) {
    counts->Fail(b.checked->mismatches,
                "matcher: AES and brute-force match sets differ");
  }
  if (want.empty() || prefix.actions == 0 || b.checked->checked == 0) {
    counts->Fail(1, "check: the prefix raised no alert or action");
  }
  fprintf(stderr,
          "perfbench: check prefix docs=%" PRIu64 " alerts=%zu actions=%" PRIu64
          " mails=%" PRIu64 "\n",
          prefix_docs, want.size(), prefix.actions, prefix.sent);
}

int Run(const Args& args) {
  std::optional<WorkloadSpec> found = MakeWorkload(args.workload, args.seed);
  if (!found.has_value()) {
    fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *found;
  const size_t episodes = std::max<size_t>(
      1, static_cast<size_t>(args.seconds / spec.seconds_per_episode + 0.5));

  Probe probe_before = HostProbe();
  Counts counts;
  Layers layers;
  Samples samples;
  OpLog ops;
  std::vector<double> setup_s;
  uint64_t mails = 0;
  if (args.trace) {
    auto t0 = SteadyClock::now();
    for (const std::string& text : spec.subscriptions) {
      if (!sublang::ParseSubscription(text).ok()) {
        counts.Fail(1, "sublang parse");
      }
    }
    layers.sublang_us = MicrosSince(t0);
    layers.sublang_subs = spec.subscriptions.size();
  }

  for (size_t e = episodes; e < kMinSetups; ++e) {
    Web web(spec, args.seed);
    System throwaway;
    setup_s.push_back(SetUp(spec, args.seed, web.Render(),
                            /*per_document=*/false, /*checked_matcher=*/false,
                            nullptr, &throwaway, &counts));
  }
  for (size_t e = 0; e < episodes; ++e) {
    // Each episode evolves its own web from the seed, on a fresh monitor.
    Web web(spec, HashCombine(args.seed, e));
    const std::vector<FetchedDoc> warmup = web.Render();
    System a;
    setup_s.push_back(SetUp(spec, args.seed, warmup, /*per_document=*/false,
                            /*checked_matcher=*/false,
                            args.trace ? &layers : nullptr, &a, &counts));
    XylemeMonitor& m = *a.monitor;
    if (args.trace) {
      m.outbox().set_send_hook([&layers](const reporter::Email& email) {
        if (layers.tracing) {
          ++layers.reports;
          layers.report_bytes += email.body.size();
        }
        return true;
      });
    }
    std::unordered_map<std::string, std::string> last_body;
    ParseDiffPass(warmup, &last_body, /*timed=*/false, &layers, &counts);

    // The first episode starts with the prefix the check replays; its
    // rounds are not timed.
    const size_t prefix_rounds = e == 0 ? spec.prefix_rounds : 0;
    Snapshot prefix;
    std::vector<std::vector<FetchedDoc>> replay_rounds;
    a.match->recording = a.resolver->recording = prefix_rounds > 0;
    for (size_t r = 1; r <= prefix_rounds + spec.rounds; ++r) {
      web.Step();
      a.clock.Advance(kHour);
      std::vector<FetchedDoc> docs = web.Render();
      const bool in_prefix = r <= prefix_rounds;
      layers.tracing = args.trace && !in_prefix && r % 2 == 1;
      if (in_prefix) replay_rounds.push_back(docs);
      if (layers.tracing || in_prefix) {
        ParseDiffPass(docs, &last_body, layers.tracing, &layers, &counts);
      } else {
        for (const FetchedDoc& d : docs) last_body[d.url] = d.body;
      }
      OpLog prefix_ops;
      PlayRound(spec, r, std::move(docs), /*per_document=*/false, &a, &layers,
                in_prefix ? &prefix_ops : &ops, &counts,
                in_prefix ? nullptr : &samples);
      prefix.op_results.insert(prefix.op_results.end(),
                               prefix_ops.results.begin(),
                               prefix_ops.results.end());
      if (r == prefix_rounds) {
        a.match->recording = a.resolver->recording = false;
        prefix.stats = m.stats();
        prefix.sent = m.outbox().sent_count();
        prefix.last_seq =
            m.outbox().sent().empty() ? 0 : m.outbox().sent().back().seq;
        prefix.mail_digest = MailDigest(m.outbox(), spec.triggered);
        prefix.action_digest = a.resolver->digest;
        prefix.actions = a.resolver->recorded;
      }
    }
    layers.tracing = false;

    // No faults are injected, so any failed or degraded document is a bug.
    const XylemeMonitor::Stats& st = m.stats();
    if (st.failed_documents + st.degraded_documents > 0) {
      counts.Fail(st.failed_documents + st.degraded_documents,
                  "failed/degraded documents");
    }
    mails += m.outbox().sent_count();
    if (prefix_rounds > 0) {
      CheckPrefix(spec, args.seed, warmup, replay_rounds, prefix, a, &counts);
    }
  }

  Probe probe_after = HostProbe();
  double peak_rss_mb = PeakRssMb();
  for (const std::string& f : counts.failures) {
    fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  }

  Json j;
  j.Open('{');
  j.Str("workload", spec.name);
  j.Num("seed", static_cast<double>(args.seed));
  j.Num("episodes", static_cast<double>(episodes));
  j.Num("rounds", static_cast<double>(episodes * spec.rounds));
  j.Num("docs_timed", static_cast<double>(samples.docs));
  j.Num("mails", static_cast<double>(mails));
  j.Num("batch_cpu_us", samples.batch_cpu_us);
  j.Num("attempted", static_cast<double>(counts.attempted));
  j.Num("failed", static_cast<double>(counts.failed));
  j.Num("peak_rss_mb", peak_rss_mb);
  j.Array("setup_s", setup_s);
  j.Array("batch_us", samples.batch_us);
  j.Array("sub_op_us", [&] {
    std::vector<double> v = ops.subscribe_us;
    v.insert(v.end(), ops.unsubscribe_us.begin(), ops.unsubscribe_us.end());
    return v;
  }());
  j.Array("subscribe_us", ops.subscribe_us);
  j.Array("unsubscribe_us", ops.unsubscribe_us);
  j.Array("ckpt_us", samples.ckpt_us);
  j.Key("probe");
  j.Open('{');
  j.Num("compute_ms_before", probe_before.compute_ms);
  j.Num("compute_ms_after", probe_after.compute_ms);
  j.Num("chase_ns_before", probe_before.chase_ns);
  j.Num("chase_ns_after", probe_after.chase_ns);
  j.Close('}');
  if (args.trace) {
    const Layers& l = layers;
    j.Key("layers");
    j.Open('{');
    j.Num("ingest_us", l.ingest_us);
    j.Num("detect_us", l.detect_us);
    j.Num("match_us", l.match_us);
    j.Num("resolve_us", l.resolve_us);
    j.Num("bookkeeping_us", l.bookkeeping_us);
    j.Num("ingest_docs", static_cast<double>(l.ingest_docs));
    j.Num("changed_docs", static_cast<double>(l.changed_docs));
    j.Num("detect_docs", static_cast<double>(l.detect_docs));
    j.Num("alerts", static_cast<double>(l.alerts));
    j.Num("events", static_cast<double>(l.events));
    j.Num("matches", static_cast<double>(l.matches));
    j.Num("cells", static_cast<double>(l.cells));
    j.Num("actions", static_cast<double>(l.actions));
    j.Num("payload_bytes", static_cast<double>(l.payload_bytes));
    j.Num("reports", static_cast<double>(l.reports));
    j.Num("report_bytes", static_cast<double>(l.report_bytes));
    j.Num("traced_wall_us", l.traced_wall_us);
    j.Num("traced_docs", static_cast<double>(l.traced_docs));
    j.Num("untraced_wall_us", l.untraced_wall_us);
    j.Num("untraced_docs", static_cast<double>(l.untraced_docs));
    j.Num("parse_us", l.parse_us);
    j.Num("parse_bytes", static_cast<double>(l.parse_bytes));
    j.Num("nodes", static_cast<double>(l.nodes));
    j.Num("diff_us", l.diff_us);
    j.Num("diff_max_us", l.diff_max_us);
    j.Num("changes", static_cast<double>(l.changes));
    j.Num("max_siblings", static_cast<double>(l.max_siblings));
    j.Num("encode_us", l.encode_us);
    j.Num("decode_us", l.decode_us);
    j.Num("ipc_bytes", static_cast<double>(l.ipc_bytes));
    j.Num("ipc_docs", static_cast<double>(l.ipc_docs));
    j.Num("sublang_us", l.sublang_us);
    j.Num("sublang_subs", static_cast<double>(l.sublang_subs));
    j.Num("storage_doc_bytes", static_cast<double>(l.storage_doc_bytes));
    j.Num("storage_op_bytes", static_cast<double>(l.storage_op_bytes));
    j.Num("storage_ops", static_cast<double>(l.storage_ops));
    j.Close('}');
  }
  j.Close('}');
  printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace
}  // namespace xymon::perfbench

int main(int argc, char** argv) {
  xymon::perfbench::Args args;
  if (!xymon::perfbench::ParseArgs(argc, argv, &args)) {
    fprintf(stderr,
            "usage: perfbench --workload <name> --seed <n> --seconds <s> "
            "--trace <0|1>\n");
    return 2;
  }
  return xymon::perfbench::Run(args);
}
