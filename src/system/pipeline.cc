#include "src/system/pipeline.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <utility>

#include "src/common/hash.h"
#include "src/ipc/wire.h"
#include "src/system/stage_faults.h"
#include "src/system/worker_proxy.h"
#include "src/xml/parser.h"

namespace xymon::system {

namespace {

using steady = std::chrono::steady_clock;

uint64_t MicrosSince(steady::time_point t0, steady::time_point t1) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count());
}

// Default stage adapters: thin seams over the shard's own components.

class WarehouseIngestStage : public IngestStage {
 public:
  explicit WarehouseIngestStage(warehouse::Warehouse* warehouse)
      : warehouse_(warehouse) {}

  warehouse::IngestResult Ingest(const warehouse::FetchedContent& page,
                                 Timestamp now,
                                 uint64_t preassigned_docid) override {
    return warehouse_->Ingest(page, now, preassigned_docid);
  }

  Result<warehouse::IngestResult> Delete(const std::string& url,
                                         Timestamp now) override {
    return warehouse_->MarkDeleted(url, now);
  }

 private:
  warehouse::Warehouse* warehouse_;
};

class AlerterDetectStage : public DetectStage {
 public:
  explicit AlerterDetectStage(const alerters::AlertPipeline* pipeline)
      : pipeline_(pipeline) {}

  std::optional<mqp::AlertMessage> Detect(
      const warehouse::IngestResult& ingest, std::string_view raw_body)
      override {
    return pipeline_->BuildAlert(ingest, raw_body);
  }

 private:
  const alerters::AlertPipeline* pipeline_;
};

class MqpMatchStage : public MatchStage {
 public:
  explicit MqpMatchStage(const mqp::MonitoringQueryProcessor* mqp)
      : mqp_(mqp) {}

  void Match(const mqp::AlertMessage& alert,
             std::vector<mqp::MqpNotification>* out) override {
    mqp_->Process(alert, out);
  }

 private:
  const mqp::MonitoringQueryProcessor* mqp_;
};

}  // namespace

const char* ShardHealthName(ShardHealth health) {
  switch (health) {
    case ShardHealth::kHealthy:
      return "healthy";
    case ShardHealth::kDegraded:
      return "degraded";
    case ShardHealth::kQuarantined:
      return "quarantined";
    case ShardHealth::kRestarting:
      return "restarting";
  }
  return "unknown";
}

PipelineShard::PipelineShard(const warehouse::DomainClassifier* classifier)
    : warehouse(classifier),
      alert_pipeline(&url_alerter, &xml_alerter, &html_alerter),
      replica(&mqp, &url_alerter, &xml_alerter, &html_alerter,
              &alert_pipeline),
      ingest_stage(std::make_unique<WarehouseIngestStage>(&warehouse)),
      detect_stage(std::make_unique<AlerterDetectStage>(&alert_pipeline)),
      match_stage(std::make_unique<MqpMatchStage>(&mqp)) {}

// Aggregated read view over every shard's warehouse, re-sorted by DOCID —
// with centrally allocated ids that is submission order, so continuous
// queries see the same binding order at every shard count and on every
// substrate (one shard, N threads, N worker processes — the RemoteSource
// below promises the same order). The single-shard warehouse iterates its
// entries in hash order, which only coincides with submission order by
// accident; sorting here is what makes the order a contract.
class IngestPipeline::ShardedSource : public warehouse::DocumentSource {
 public:
  explicit ShardedSource(
      const std::vector<std::unique_ptr<PipelineShard>>* shards)
      : shards_(shards) {}

  std::vector<std::pair<const warehouse::DocMeta*, const xml::Document*>>
  DocumentsInDomain(std::string_view domain) const override {
    std::vector<std::pair<const warehouse::DocMeta*, const xml::Document*>>
        out;
    for (const auto& shard : *shards_) {
      auto part = shard->warehouse.DocumentsInDomain(domain);
      out.insert(out.end(), part.begin(), part.end());
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.first->docid < b.first->docid;
    });
    return out;
  }

 private:
  const std::vector<std::unique_ptr<PipelineShard>>* shards_;
};

// Process-mode read view: the documents live in the worker processes, so a
// continuous-query collection is a kQueryDomain RPC to every worker, the
// returned documents re-parsed (Parse∘Serialize is a fixpoint — lossless)
// into supervisor-owned storage, merged DOCID-ordered. A down worker
// contributes nothing — the query degrades to the live partitions, exactly
// like a quarantined shard's slots degrade to Unavailable.
class IngestPipeline::RemoteSource : public warehouse::DocumentSource {
 public:
  explicit RemoteSource(IngestPipeline* pipeline) : pipeline_(pipeline) {}

  std::vector<std::pair<const warehouse::DocMeta*, const xml::Document*>>
  DocumentsInDomain(std::string_view domain) const override {
    // Pointers handed out by the previous call die here. The contract
    // matches the warehouse's (valid until the next mutation); the query
    // engine consumes them within one evaluation under the monitor's API
    // serialization.
    cache_.clear();
    const std::string domain_str(domain);
    for (auto& proxy : pipeline_->proxies_) {
      Result<ipc::DomainDocsMsg> result = proxy->QueryDomain(domain_str);
      if (!result.ok()) continue;  // worker down: degrade to live partitions
      for (auto& doc : result->docs) {
        auto parsed = xml::Parse(doc.doc_xml);
        if (!parsed.ok()) continue;
        auto owned = std::make_unique<OwnedDoc>();
        owned->document = std::move(parsed.value());
        owned->document.doctype_name = doc.doctype_name;
        owned->document.dtd_url = doc.dtd_url;
        warehouse::DocMeta& m = owned->meta;
        m.docid = doc.meta.docid;
        m.url = std::move(doc.meta.url);
        m.filename = std::move(doc.meta.filename);
        m.is_xml = doc.meta.is_xml != 0;
        m.doctype_name = std::move(doc.meta.doctype_name);
        m.dtd_url = std::move(doc.meta.dtd_url);
        m.dtdid = doc.meta.dtdid;
        m.domain = std::move(doc.meta.domain);
        m.last_accessed = doc.meta.last_accessed;
        m.last_updated = doc.meta.last_updated;
        m.signature = doc.meta.signature;
        m.status = static_cast<warehouse::DocStatus>(doc.meta.status);
        cache_.push_back(std::move(owned));
      }
    }
    std::sort(cache_.begin(), cache_.end(),
              [](const auto& a, const auto& b) {
                return a->meta.docid < b->meta.docid;
              });
    std::vector<std::pair<const warehouse::DocMeta*, const xml::Document*>>
        out;
    out.reserve(cache_.size());
    for (const auto& owned : cache_) {
      out.emplace_back(&owned->meta, &owned->document);
    }
    return out;
  }

 private:
  struct OwnedDoc {
    warehouse::DocMeta meta;
    xml::Document document;
  };

  IngestPipeline* pipeline_;
  mutable std::vector<std::unique_ptr<OwnedDoc>> cache_;
};

std::unique_ptr<PipelineShard> IngestPipeline::MakeShard() {
  auto shard = std::make_unique<PipelineShard>(classifier_);
  shard->warehouse.set_max_parse_failures(options_.max_parse_failures_per_url);
  if (options_.num_shards > 1) {
    shard->warehouse.set_dtd_registry(&dtd_registry_);
  }
  if (options_.stage_faults != nullptr) {
    shard->ingest_stage = std::make_unique<FaultyIngestStage>(
        std::move(shard->ingest_stage), options_.stage_faults);
    shard->detect_stage = std::make_unique<FaultyDetectStage>(
        std::move(shard->detect_stage), options_.stage_faults);
    shard->match_stage = std::make_unique<FaultyMatchStage>(
        std::move(shard->match_stage), options_.stage_faults);
  }
  return shard;
}

IngestPipeline::IngestPipeline(const Options& options,
                               const warehouse::DomainClassifier* classifier)
    : options_(options), classifier_(classifier) {
  options_.num_shards = std::max<size_t>(1, options.num_shards);
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(MakeShard());
  }
  sharded_source_ = std::make_unique<ShardedSource>(&shards_);
  if (options_.shard_mode == ShardMode::kProcess) {
    SpawnWorkers();
  } else if (options_.num_shards > 1) {
    for (auto& shard : shards_) {
      shard->worker = std::thread(&IngestPipeline::WorkerLoop, this,
                                  shard.get());
    }
  }
}

void IngestPipeline::SpawnWorkers() {
  ipc::HelloMsg hello;
  hello.num_shards = static_cast<uint32_t>(shards_.size());
  hello.max_parse_failures = options_.max_parse_failures_per_url;
  if (options_.stage_faults != nullptr) {
    for (const StageFaultSpec& f : options_.stage_faults->plan().faults) {
      ipc::WireFault wf;
      wf.stage = static_cast<uint8_t>(f.stage);
      wf.kind = static_cast<uint8_t>(f.kind);
      wf.nth = f.nth;
      wf.stall_ms = f.stall_ms;
      wf.url = f.url;
      hello.faults.push_back(std::move(wf));
    }
  }

  proxies_.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    ShardWorkerProxy::Supervision sup;
    sup.dtd_id_for = [this](const std::string& dtd_url) {
      return dtd_registry_.IdFor(dtd_url);
    };
    sup.on_down = [this](size_t shard_index, const std::string&) {
      QuarantineShard(shard_index);
    };
    proxies_.push_back(
        std::make_unique<ShardWorkerProxy>(i, options_, std::move(sup)));
    proxies_[i]->set_counter_shard(shards_[i].get());
    hello.shard_index = static_cast<uint32_t>(i);
    Status st = proxies_[i]->Spawn(hello);
    if (!st.ok()) {
      // The ctor cannot fail: the shard starts quarantined, the owner reads
      // worker_status() before going live.
      if (worker_status_.ok()) worker_status_ = st;
      QuarantineShard(i);
    }
  }
  remote_source_ = std::make_unique<RemoteSource>(this);
}

void IngestPipeline::QuarantineShard(size_t index) {
  PipelineShard& shard = *shards_[index];
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.health = ShardHealth::kQuarantined;
}

IngestPipeline::~IngestPipeline() {
  for (auto& proxy : proxies_) {
    proxy->Shutdown();
  }
  for (auto& shard : shards_) {
    if (!shard->worker.joinable()) continue;
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->stop = true;
    }
    shard->cv.notify_all();
    shard->worker.join();
  }
}

size_t IngestPipeline::ShardFor(std::string_view url) const {
  return shards_.size() == 1 ? 0 : Fnv1a(url) % shards_.size();
}

manager::DetectionReplica* IngestPipeline::replica(size_t i) {
  if (process_mode()) return proxies_[i].get();
  return &shards_[i]->replica;
}

const warehouse::DocumentSource* IngestPipeline::document_source() const {
  if (remote_source_ != nullptr) return remote_source_.get();
  return sharded_source_.get();
}

uint64_t IngestPipeline::AssignDocid(const DocJob& job) {
  if (job.deletion) return 0;
  auto [it, inserted] = docids_.emplace(job.url, next_docid_);
  if (inserted) ++next_docid_;
  return it->second;
}

void ProcessDocJob(PipelineShard& shard, const DocJob& job,
                   uint64_t docid_hint, Timestamp now,
                   const NotifyResolver* resolver, DocOutcome* outp) {
  DocOutcome& out = *outp;
  StageCounters ingest_delta, detect_delta, match_delta, notify_delta;

  // Containment: a stage that throws fails this document, not the process.
  auto guarded = [&](const char* stage_name, auto&& fn) -> bool {
    try {
      fn();
      return true;
    } catch (const std::exception& e) {
      out.failed = true;
      out.failed_stage = stage_name;
      out.status = Status::Unavailable(std::string(stage_name) +
                                       " stage failed: " + e.what());
      return false;
    } catch (...) {
      out.failed = true;
      out.failed_stage = stage_name;
      out.status = Status::Unavailable(std::string(stage_name) +
                                       " stage failed: unknown exception");
      return false;
    }
  };

  auto t0 = steady::now();
  warehouse::IngestResult ingest;
  bool skip_rest = false;
  bool ok = guarded("ingest", [&] {
    if (job.deletion) {
      Result<warehouse::IngestResult> deleted =
          shard.ingest_stage->Delete(job.url, now);
      if (deleted.ok()) {
        out.processed = true;
        ingest = std::move(deleted.value());
      } else {
        out.status = deleted.status();
        skip_rest = true;
      }
    } else {
      ingest = shard.ingest_stage->Ingest({job.url, job.body}, now,
                                          docid_hint);
      out.processed = true;
      if (ingest.degraded) {
        out.degraded = true;
        skip_rest = true;
      }
    }
  });
  auto t1 = steady::now();
  ingest_delta = {1, MicrosSince(t0, t1)};

  std::optional<mqp::AlertMessage> alert;
  if (ok && !skip_rest) {
    ok = guarded("detect", [&] {
      alert = shard.detect_stage->Detect(
          ingest, job.deletion ? std::string_view() : job.body);
    });
    auto t2 = steady::now();
    detect_delta = {1, MicrosSince(t1, t2)};

    if (ok && alert.has_value()) {
      out.alert = true;
      std::vector<mqp::MqpNotification> matches;
      ok = guarded("match", [&] { shard.match_stage->Match(*alert, &matches); });
      auto t3 = steady::now();
      match_delta = {1, MicrosSince(t2, t3)};

      if (ok && !matches.empty() && resolver != nullptr) {
        ok = guarded("notify",
                     [&] { resolver->Resolve(ingest, matches, &out); });
        // Atomicity: a half-resolved document delivers nothing.
        if (!ok) out.actions.clear();
        notify_delta = {1, MicrosSince(t3, steady::now())};
      }
    }
  }

  std::lock_guard<std::mutex> lock(shard.mutex);
  auto merge = [](StageCounters* into, const StageCounters& delta) {
    into->documents += delta.documents;
    into->micros += delta.micros;
  };
  merge(&shard.ingest_counts, ingest_delta);
  merge(&shard.detect_counts, detect_delta);
  merge(&shard.match_counts, match_delta);
  merge(&shard.notify_counts, notify_delta);
}

void IngestPipeline::RunLocal(PipelineShard& shard, ShardWorkItem& item,
                              bool stopping) const {
  if (item.kind == ShardWorkItem::Kind::kCheckpoint) {
    // Dispatch order makes this a batch boundary: every document scattered
    // before the marker has already been processed. Only this shard's later
    // documents wait for the checkpoint; other shards keep going.
    item.ticket->Complete(stopping ? Status::Unavailable("shard restarting")
                                   : shard.warehouse.CheckpointStorage());
    return;
  }
  BatchState& bs = *item.batch;
  bool skip = stopping;
  if (!skip) {
    std::lock_guard<std::mutex> lock(bs.mutex);
    skip = bs.abandoned;
  }
  DocOutcome out;
  if (!skip) {
    ProcessDocJob(shard, bs.jobs[item.slot], item.docid_hint, item.now,
                  resolver_, &out);
  }
  // An abandoned batch's owner is long gone; publishing only releases the
  // slot (the BatchState lives as long as any queued item references it).
  bs.Publish(item.slot, std::move(out));
}

void IngestPipeline::WorkerLoop(PipelineShard* shard) {
  std::deque<ShardWorkItem> batch;
  bool stopping = false;
  while (true) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(shard->mutex);
      shard->cv.wait(lock,
                     [shard] { return shard->stop || !shard->queue.empty(); });
      stopping = shard->stop;
      if (shard->queue.empty()) return;  // stop requested, nothing queued
      batch.swap(shard->queue);
    }
    // The swap emptied the queue: wake any scatter blocked on backpressure.
    shard->cv.notify_all();
    for (ShardWorkItem& item : batch) RunLocal(*shard, item, stopping);
  }
}

bool IngestPipeline::IsQuarantined(size_t index) const {
  std::lock_guard<std::mutex> lock(shards_[index]->mutex);
  return shards_[index]->health == ShardHealth::kQuarantined;
}

void IngestPipeline::MarkStuck(size_t index) {
  PipelineShard& shard = *shards_[index];
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.health != ShardHealth::kQuarantined) {
    shard.health = ShardHealth::kQuarantined;
    ++shard.deadline_failures;
  }
}

Status IngestPipeline::Dispatch(size_t index, ShardWorkItem item,
                                steady::time_point deadline) {
  const bool document = item.kind == ShardWorkItem::Kind::kDocument;
  // Worker process: the item crosses the wire. A marker rides the same
  // socket as the slots, so it lands exactly at a batch boundary.
  if (process_mode()) {
    ShardWorkerProxy& proxy = *proxies_[index];
    return document ? proxy.SendSlot(item.batch, batch_seq_, item.slot,
                                     item.docid_hint, item.now)
                    : proxy.SendCheckpoint(std::move(item.ticket));
  }
  PipelineShard& shard = *shards_[index];
  // One local shard: run it now, on the caller thread — no hop.
  if (shards_.size() == 1) {
    RunLocal(shard, item, /*stopping=*/false);
    return Status::OK();
  }
  // Worker threads: enqueue on the shard's queue.
  {
    std::unique_lock<std::mutex> lock(shard.mutex);
    const size_t limit = options_.queue_high_water_limit;
    if (document && limit > 0 && shard.queue.size() >= limit) {
      // Backpressure: block until the worker drains. With a deadline the
      // wait is bounded; a timeout is a watchdog verdict on the shard.
      ++shard.backpressure_waits;
      auto space = [&shard, limit] { return shard.queue.size() < limit; };
      if (!shard.cv.wait_until(lock, deadline, space)) {
        return Status::DeadlineExceeded(
            "batch deadline blown waiting for queue space on shard " +
            std::to_string(index));
      }
    }
    shard.queue.push_back(std::move(item));
    if (document) {
      shard.queue_high_water =
          std::max<uint64_t>(shard.queue_high_water, shard.queue.size());
    }
  }
  shard.cv.notify_one();
  return Status::OK();
}

void IngestPipeline::ProcessBatch(std::vector<DocJob>&& jobs, Timestamp now,
                                  DeliverySink* sink,
                                  std::vector<DocOutcome>* outcomes_out) {
  auto state = std::make_shared<BatchState>();
  state->jobs = std::move(jobs);
  const size_t n = state->jobs.size();
  ++batches_;
  ++batch_seq_;
  documents_ += n;
  state->outcomes.resize(n);
  state->done.assign(n, 0);
  state->remaining = n;

  // No deadline configured = one that never comes.
  const steady::time_point deadline =
      options_.batch_deadline_ms > 0
          ? steady::now() + std::chrono::milliseconds(options_.batch_deadline_ms)
          : steady::time_point::max();

  // Scatter: pre-assign DOCIDs in submission order (what a 1-shard pipeline
  // would allocate sequentially), then hand each job to the shard owning its
  // URL — unless the URL is poisoned or the shard is down. A slot that never
  // reaches a shard is published failed here, so the barrier counts every
  // slot exactly once.
  auto fail_slot = [&state](size_t i, const char* stage, Status st) {
    DocOutcome out;
    out.failed = true;
    out.failed_stage = stage;
    out.status = std::move(st);
    state->Publish(i, std::move(out));
  };
  for (size_t i = 0; i < n; ++i) {
    const DocJob& job = state->jobs[i];
    const uint64_t hint = AssignDocid(job);
    if (poisoned_.count(job.url) != 0) {
      ++poison_rejections_;
      fail_slot(i, "poisoned",
                Status::ResourceExhausted(
                    job.url + " quarantined after repeated stage failures"));
      continue;
    }
    const size_t idx = ShardFor(job.url);
    if (IsQuarantined(idx)) {
      fail_slot(i, "shard",
                Status::Unavailable("shard " + std::to_string(idx) +
                                    " quarantined"));
      continue;
    }
    ShardWorkItem item;
    item.batch = state;
    item.slot = i;
    item.docid_hint = hint;
    item.now = now;
    Status st = Dispatch(idx, std::move(item), deadline);
    if (st.ok()) continue;
    if (st.code() == StatusCode::kDeadlineExceeded) {
      // No queue space before the deadline, or the write into a full socket
      // buffer timed out (the worker stopped reading — a wedge; the
      // heartbeat timeout turns it into a SIGKILL and a restart).
      MarkStuck(idx);
      ++deadline_exceeded_;
      fail_slot(i, "deadline", std::move(st));
    } else {
      // Worker down; its death path already quarantined the shard.
      fail_slot(i, "shard", std::move(st));
    }
  }

  // Barrier: wait until every slot is accounted for — or, with a deadline,
  // until the watchdog gives up. Abandoning the batch under state->mutex
  // makes late shards discard their results instead of writing into a
  // vector the gather is about to move out of. Without a deadline a worker
  // process cannot hang it either: a wedged worker trips the heartbeat
  // timeout, gets SIGKILLed, and the proxy's death path fails its slots.
  std::vector<DocOutcome> outcomes;
  std::set<size_t> stuck_shards;
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    auto drained = [&state] { return state->remaining == 0; };
    if (!state->cv.wait_until(lock, deadline, drained)) {
      state->abandoned = true;
      for (size_t i = 0; i < n; ++i) {
        if (state->done[i]) continue;
        state->outcomes[i].failed = true;
        state->outcomes[i].failed_stage = "deadline";
        state->outcomes[i].status =
            Status::DeadlineExceeded("batch deadline exceeded (" +
                                     std::to_string(options_.batch_deadline_ms) +
                                     "ms)");
        ++deadline_exceeded_;
        stuck_shards.insert(ShardFor(state->jobs[i].url));
      }
    }
    outcomes = std::move(state->outcomes);
  }
  for (size_t idx : stuck_shards) MarkStuck(idx);

  // Ordered gather: deliver in submission-slot order, independent of which
  // shard finished first.
  if (sink != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      sink->Deliver(state->jobs[i], outcomes[i]);
    }
  }
  UpdateBatchAccounting(state->jobs, outcomes);
  if (outcomes_out != nullptr) *outcomes_out = std::move(outcomes);
}

void IngestPipeline::UpdateBatchAccounting(
    const std::vector<DocJob>& jobs, const std::vector<DocOutcome>& outcomes) {
  std::vector<uint64_t> failures(shards_.size(), 0);
  std::vector<uint8_t> touched(shards_.size(), 0);
  for (size_t i = 0; i < jobs.size(); ++i) {
    const DocOutcome& o = outcomes[i];
    size_t idx = ShardFor(jobs[i].url);
    touched[idx] = 1;
    if (o.failed) {
      ++failed_documents_;
      // Pipeline-level failures (poison/deadline/shard-down) are not the
      // document's fault: they neither advance its poison count nor degrade
      // the shard's health here (the watchdog already quarantined it).
      if (o.failed_stage == "poisoned" || o.failed_stage == "deadline" ||
          o.failed_stage == "shard") {
        continue;
      }
      ++failures[idx];
      if (options_.max_stage_failures_per_url > 0 &&
          ++fail_counts_[jobs[i].url] >=
              options_.max_stage_failures_per_url) {
        poisoned_.insert(jobs[i].url);
      }
    } else if (o.processed) {
      // A clean pass resets the URL's consecutive-failure count.
      fail_counts_.erase(jobs[i].url);
    }
  }
  for (size_t idx = 0; idx < shards_.size(); ++idx) {
    if (failures[idx] == 0 && touched[idx] == 0) continue;
    PipelineShard& shard = *shards_[idx];
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (failures[idx] > 0) {
      shard.stage_failures += failures[idx];
      shard.last_failure_batch = batches_;
      if (shard.health == ShardHealth::kHealthy) {
        shard.health = ShardHealth::kDegraded;
      }
    } else if (shard.health == ShardHealth::kDegraded &&
               batches_ - shard.last_failure_batch >=
                   options_.health_recovery_batches) {
      shard.health = ShardHealth::kHealthy;
    }
  }
}

void IngestPipeline::HarvestPartition(const warehouse::Warehouse& recovered) {
  // The central URL → DOCID map (ids are centrally assigned at every shard
  // count) and the shared DTD registry, rebuilt from what the partition
  // persisted.
  recovered.ForEachMeta([this](const warehouse::DocMeta& meta) {
    docids_[meta.url] = meta.docid;
    next_docid_ = std::max(next_docid_, meta.docid + 1);
  });
  if (shards_.size() > 1) {
    for (const auto& [dtd_url, id] : recovered.dtd_ids()) {
      dtd_registry_.Seed(dtd_url, id);
    }
  }
}

Status IngestPipeline::AttachStorageHub(storage::StorageHub* hub) {
  if (hub->partition_count() != shards_.size()) {
    return Status::InvalidArgument(
        "pipeline has " + std::to_string(shards_.size()) +
        " shards but the storage hub opened " +
        std::to_string(hub->partition_count()) + " partitions");
  }
  if (process_mode() && hub->log_options().env != nullptr) {
    return Status::InvalidArgument(
        "process mode needs partitions on the real filesystem (a custom "
        "Env cannot cross a process boundary)");
  }
  hub_ = hub;
  for (size_t i = 0; i < shards_.size(); ++i) {
    // In process mode the workers own the partitions: recover each through
    // a throwaway warehouse only to harvest it, and cache the worker's
    // starting document count (refreshed by every SlotResult).
    std::optional<warehouse::Warehouse> scratch;
    warehouse::Warehouse& recovered =
        process_mode() ? scratch.emplace(classifier_)
                       : shards_[i]->warehouse;
    XYMON_RETURN_IF_ERROR(recovered.AttachStore(hub->partition(i)));
    HarvestPartition(recovered);
    if (process_mode()) {
      proxies_[i]->set_document_count(recovered.document_count());
    }
  }
  if (!process_mode()) return Status::OK();

  // The workers own the partition files from here on; each opens its own
  // exclusively and recovers from it (now, and again on every respawn).
  hub->ReleasePartitions();
  Status first_error;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const bool was_alive = proxies_[i]->alive();
    Status st = proxies_[i]->SendOpenPartition(
        hub->partition_file_path(i), hub->log_options().fsync_every_n,
        hub->auto_checkpoint_bytes());
    // A dead worker still records the command for its respawn; its error
    // is not ours to fail on (the shard is quarantined and heals through
    // the restart path).
    if (!st.ok() && was_alive && first_error.ok()) first_error = st;
  }
  return first_error;
}

std::shared_ptr<CheckpointTicket> IngestPipeline::CheckpointWarehousesAsync() {
  auto ticket = std::make_shared<CheckpointTicket>();
  ticket->remaining_ = shards_.size();
  for (size_t i = 0; i < shards_.size(); ++i) {
    // A wedged or dead shard would never drain the marker. Its partition is
    // exactly what the upcoming restart rebuilds from — skip it.
    if (IsQuarantined(i)) {
      ticket->Complete(
          Status::Unavailable("shard quarantined; partition checkpoint skipped"));
      continue;
    }
    ShardWorkItem marker;
    marker.kind = ShardWorkItem::Kind::kCheckpoint;
    marker.ticket = ticket;
    Status st = Dispatch(i, std::move(marker), steady::time_point::max());
    if (!st.ok()) ticket->Complete(st);
  }
  return ticket;
}

bool IngestPipeline::has_unhealthy_shards() const {
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (IsQuarantined(i)) return true;
  }
  return false;
}

Status IngestPipeline::RestartShard(size_t index) {
  if (index >= shards_.size()) {
    return Status::InvalidArgument("no shard " + std::to_string(index));
  }
  PipelineShard& old = *shards_[index];
  {
    std::lock_guard<std::mutex> lock(old.mutex);
    old.health = ShardHealth::kRestarting;
    old.stop = true;
  }
  old.cv.notify_all();
  // The join bounds the teardown: the worker drains its queue (leftover
  // checkpoint markers complete with Unavailable, leftover documents belong
  // to abandoned batches and are skipped) and exits. A stage wedged forever
  // blocks here — injected stalls are finite; a truly hung thread needs the
  // worker-process mode (a thread cannot be killed).
  if (old.worker.joinable()) old.worker.join();

  auto fresh = MakeShard();
  // Cumulative bookkeeping survives the restart (operators see monotonic
  // counters); health history rides along, the verdict resets below.
  fresh->queue_high_water = old.queue_high_water;
  fresh->backpressure_waits = old.backpressure_waits;
  fresh->stage_failures = old.stage_failures;
  fresh->deadline_failures = old.deadline_failures;
  fresh->last_failure_batch = old.last_failure_batch;
  fresh->restarts = old.restarts + 1;
  fresh->ingest_counts = old.ingest_counts;
  fresh->detect_counts = old.detect_counts;
  fresh->match_counts = old.match_counts;
  fresh->notify_counts = old.notify_counts;
  fresh->health = ShardHealth::kRestarting;
  // Destroy the old shard before its store is reopened underneath it.
  shards_[index] = std::move(fresh);
  PipelineShard& shard = *shards_[index];

  Status st = [&]() -> Status {
    if (process_mode()) {
      // Kill-and-restart containment: SIGKILL whatever is left of the
      // worker, fork/exec a fresh one with the stored hello, point it at
      // its partition file (it recovers from disk itself — the supervisor
      // never reopens a released partition) and send it the classifier's
      // rules. The restart hook below rebuilds its detection structures.
      ShardWorkerProxy& proxy = *proxies_[index];
      proxy.set_counter_shard(&shard);
      XYMON_RETURN_IF_ERROR(proxy.Respawn());
      for (const warehouse::DomainClassifier::Rule& rule :
           classifier_->rules()) {
        XYMON_RETURN_IF_ERROR(proxy.SendDomainRule(rule));
      }
    } else if (hub_ != nullptr) {
      // Rebuild from durable state: reopen the partition from disk and
      // recover the warehouse from it. Without a hub the shard restarts
      // empty — its documents re-ingest as new on their next fetch.
      XYMON_RETURN_IF_ERROR(hub_->ReopenPartition(index));
      XYMON_RETURN_IF_ERROR(
          shard.warehouse.AttachStore(hub_->partition(index)));
      HarvestPartition(shard.warehouse);
    }

    // A rebuilt shard gets a clean poison slate for the URLs it owns.
    for (auto it = fail_counts_.begin(); it != fail_counts_.end();) {
      it = ShardFor(it->first) == index ? fail_counts_.erase(it)
                                        : std::next(it);
    }
    for (auto it = poisoned_.begin(); it != poisoned_.end();) {
      it = ShardFor(*it) == index ? poisoned_.erase(it) : std::next(it);
    }

    if (shards_.size() > 1 && !process_mode()) {
      shard.worker = std::thread(&IngestPipeline::WorkerLoop, this, &shard);
    }
    // Re-register subscriptions on the fresh detection replica.
    // (A worker dying meanwhile fails no registration; the next
    // PollWorkers quarantines it again.)
    return restart_hook_ ? restart_hook_(index) : Status::OK();
  }();

  // Every failed restart ends quarantined: the scatter routes around the
  // shard, checkpoints skip it, and has_unhealthy_shards() lets the owner
  // retry.
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.health = st.ok() ? ShardHealth::kHealthy : ShardHealth::kQuarantined;
  return st;
}

Status IngestPipeline::RestartUnhealthyShards(size_t* restarted) {
  Status first_error;
  size_t count = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (!IsQuarantined(i)) continue;
    Status st = RestartShard(i);
    if (st.ok()) {
      ++count;
    } else if (first_error.ok()) {
      first_error = st;
    }
  }
  if (restarted != nullptr) *restarted = count;
  return first_error;
}

std::vector<std::string> IngestPipeline::poisoned_urls() const {
  std::vector<std::string> out(poisoned_.begin(), poisoned_.end());
  std::sort(out.begin(), out.end());
  return out;
}

void IngestPipeline::PollWorkers() {
  for (size_t i = 0; i < proxies_.size(); ++i) {
    if (proxies_[i]->PollDead()) {
      // The proxy's death path quarantined the shard for an unexpected
      // death; this covers the rest (spawn never succeeded, respawn
      // failed) so the scatter routes around the dead worker either way.
      QuarantineShard(i);
    }
  }
}

void IngestPipeline::ReplicateDomainRule(
    const warehouse::DomainClassifier::Rule& rule) {
  for (auto& proxy : proxies_) (void)proxy->SendDomainRule(rule);
}

int IngestPipeline::worker_pid(size_t index) const {
  if (index >= proxies_.size() || !proxies_[index]->alive()) return -1;
  return static_cast<int>(proxies_[index]->pid());
}

PipelineStats IngestPipeline::stats() const {
  PipelineStats out;
  out.shards = shards_.size();
  out.batches = batches_;
  out.documents = documents_;
  out.failed_documents = failed_documents_;
  out.deadline_exceeded = deadline_exceeded_;
  out.poison_rejections = poison_rejections_;
  out.poisoned_urls = poisoned_.size();
  auto add = [](StageCounters* into, const StageCounters& from) {
    into->documents += from.documents;
    into->micros += from.micros;
  };
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    out.queue_high_water =
        std::max(out.queue_high_water, shard->queue_high_water);
    out.stage_failures += shard->stage_failures;
    out.backpressure_waits += shard->backpressure_waits;
    out.shard_restarts += shard->restarts;
    out.shard_status.push_back(ShardStatus{shard->health, shard->restarts,
                                           shard->stage_failures,
                                           shard->deadline_failures});
    add(&out.ingest, shard->ingest_counts);
    add(&out.detect, shard->detect_counts);
    add(&out.match, shard->match_counts);
    add(&out.notify, shard->notify_counts);
  }
  for (size_t i = 0; i < proxies_.size(); ++i) {
    const ShardWorkerProxy& proxy = *proxies_[i];
    WorkerStatus w;
    w.pid = static_cast<int>(proxy.pid());
    w.shard = i;
    w.alive = proxy.alive();
    w.restarts = proxy.respawns();
    w.crashes = proxy.crashes();
    w.proto_errors = proxy.proto_errors();
    w.last_heartbeat_ms = proxy.last_heartbeat_ms();
    out.worker_crashes += w.crashes;
    out.worker_proto_errors += w.proto_errors;
    out.worker_respawns += w.restarts;
    out.workers.push_back(w);
  }
  return out;
}

uint64_t IngestPipeline::total_document_count() const {
  if (process_mode()) {
    // The supervisor-side warehouses are empty in process mode; the workers
    // report their sizes on every SlotResult/Pong/CheckpointDone.
    uint64_t total = 0;
    for (const auto& proxy : proxies_) {
      total += proxy->document_count();
    }
    return total;
  }
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->warehouse.document_count();
  }
  return total;
}

}  // namespace xymon::system
