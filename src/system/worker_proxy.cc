#include "src/system/worker_proxy.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>

namespace xymon::system {

namespace {

/// Bound on command round-trips (handshake, command acks, checkpoints
/// pending send) and on slot writes into a full socket buffer.
constexpr uint32_t kCommandTimeoutMs = 10000;

int64_t SteadyMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ShardWorkerProxy::ShardWorkerProxy(size_t shard_index,
                                   const IngestPipeline::Options& options,
                                   Supervision supervision)
    : shard_index_(shard_index),
      options_(options),
      supervision_(std::move(supervision)) {}

ShardWorkerProxy::~ShardWorkerProxy() { Shutdown(); }

Status ShardWorkerProxy::Spawn(const ipc::HelloMsg& hello) {
  std::string binary = options_.worker_binary;
  if (binary.empty()) {
    const char* env = std::getenv("XYMON_WORKER_BIN");
    if (env != nullptr) binary = env;
  }
  if (binary.empty()) {
    return Status::InvalidArgument(
        "worker proxy: no worker binary (Options::worker_binary or "
        "$XYMON_WORKER_BIN)");
  }
  ipc::InstallSigpipeIgnore();

  // CLOEXEC keeps this proxy's socket out of siblings spawned later: a
  // leaked copy of the write end in another worker would hold the reader's
  // EOF hostage after this worker dies.
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    return Status::IOError("worker proxy: socketpair failed");
  }

  pid_t pid = fork();
  if (pid < 0) {
    close(sv[0]);
    close(sv[1]);
    return Status::IOError("worker proxy: fork failed");
  }
  if (pid == 0) {
    // Child, forked from a threaded supervisor: only async-signal-safe
    // calls until exec. dup2 clears CLOEXEC on the worker's end.
    if (dup2(sv[1], 3) < 0) _exit(126);
    char arg_fd[] = "3";
    char* argv[] = {const_cast<char*>(binary.c_str()), arg_fd, nullptr};
    execv(binary.c_str(), argv);
    _exit(127);
  }
  close(sv[1]);

  auto abort_spawn = [&](Status status) {
    kill(pid, SIGKILL);
    int wstatus = 0;
    while (waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
    }
    close(sv[0]);
    return status;
  };

  // Versioned handshake before any state: Hello out, HelloAck back, both
  // bounded — a worker that never answers is killed here, not waited on.
  Status s = ipc::WriteFrame(sv[0], hello.Encode(), kCommandTimeoutMs);
  if (!s.ok()) return abort_spawn(std::move(s));
  std::string payload;
  s = ipc::ReadFrame(sv[0], &payload, kCommandTimeoutMs);
  if (!s.ok()) return abort_spawn(std::move(s));
  ipc::MsgType type;
  if (!ipc::PeekType(payload, &type) || type != ipc::MsgType::kHelloAck) {
    return abort_spawn(Status::Corruption("worker proxy: expected HelloAck"));
  }
  ipc::HelloAckMsg ack;
  s = ipc::HelloAckMsg::Decode(
      std::string_view(payload).substr(1), &ack);
  if (!s.ok()) return abort_spawn(std::move(s));
  if (ack.version != ipc::kWireVersion) {
    return abort_spawn(Status::FailedPrecondition(
        "worker proxy: version mismatch (worker " +
        std::to_string(ack.version) + ", supervisor " +
        std::to_string(ipc::kWireVersion) + ")"));
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    fd_ = sv[0];
    pid_ = pid;
    hello_ = hello;
    spawned_ = true;
    dead_ = false;
    expected_down_ = false;
    reaped_ = false;
    stop_heartbeat_ = false;
    batch_.reset();
    batch_seq_ = 0;
    outstanding_.clear();
    acks_.clear();
    checkpoints_.clear();
    domain_results_.clear();
    last_rx_us_ = SteadyMicros();  // the HelloAck was a frame
  }
  reader_ = std::thread(&ShardWorkerProxy::ReaderLoop, this);
  if (options_.worker_heartbeat_interval_ms > 0) {
    heartbeat_ = std::thread(&ShardWorkerProxy::HeartbeatLoop, this);
  }
  return Status::OK();
}

template <typename Msg>
Status ShardWorkerProxy::Command(Msg msg, bool* acked) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (dead_ || !spawned_) return Status::Unavailable("worker down");
    msg.seq = next_seq_++;
    acks_[msg.seq];
  }
  const uint64_t seq = msg.seq;
  Status s = WriteFrameLocked(msg.Encode(), kCommandTimeoutMs);
  std::unique_lock<std::mutex> lock(mutex_);
  bool arrived = s.ok() && cv_.wait_for(
      lock, std::chrono::milliseconds(kCommandTimeoutMs),
      [&] { return dead_ || acks_[seq].has_value(); });
  std::optional<Status> ack = std::move(acks_[seq]);
  acks_.erase(seq);
  if (!s.ok()) return s;
  if (ack.has_value()) {
    if (acked != nullptr) *acked = true;
    return *ack;
  }
  if (!arrived) {
    return Status::DeadlineExceeded("worker command " + std::to_string(seq) +
                                    " timed out");
  }
  return Status::Unavailable("worker down");
}

Status ShardWorkerProxy::SendOpenPartition(const std::string& path,
                                           uint32_t fsync_every_n,
                                           uint64_t auto_checkpoint_bytes) {
  ipc::OpenPartitionMsg msg{0, path, fsync_every_n, auto_checkpoint_bytes};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    partition_cmd_ = msg;
    has_partition_ = true;
  }
  return Command(std::move(msg));
}

Status ShardWorkerProxy::SendDomainRule(
    const warehouse::DomainClassifier::Rule& rule) {
  return Command(ipc::DomainRuleMsg{0, rule.domain, rule.doctype_name,
                                    rule.root_tag, rule.url_substring});
}

Status ShardWorkerProxy::ApplyReplicaOp(ipc::ReplicaOpMsg msg) {
  bool acked = false;
  Status st = Command(std::move(msg), &acked);
  if (acked) return st;
  // No verdict: down, or alive and silent (it may apply the op later or
  // never) — kill it so the death path quarantines the shard.
  std::lock_guard<std::mutex> lock(mutex_);
  if (pid_ > 0 && !reaped_) kill(pid_, SIGKILL);
  if (fd_ >= 0) shutdown(fd_, SHUT_RDWR);
  return Status::OK();
}

using Op = ipc::ReplicaOpMsg::Op;

Status ShardWorkerProxy::RegisterCondition(
    mqp::AtomicEvent code, const alerters::Condition& condition) {
  return ApplyReplicaOp(
      {.op = Op::kRegisterCondition, .id = code, .condition = condition});
}

void ShardWorkerProxy::UnregisterCondition(
    mqp::AtomicEvent code, const alerters::Condition& condition) {
  (void)ApplyReplicaOp(
      {.op = Op::kUnregisterCondition, .id = code, .condition = condition});
}

Status ShardWorkerProxy::RegisterComplex(mqp::ComplexEventId id,
                                         const mqp::EventSet& events,
                                         const manager::QueryBinding& binding) {
  return ApplyReplicaOp({.op = Op::kRegisterComplex,
                         .id = id,
                         .events = events,
                         .binding = binding});
}

void ShardWorkerProxy::UnregisterComplex(mqp::ComplexEventId id) {
  (void)ApplyReplicaOp({.op = Op::kUnregisterComplex, .id = id});
}

Status ShardWorkerProxy::SendSlot(const std::shared_ptr<BatchState>& state,
                                  uint64_t batch_seq, size_t slot,
                                  uint64_t docid_hint, Timestamp now) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (dead_ || !spawned_) return Status::Unavailable("worker down");
    if (batch_seq != batch_seq_ || batch_ != state) {
      // New batch: anything still outstanding from the previous one was
      // already failed (watchdog abandonment) — results for it are dropped
      // by their batch number, never misattributed.
      batch_ = state;
      batch_seq_ = batch_seq;
      outstanding_.clear();
    }
    outstanding_.insert(slot);
  }

  const DocJob& job = state->jobs[slot];
  ipc::SlotMsg msg;
  msg.batch = batch_seq;
  msg.slot = static_cast<uint32_t>(slot);
  msg.deletion = job.deletion ? 1 : 0;
  msg.docid_hint = docid_hint;
  msg.now = now;
  msg.url = job.url;
  msg.body = job.body;
  Status s = WriteFrameLocked(msg.Encode(), kCommandTimeoutMs);
  if (!s.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    outstanding_.erase(slot);
  }
  return s;
}

Status ShardWorkerProxy::SendCheckpoint(
    std::shared_ptr<CheckpointTicket> ticket) {
  uint64_t seq;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (dead_ || !spawned_) return Status::Unavailable("worker down");
    seq = next_seq_++;
    checkpoints_[seq] = ticket;
  }
  ipc::CheckpointMsg msg;
  msg.seq = seq;
  Status s = WriteFrameLocked(msg.Encode(), kCommandTimeoutMs);
  if (!s.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    checkpoints_.erase(seq);
  }
  return s;
}

Result<ipc::DomainDocsMsg> ShardWorkerProxy::QueryDomain(
    const std::string& domain) {
  uint64_t seq;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (dead_ || !spawned_) return Status::Unavailable("worker down");
    seq = next_seq_++;
    domain_results_[seq];
  }
  ipc::QueryDomainMsg msg;
  msg.seq = seq;
  msg.domain = domain;
  Status s = WriteFrameLocked(msg.Encode(), kCommandTimeoutMs);
  std::unique_lock<std::mutex> lock(mutex_);
  bool arrived = s.ok() && cv_.wait_for(
      lock, std::chrono::milliseconds(kCommandTimeoutMs),
      [&] { return dead_ || domain_results_[seq].has_value(); });
  std::optional<ipc::DomainDocsMsg> result = std::move(domain_results_[seq]);
  domain_results_.erase(seq);
  if (!s.ok()) return s;
  if (result.has_value()) return std::move(*result);
  if (dead_) return Status::Unavailable("worker down");
  if (!arrived) {
    return Status::DeadlineExceeded("worker domain query timed out");
  }
  return Status::Unavailable("worker down");
}

Status ShardWorkerProxy::Respawn() {
  Kill();
  ipc::HelloMsg hello;
  bool reopen;
  ipc::OpenPartitionMsg partition;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    hello = hello_;
    reopen = has_partition_;
    partition = partition_cmd_;
  }
  XYMON_RETURN_IF_ERROR(Spawn(hello));
  if (reopen) XYMON_RETURN_IF_ERROR(Command(std::move(partition)));
  std::lock_guard<std::mutex> lock(mutex_);
  respawns_++;
  return Status::OK();
}

void ShardWorkerProxy::Kill() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!spawned_) return;
    expected_down_ = true;
    stop_heartbeat_ = true;
    if (pid_ > 0 && !reaped_) kill(pid_, SIGKILL);
    // Unblocks the reader out of its blocking ReadFrame.
    if (fd_ >= 0) shutdown(fd_, SHUT_RDWR);
  }
  cv_.notify_all();
  JoinThreads();
  HandleDown("killed by supervisor", /*proto_error=*/false);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!reaped_ && pid_ > 0) {
    // The SIGKILL above guarantees this converges.
    int wstatus = 0;
    pid_t r;
    do {
      r = waitpid(pid_, &wstatus, 0);
    } while (r < 0 && errno == EINTR);
    reaped_ = true;
  }
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
  spawned_ = false;
}

void ShardWorkerProxy::Shutdown() {
  bool try_graceful = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!spawned_) return;
    if (!dead_) {
      expected_down_ = true;
      try_graceful = true;
    }
  }
  if (try_graceful) {
    ipc::ShutdownMsg msg;
    if (WriteFrameLocked(msg.Encode(), /*deadline_ms=*/1000).ok()) {
      // Bounded grace period, then the SIGKILL path below.
      for (int i = 0; i < 200; ++i) {
        {
          std::lock_guard<std::mutex> lock(mutex_);
          if (reaped_) break;
          int wstatus = 0;
          pid_t r = waitpid(pid_, &wstatus, WNOHANG);
          if (r == pid_ || (r < 0 && errno == ECHILD)) {
            reaped_ = true;
            break;
          }
        }
        usleep(10 * 1000);
      }
    }
  }
  Kill();
}

bool ShardWorkerProxy::PollDead() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!spawned_) return true;
    if (dead_) return true;
    int wstatus = 0;
    pid_t r = waitpid(pid_, &wstatus, WNOHANG);
    if (r == 0) return false;
    if (r == pid_) reaped_ = true;
    // r < 0 (ECHILD: someone reaped it, or it never existed) also means
    // the worker is gone.
  }
  HandleDown("worker exited", /*proto_error=*/false);
  return true;
}

void ShardWorkerProxy::set_counter_shard(PipelineShard* shard) {
  std::lock_guard<std::mutex> lock(mutex_);
  counter_shard_ = shard;
}

bool ShardWorkerProxy::alive() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spawned_ && !dead_;
}

pid_t ShardWorkerProxy::pid() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pid_;
}

uint64_t ShardWorkerProxy::respawns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return respawns_;
}

uint64_t ShardWorkerProxy::crashes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return crashes_;
}

uint64_t ShardWorkerProxy::proto_errors() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return proto_errors_;
}

int64_t ShardWorkerProxy::last_heartbeat_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (last_rx_us_ < 0) return -1;
  return (SteadyMicros() - last_rx_us_) / 1000;
}

uint64_t ShardWorkerProxy::document_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return document_count_;
}

void ShardWorkerProxy::set_document_count(uint64_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  document_count_ = count;
}

// -- Threads -----------------------------------------------------------------

void ShardWorkerProxy::ReaderLoop() {
  for (;;) {
    int fd;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (dead_) return;
      fd = fd_;
    }
    std::string payload;
    Status s = ipc::ReadFrame(fd, &payload);
    if (!s.ok()) {
      // EOF / truncated stream is a death; a bad CRC or length is a
      // protocol corruption — either way the worker is torn down and the
      // shard quarantined. Never the supervisor's problem.
      HandleDown(s.message(), /*proto_error=*/s.code() ==
                                  StatusCode::kCorruption);
      return;
    }
    ipc::MsgType type;
    if (!ipc::PeekType(payload, &type)) {
      HandleDown("wire: unknown message type", /*proto_error=*/true);
      return;
    }
    std::string_view body = std::string_view(payload).substr(1);

    switch (type) {
      case ipc::MsgType::kSlotResult: {
        ipc::SlotResultMsg msg;
        if (!ipc::SlotResultMsg::Decode(body, &msg).ok()) {
          HandleDown("wire: malformed SlotResult", /*proto_error=*/true);
          return;
        }
        std::shared_ptr<BatchState> bs;
        PipelineShard* counters = nullptr;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          last_rx_us_ = SteadyMicros();
          document_count_ = msg.document_count;
          if (msg.batch != batch_seq_ || !batch_) break;  // stale batch
          auto it = outstanding_.find(msg.slot);
          if (it == outstanding_.end()) break;  // slot already failed
          outstanding_.erase(it);
          bs = batch_;
          counters = counter_shard_;
        }
        if (counters != nullptr) {
          std::lock_guard<std::mutex> lock(counters->mutex);
          counters->ingest_counts.documents += msg.ingest.documents;
          counters->ingest_counts.micros += msg.ingest.micros;
          counters->detect_counts.documents += msg.detect.documents;
          counters->detect_counts.micros += msg.detect.micros;
          counters->match_counts.documents += msg.match.documents;
          counters->match_counts.micros += msg.match.micros;
          counters->notify_counts.documents += msg.notify.documents;
          counters->notify_counts.micros += msg.notify.micros;
        }
        DocOutcome out;
        out.processed = msg.processed != 0;
        out.degraded = msg.degraded != 0;
        out.alert = msg.alert != 0;
        out.failed = msg.failed != 0;
        out.failed_stage = std::move(msg.failed_stage);
        out.status = ipc::DecodeStatus(msg.status_code,
                                       std::move(msg.status_message));
        out.actions.reserve(msg.actions.size());
        for (ipc::WireAction& a : msg.actions) {
          out.actions.push_back(DeliveryAction{
              static_cast<DeliveryAction::Kind>(a.kind),
              std::move(a.subscription), std::move(a.query_name),
              std::move(a.payload_xml), std::move(a.event_key)});
        }
        // Publication is the local shards' exactly (BatchState::Publish).
        bs->Publish(msg.slot, std::move(out));
        break;
      }
      case ipc::MsgType::kCmdAck: {
        ipc::CmdAckMsg msg;
        if (!ipc::CmdAckMsg::Decode(body, &msg).ok()) {
          HandleDown("wire: malformed CmdAck", /*proto_error=*/true);
          return;
        }
        {
          std::lock_guard<std::mutex> lock(mutex_);
          last_rx_us_ = SteadyMicros();
          auto it = acks_.find(msg.seq);
          if (it != acks_.end()) {
            it->second = ipc::DecodeStatus(msg.status_code,
                                           std::move(msg.status_message));
          }
        }
        cv_.notify_all();
        break;
      }
      case ipc::MsgType::kCheckpointDone: {
        ipc::CheckpointDoneMsg msg;
        if (!ipc::CheckpointDoneMsg::Decode(body, &msg).ok()) {
          HandleDown("wire: malformed CheckpointDone", /*proto_error=*/true);
          return;
        }
        std::shared_ptr<CheckpointTicket> ticket;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          last_rx_us_ = SteadyMicros();
          document_count_ = msg.document_count;
          auto it = checkpoints_.find(msg.seq);
          if (it != checkpoints_.end()) {
            ticket = std::move(it->second);
            checkpoints_.erase(it);
          }
        }
        if (ticket) {
          ticket->Complete(
              ipc::DecodeStatus(msg.status_code, std::move(msg.status_message)));
        }
        break;
      }
      case ipc::MsgType::kPong: {
        ipc::PongMsg msg;
        if (!ipc::PongMsg::Decode(body, &msg).ok()) {
          HandleDown("wire: malformed Pong", /*proto_error=*/true);
          return;
        }
        std::lock_guard<std::mutex> lock(mutex_);
        last_rx_us_ = SteadyMicros();
        document_count_ = msg.document_count;
        break;
      }
      case ipc::MsgType::kDomainDocs: {
        ipc::DomainDocsMsg msg;
        if (!ipc::DomainDocsMsg::Decode(body, &msg).ok()) {
          HandleDown("wire: malformed DomainDocs", /*proto_error=*/true);
          return;
        }
        {
          std::lock_guard<std::mutex> lock(mutex_);
          last_rx_us_ = SteadyMicros();
          auto it = domain_results_.find(msg.seq);
          if (it != domain_results_.end()) it->second = std::move(msg);
        }
        cv_.notify_all();
        break;
      }
      case ipc::MsgType::kDtdIdReq: {
        ipc::DtdIdReqMsg msg;
        if (!ipc::DtdIdReqMsg::Decode(body, &msg).ok()) {
          HandleDown("wire: malformed DtdIdReq", /*proto_error=*/true);
          return;
        }
        {
          std::lock_guard<std::mutex> lock(mutex_);
          last_rx_us_ = SteadyMicros();
        }
        ipc::DtdIdRespMsg resp;
        resp.dtd_url = msg.dtd_url;
        resp.id = supervision_.dtd_id_for
                      ? supervision_.dtd_id_for(msg.dtd_url)
                      : 0;
        // The worker blocks on this answer mid-slot; an unresponsive write
        // here means the worker is doomed anyway — the heartbeat reaps it.
        Status write_status =
            WriteFrameLocked(resp.Encode(), kCommandTimeoutMs);
        (void)write_status;
        break;
      }
      default:
        // A frame type the supervisor never expects from a worker.
        HandleDown("wire: unexpected " +
                       std::string(ipc::MsgTypeName(type)) + " from worker",
                   /*proto_error=*/true);
        return;
    }
  }
}

void ShardWorkerProxy::HeartbeatLoop() {
  const uint32_t interval_ms = options_.worker_heartbeat_interval_ms;
  const int64_t timeout_ms = options_.worker_heartbeat_timeout_ms;
  for (;;) {
    uint64_t token;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                   [this] { return stop_heartbeat_ || dead_; });
      if (stop_heartbeat_ || dead_) return;
      if (timeout_ms > 0 && last_rx_us_ >= 0) {
        int64_t age_ms = (SteadyMicros() - last_rx_us_) / 1000;
        if (age_ms > timeout_ms) {
          // Wedged: no frame for a full timeout despite the pings below.
          // SIGKILL turns the wedge into an EOF; the reader runs the death
          // path (shutdown on the socket makes its blocking read return).
          if (pid_ > 0 && !reaped_) kill(pid_, SIGKILL);
          if (fd_ >= 0) shutdown(fd_, SHUT_RDWR);
          return;
        }
      }
      token = ++ping_token_;
    }
    ipc::PingMsg ping;
    ping.token = token;
    // Failure is the reader's signal, not ours.
    Status ping_status = WriteFrameLocked(ping.Encode(), interval_ms);
    (void)ping_status;
  }
}

// -- Death path --------------------------------------------------------------

void ShardWorkerProxy::HandleDown(const std::string& reason,
                                  bool proto_error) {
  bool notify = false;
  std::function<void(size_t, const std::string&)> on_down;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (dead_ || !spawned_) return;  // first death wins; others are echoes
    dead_ = true;
    if (proto_error) proto_errors_++;
    if (!expected_down_) {
      crashes_++;
      notify = true;
      on_down = supervision_.on_down;
    }
    FailOutstandingLocked(lock);
    ReapLocked();
  }
  cv_.notify_all();
  if (notify && on_down) on_down(shard_index_, reason);
}

void ShardWorkerProxy::FailOutstandingLocked(
    std::unique_lock<std::mutex>& lock) {
  // Outstanding slots: published as failed "shard" outcomes so the barrier
  // releases and UpdateBatchAccounting sees the same shape RestartShard
  // recovery expects.
  if (batch_ != nullptr && !outstanding_.empty()) {
    std::shared_ptr<BatchState> bs = batch_;
    std::unordered_set<size_t> slots;
    slots.swap(outstanding_);
    lock.unlock();
    for (size_t slot : slots) {
      DocOutcome out;
      out.failed = true;
      out.failed_stage = "shard";
      out.status = Status::Unavailable("worker process down");
      bs->Publish(slot, std::move(out));
    }
    lock.lock();
  }
  // Pending command waiters wake on dead_ and report the worker down.
  // Checkpoint markers complete Unavailable — the partition on disk is what
  // the respawn rebuilds from.
  std::map<uint64_t, std::shared_ptr<CheckpointTicket>> checkpoints;
  checkpoints.swap(checkpoints_);
  lock.unlock();
  for (auto& [seq, ticket] : checkpoints) {
    ticket->Complete(Status::Unavailable("worker down"));
  }
  lock.lock();
}

Status ShardWorkerProxy::WriteFrameLocked(const std::string& payload,
                                          uint32_t deadline_ms) {
  std::lock_guard<std::mutex> write_lock(write_mutex_);
  int fd;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (dead_ || fd_ < 0) return Status::Unavailable("worker down");
    fd = fd_;
  }
  return ipc::WriteFrame(fd, payload, deadline_ms);
}

void ShardWorkerProxy::ReapLocked() {
  if (reaped_ || pid_ <= 0) return;
  int wstatus = 0;
  pid_t r = waitpid(pid_, &wstatus, WNOHANG);
  if (r == pid_ || (r < 0 && errno == ECHILD)) reaped_ = true;
}

void ShardWorkerProxy::JoinThreads() {
  if (reader_.joinable()) reader_.join();
  if (heartbeat_.joinable()) heartbeat_.join();
}

}  // namespace xymon::system
