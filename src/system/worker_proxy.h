#ifndef XYMON_SYSTEM_WORKER_PROXY_H_
#define XYMON_SYSTEM_WORKER_PROXY_H_

#include <sys/types.h>

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>

#include "src/common/result.h"
#include "src/ipc/wire.h"
#include "src/manager/replica.h"
#include "src/system/pipeline.h"
#include "src/warehouse/domain_classifier.h"

namespace xymon::system {

/// Supervisor-side handle for one shard worker *process* (DESIGN.md §14).
/// Owns the fork/exec over a socketpair, the framed wire conversation, and
/// the supervision machinery — so IngestPipeline in process mode talks to a
/// proxy with the same scatter/barrier/ordered-gather contract its thread
/// workers obey:
///
///   * SendSlot publishes the worker's SlotResult into the shared BatchState
///     exactly like a local shard does (BatchState::Publish, honouring
///     `abandoned`; a stale result from an abandoned batch is dropped by its
///     batch sequence number, never misattributed to a newer batch).
///   * SendCheckpoint completes the shared CheckpointTicket when the
///     worker's partition checkpoint finishes.
///   * A reader thread drains worker→supervisor frames; a heartbeat thread
///     pings on an interval and SIGKILLs a worker whose last frame is older
///     than the timeout (a wedge becomes an EOF becomes the death path).
///   * As a manager::DetectionReplica it carries the manager's
///     registrations to the worker, one acked ReplicaOp frame each.
///   * On death — crash, wedge-kill, or protocol corruption — every
///     outstanding slot fails Unavailable, pending tickets and commands
///     complete Unavailable, and `on_down` lets the pipeline quarantine the
///     shard. The monitor never dies with a worker.
///
/// Thread-safety: SendSlot/QueryDomain/SendCheckpoint may be called from
/// the pipeline's scatter thread while the reader and heartbeat threads
/// run; the replica operations, Spawn/Respawn/Kill/Shutdown require the
/// same serialization as RestartShard (no batch in flight, single caller).
class ShardWorkerProxy final : public manager::DetectionReplica {
 public:
  /// Callbacks into the owning pipeline.
  struct Supervision {
    /// Central DTDID assignment (the worker's registry RPCs through here).
    std::function<uint32_t(const std::string&)> dtd_id_for;
    /// Worker went down (crash/wedge/corruption); the pipeline quarantines
    /// the shard. Runs on the reader thread (or the caller of PollDead) —
    /// must not call back into Spawn/Respawn/Kill.
    std::function<void(size_t shard_index, const std::string& reason)> on_down;
  };

  /// Reads the worker binary and heartbeat knobs from the owning
  /// pipeline's `options`, which must outlive the proxy.
  ShardWorkerProxy(size_t shard_index, const IngestPipeline::Options& options,
                   Supervision supervision);
  ~ShardWorkerProxy() override;

  ShardWorkerProxy(const ShardWorkerProxy&) = delete;
  ShardWorkerProxy& operator=(const ShardWorkerProxy&) = delete;

  /// fork/execs the worker and runs the versioned handshake; on success the
  /// reader and heartbeat threads are live. The hello is kept for Respawn.
  Status Spawn(const ipc::HelloMsg& hello);

  /// Tells the worker to open its storage partition (kept for Respawn).
  Status SendOpenPartition(const std::string& path, uint32_t fsync_every_n,
                           uint64_t auto_checkpoint_bytes);

  /// Sends one domain-classifier rule and waits for its ack.
  Status SendDomainRule(const warehouse::DomainClassifier::Rule& rule);

  // manager::DetectionReplica. Only an error ack fails an operation; a
  // worker that is down or does not ack (it is then killed) misses it, its
  // shard is quarantined and RestartShard rebuilds it from live state.
  Status RegisterCondition(mqp::AtomicEvent code,
                           const alerters::Condition& condition) override;
  void UnregisterCondition(mqp::AtomicEvent code,
                           const alerters::Condition& condition) override;
  Status RegisterComplex(mqp::ComplexEventId id, const mqp::EventSet& events,
                         const manager::QueryBinding& binding) override;
  void UnregisterComplex(mqp::ComplexEventId id) override;

  /// Scatters one slot of `state` to the worker. The write is bounded by
  /// the command timeout — a wedged worker with a full socket buffer yields
  /// DeadlineExceeded here instead of blocking the scatter thread. On any
  /// error the slot is NOT accounted: the caller fails it.
  Status SendSlot(const std::shared_ptr<BatchState>& state, uint64_t batch_seq,
                  size_t slot, uint64_t docid_hint, Timestamp now);

  /// Queues a partition checkpoint; `ticket` completes when the worker
  /// reports CheckpointDone (or Unavailable if the worker dies first).
  Status SendCheckpoint(std::shared_ptr<CheckpointTicket> ticket);

  /// Remote DocumentsInDomain for the continuous-query read path.
  Result<ipc::DomainDocsMsg> QueryDomain(const std::string& domain);

  /// SIGKILL + full teardown + fresh Spawn with the stored hello and
  /// partition command (RestartShard then sends the rules and the live
  /// registrations). Caller holds the RestartShard serialization.
  Status Respawn();

  /// SIGKILL and tear down (threads joined, child reaped, fd closed).
  /// Expected deaths (this, Shutdown) are not counted as crashes and do not
  /// fire on_down.
  void Kill();

  /// Graceful stop: Shutdown frame, bounded wait for exit, SIGKILL fallback.
  void Shutdown();

  /// Synchronous death check (waitpid WNOHANG): runs the death path at a
  /// deterministic point — before a batch is scattered — instead of waiting
  /// for the reader thread to notice the EOF. Returns true if the worker is
  /// known dead (now or earlier).
  bool PollDead();

  /// The local PipelineShard whose stage counters mirror this worker's
  /// (reader merges SlotResult deltas into it). Reset after RestartShard
  /// swaps the shard object.
  void set_counter_shard(PipelineShard* shard);

  bool alive() const;
  pid_t pid() const;
  uint64_t respawns() const;
  uint64_t crashes() const;
  uint64_t proto_errors() const;
  /// Milliseconds since the last frame from the worker; -1 before the
  /// first.
  int64_t last_heartbeat_ms() const;
  /// Worker warehouse size, piggybacked on SlotResult/Pong/CheckpointDone.
  uint64_t document_count() const;
  void set_document_count(uint64_t count);

 private:
  void ReaderLoop();
  void HeartbeatLoop();
  /// The one-and-only death path; idempotent. `expected` deaths skip the
  /// crash counter and on_down.
  void HandleDown(const std::string& reason, bool proto_error);
  /// Sends `msg` under a fresh seq and waits for its CmdAck; sets `*acked`
  /// if the status is the worker's verdict, not the transport's.
  template <typename Msg>
  Status Command(Msg msg, bool* acked = nullptr);
  Status ApplyReplicaOp(ipc::ReplicaOpMsg msg);
  void FailOutstandingLocked(std::unique_lock<std::mutex>& lock);
  Status WriteFrameLocked(const std::string& payload, uint32_t deadline_ms);
  void ReapLocked();
  void JoinThreads();

  const size_t shard_index_;
  const IngestPipeline::Options& options_;
  const Supervision supervision_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;  // command acks + heartbeat stop
  std::mutex write_mutex_;      // frame writes are atomic units
  int fd_ = -1;
  pid_t pid_ = -1;
  bool spawned_ = false;
  bool dead_ = false;
  bool expected_down_ = false;
  bool reaped_ = false;
  bool stop_heartbeat_ = false;
  std::thread reader_;
  std::thread heartbeat_;

  // Respawn state.
  ipc::HelloMsg hello_;
  bool has_partition_ = false;
  ipc::OpenPartitionMsg partition_cmd_;

  // In-flight batch (the only batch, ProcessBatch is serialized).
  std::shared_ptr<BatchState> batch_;
  uint64_t batch_seq_ = 0;
  std::unordered_set<size_t> outstanding_;

  // Pending request/response conversations, keyed by seq.
  // A key is present while its caller waits; the reader fills the value.
  std::map<uint64_t, std::optional<Status>> acks_;
  std::map<uint64_t, std::shared_ptr<CheckpointTicket>> checkpoints_;
  std::map<uint64_t, std::optional<ipc::DomainDocsMsg>> domain_results_;
  uint64_t next_seq_ = 1;  // every supervisor→worker request

  PipelineShard* counter_shard_ = nullptr;

  // Telemetry.
  uint64_t respawns_ = 0;
  uint64_t crashes_ = 0;
  uint64_t proto_errors_ = 0;
  uint64_t ping_token_ = 0;
  uint64_t document_count_ = 0;
  int64_t last_rx_us_ = -1;  // steady-clock micros of the last frame
};

}  // namespace xymon::system

#endif  // XYMON_SYSTEM_WORKER_PROXY_H_
