#ifndef XYMON_IPC_WIRE_H_
#define XYMON_IPC_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/shared_string.h"
#include "src/common/status.h"
#include "src/manager/replica.h"

namespace xymon::ipc {

// ---------------------------------------------------------------------------
// The wire format between the supervisor (IngestPipeline in process mode)
// and its shard worker processes (src/ipc/worker_main.cc) — the stage-seam
// messages of DESIGN.md §14 serialized over a socketpair.
//
// Framing mirrors LogStore's record framing (the same torn/corrupt-input
// discipline, including the 64 MiB length cap that bounds what a corrupt
// header can make a decoder allocate):
//
//   [u32 payload_len][u32 crc32(payload)][payload bytes]
//
// The first payload byte is the MsgType; the rest is message-specific,
// encoded with WireWriter and decoded with the bounds-checked WireReader
// (a truncated or bit-flipped payload yields Status::Corruption, never a
// crash or an oversized allocation — every length field is checked against
// the bytes actually present).
//
// The first frame in each direction is the versioned handshake
// (kHello / kHelloAck); a version or magic mismatch kills the worker before
// any state is exchanged.
// ---------------------------------------------------------------------------

/// "XYMW" — first field of the handshake frame.
inline constexpr uint32_t kWireMagic = 0x58594D57;
inline constexpr uint32_t kWireVersion = 4;
/// Frame-length cap, mirroring storage::kMaxLogRecordLen: a corrupt length
/// field cannot drive an unbounded allocation.
inline constexpr uint32_t kMaxFrameLen = 64u << 20;  // 64 MiB
/// Bytes of frame header preceding the payload.
inline constexpr size_t kFrameHeaderLen = 8;

enum class MsgType : uint8_t {
  kHello = 1,        // sup → wrk: versioned handshake + shard config
  kHelloAck = 2,     // wrk → sup: version + pid
  kOpenPartition = 3,  // sup → wrk: attach the shard's storage partition
  kReplicaOp = 4,    // sup → wrk: one detection-replica operation
  kDomainRule = 5,   // sup → wrk: domain-classifier rule
  kCmdAck = 6,       // wrk → sup: ack for the three commands above
  kSlot = 7,         // sup → wrk: one scattered batch slot
  kSlotResult = 8,   // wrk → sup: the slot's DocOutcome + stage counters
  kCheckpoint = 9,   // sup → wrk: checkpoint marker (batch boundary)
  kCheckpointDone = 10,  // wrk → sup: partition checkpoint finished
  kPing = 11,        // sup → wrk: heartbeat probe
  kPong = 12,        // wrk → sup: heartbeat answer (+ document count)
  kQueryDomain = 13,  // sup → wrk: continuous-query collection request
  kDomainDocs = 14,  // wrk → sup: the partition's documents in a domain
  kDtdIdReq = 15,    // wrk → sup: global DTDID assignment request
  kDtdIdResp = 16,   // sup → wrk: the assigned id
  kShutdown = 17,    // sup → wrk: clean exit request
};

const char* MsgTypeName(MsgType type);

// -- Bounded encode/decode ---------------------------------------------------

/// Append-only payload builder. Integers are little-endian fixed width;
/// strings are u32-length-prefixed.
class WireWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Str(std::string_view s);
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked payload consumer: every accessor returns false (and poisons
/// the reader) instead of reading past the end, and a string length is
/// validated against the bytes remaining before anything is allocated.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  bool U8(uint8_t* out);
  bool U32(uint32_t* out);
  bool U64(uint64_t* out);
  bool I64(int64_t* out);
  bool Str(std::string* out);
  /// A string field as a view into the payload (valid while it is).
  bool View(std::string_view* out);
  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Rebuilds a Status from its wire (code, message) pair.
Status DecodeStatus(uint8_t code, std::string message);

// -- Messages ----------------------------------------------------------------
// Every struct encodes to a full frame payload (type byte first) and decodes
// from the payload *after* the type byte. Decode returns Corruption on any
// truncation, trailing garbage or out-of-range field.

/// One injected stage fault, shipped to the worker so its FaultyStage
/// decorators replay the supervisor's StageFaultPlan.
struct WireFault {
  uint8_t stage = 0;  // system::StageKind
  uint8_t kind = 0;   // system::StageFaultKind
  uint32_t nth = 1;
  uint32_t stall_ms = 0;
  std::string url;
};

struct HelloMsg {
  uint32_t magic = kWireMagic;
  uint32_t version = kWireVersion;
  uint32_t shard_index = 0;
  uint32_t num_shards = 1;
  uint32_t max_parse_failures = 3;
  std::vector<WireFault> faults;

  std::string Encode() const;
  static Status Decode(std::string_view body, HelloMsg* out);
};

struct HelloAckMsg {
  uint32_t version = kWireVersion;
  uint64_t pid = 0;

  std::string Encode() const;
  static Status Decode(std::string_view body, HelloAckMsg* out);
};

struct OpenPartitionMsg {
  uint64_t seq = 0;
  std::string path;
  uint32_t fsync_every_n = 0;
  uint64_t auto_checkpoint_bytes = 0;

  std::string Encode() const;
  static Status Decode(std::string_view body, OpenPartitionMsg* out);
};

/// One manager::DetectionReplica operation. Every field travels with every
/// op; `id` is the atomic-event code or the complex-event id.
struct ReplicaOpMsg {
  enum class Op : uint8_t {
    kRegisterCondition,
    kUnregisterCondition,
    kRegisterComplex,
    kUnregisterComplex,
  };
  uint64_t seq = 0;
  Op op = Op::kRegisterCondition;
  uint32_t id = 0;
  alerters::Condition condition{};
  mqp::EventSet events{};
  manager::QueryBinding binding{};

  std::string Encode() const;
  static Status Decode(std::string_view body, ReplicaOpMsg* out);
};

struct DomainRuleMsg {
  uint64_t seq = 0;
  std::string domain;
  std::string doctype_name;
  std::string root_tag;
  std::string url_substring;

  std::string Encode() const;
  static Status Decode(std::string_view body, DomainRuleMsg* out);
};

struct CmdAckMsg {
  uint64_t seq = 0;
  uint8_t status_code = 0;
  std::string status_message;

  std::string Encode() const;
  static Status Decode(std::string_view body, CmdAckMsg* out);
};

struct SlotMsg {
  uint64_t batch = 0;
  uint32_t slot = 0;
  uint8_t deletion = 0;
  uint64_t docid_hint = 0;
  int64_t now = 0;
  std::string url;
  std::string body;

  std::string Encode() const;
  static Status Decode(std::string_view body, SlotMsg* out);
};

/// system::DeliveryAction over the wire.
struct WireAction {
  uint8_t kind = 0;  // DeliveryAction::Kind
  SharedString subscription;
  SharedString query_name;
  SharedString payload_xml;
  SharedString event_key;
};

struct WireStageDelta {
  uint64_t documents = 0;
  uint64_t micros = 0;
};

/// The actions travel as a string table plus four indexes per action: each
/// distinct string — a document's shared payload, a query's names — is
/// sent once per slot result, and decodes to one SharedString that every
/// action naming it shares (DESIGN.md §15). An index past the table is
/// Corruption.
struct SlotResultMsg {
  uint64_t batch = 0;
  uint32_t slot = 0;
  uint8_t processed = 0;
  uint8_t degraded = 0;
  uint8_t alert = 0;
  uint8_t failed = 0;
  std::string failed_stage;
  uint8_t status_code = 0;
  std::string status_message;
  std::vector<WireAction> actions;
  WireStageDelta ingest, detect, match, notify;
  /// Worker warehouse size after the slot (keeps the supervisor's
  /// total_document_count() current without a round trip).
  uint64_t document_count = 0;

  std::string Encode() const;
  static Status Decode(std::string_view body, SlotResultMsg* out);
};

struct CheckpointMsg {
  uint64_t seq = 0;

  std::string Encode() const;
  static Status Decode(std::string_view body, CheckpointMsg* out);
};

struct CheckpointDoneMsg {
  uint64_t seq = 0;
  uint8_t status_code = 0;
  std::string status_message;
  uint64_t document_count = 0;

  std::string Encode() const;
  static Status Decode(std::string_view body, CheckpointDoneMsg* out);
};

struct PingMsg {
  uint64_t token = 0;

  std::string Encode() const;
  static Status Decode(std::string_view body, PingMsg* out);
};

struct PongMsg {
  uint64_t token = 0;
  uint64_t document_count = 0;

  std::string Encode() const;
  static Status Decode(std::string_view body, PongMsg* out);
};

struct QueryDomainMsg {
  uint64_t seq = 0;
  std::string domain;

  std::string Encode() const;
  static Status Decode(std::string_view body, QueryDomainMsg* out);
};

/// warehouse::DocMeta over the wire.
struct WireDocMeta {
  uint64_t docid = 0;
  std::string url;
  std::string filename;
  uint8_t is_xml = 0;
  std::string doctype_name;
  std::string dtd_url;
  uint32_t dtdid = 0;
  std::string domain;
  int64_t last_accessed = 0;
  int64_t last_updated = 0;
  uint64_t signature = 0;
  uint8_t status = 0;  // warehouse::DocStatus
};

struct DomainDocsMsg {
  struct Doc {
    WireDocMeta meta;
    /// Serialized current version (xml::Serialize of the whole Document —
    /// Parse∘Serialize is a fixpoint, so the supervisor re-parses losslessly).
    std::string doc_xml;
    std::string doctype_name;
    std::string dtd_url;
  };
  uint64_t seq = 0;
  std::vector<Doc> docs;

  std::string Encode() const;
  static Status Decode(std::string_view body, DomainDocsMsg* out);
};

struct DtdIdReqMsg {
  std::string dtd_url;

  std::string Encode() const;
  static Status Decode(std::string_view body, DtdIdReqMsg* out);
};

struct DtdIdRespMsg {
  std::string dtd_url;
  uint32_t id = 0;

  std::string Encode() const;
  static Status Decode(std::string_view body, DtdIdRespMsg* out);
};

struct ShutdownMsg {
  std::string Encode() const;
  static Status Decode(std::string_view body, ShutdownMsg* out);
};

// -- Frame I/O ---------------------------------------------------------------

/// Ignores SIGPIPE process-wide (idempotent). A worker dying mid-write must
/// surface as an EPIPE Status on the supervisor, never a signal death; both
/// the supervisor (at first spawn) and the worker main call this.
void InstallSigpipeIgnore();

/// Writes one frame. Socket writes use send(MSG_NOSIGNAL) (EPIPE instead of
/// SIGPIPE even if the handler was replaced); pipes fall back to write().
/// `deadline_ms` bounds the total blocking time (0 = no bound): the fd is
/// polled for writability and written in non-blocking slices, so a wedged
/// peer with a full socket buffer yields DeadlineExceeded instead of
/// blocking the scatter thread forever.
Status WriteFrame(int fd, std::string_view payload, uint32_t deadline_ms = 0);

/// Reads exactly one frame into `payload`. Blocking (EINTR-safe).
/// Errors: IOError on EOF/read failure, Corruption on a bad length or CRC.
/// `deadline_ms` bounds the wait for the *first* header byte (0 = block).
Status ReadFrame(int fd, std::string* payload, uint32_t deadline_ms = 0);

/// The MsgType of a frame payload; returns false on an empty or unknown-type
/// payload.
bool PeekType(std::string_view payload, MsgType* out);

}  // namespace xymon::ipc

#endif  // XYMON_IPC_WIRE_H_
