#include "src/ipc/wire.h"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstring>
#include <functional>
#include <mutex>

#include "src/storage/log_store.h"

namespace xymon::ipc {

namespace {

using steady = std::chrono::steady_clock;

uint32_t ElapsedMs(steady::time_point start) {
  return static_cast<uint32_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(steady::now() -
                                                            start)
          .count());
}

void PutU32(std::string* buf, uint32_t v) {
  char b[4];
  b[0] = static_cast<char>(v & 0xFF);
  b[1] = static_cast<char>((v >> 8) & 0xFF);
  b[2] = static_cast<char>((v >> 16) & 0xFF);
  b[3] = static_cast<char>((v >> 24) & 0xFF);
  buf->append(b, 4);
}

uint32_t GetU32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

Status CorruptMsg(const char* what) {
  return Status::Corruption(std::string("wire: malformed ") + what);
}

}  // namespace

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "Hello";
    case MsgType::kHelloAck: return "HelloAck";
    case MsgType::kOpenPartition: return "OpenPartition";
    case MsgType::kReplicaOp: return "ReplicaOp";
    case MsgType::kDomainRule: return "DomainRule";
    case MsgType::kCmdAck: return "CmdAck";
    case MsgType::kSlot: return "Slot";
    case MsgType::kSlotResult: return "SlotResult";
    case MsgType::kCheckpoint: return "Checkpoint";
    case MsgType::kCheckpointDone: return "CheckpointDone";
    case MsgType::kPing: return "Ping";
    case MsgType::kPong: return "Pong";
    case MsgType::kQueryDomain: return "QueryDomain";
    case MsgType::kDomainDocs: return "DomainDocs";
    case MsgType::kDtdIdReq: return "DtdIdReq";
    case MsgType::kDtdIdResp: return "DtdIdResp";
    case MsgType::kShutdown: return "Shutdown";
  }
  return "unknown";
}

// -- WireWriter / WireReader -------------------------------------------------

void WireWriter::U32(uint32_t v) { PutU32(&buf_, v); }

void WireWriter::U64(uint64_t v) {
  U32(static_cast<uint32_t>(v & 0xFFFFFFFFu));
  U32(static_cast<uint32_t>(v >> 32));
}

void WireWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

bool WireReader::U8(uint8_t* out) {
  if (!ok_ || data_.size() - pos_ < 1) return ok_ = false;
  *out = static_cast<uint8_t>(data_[pos_++]);
  return true;
}

bool WireReader::U32(uint32_t* out) {
  if (!ok_ || data_.size() - pos_ < 4) return ok_ = false;
  *out = GetU32(data_.data() + pos_);
  pos_ += 4;
  return true;
}

bool WireReader::U64(uint64_t* out) {
  uint32_t lo = 0, hi = 0;
  if (!U32(&lo) || !U32(&hi)) return false;
  *out = static_cast<uint64_t>(lo) | static_cast<uint64_t>(hi) << 32;
  return true;
}

bool WireReader::I64(int64_t* out) {
  uint64_t v = 0;
  if (!U64(&v)) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

bool WireReader::Str(std::string* out) {
  uint32_t len = 0;
  if (!U32(&len)) return false;
  // The length is validated against the bytes actually present before any
  // allocation — a bit-flipped length cannot drive an oversized reserve.
  if (data_.size() - pos_ < len) return ok_ = false;
  out->assign(data_.data() + pos_, len);
  pos_ += len;
  return true;
}

bool WireReader::View(std::string_view* out) {
  uint32_t len = 0;
  if (!U32(&len)) return false;
  if (data_.size() - pos_ < len) return ok_ = false;
  *out = data_.substr(pos_, len);
  pos_ += len;
  return true;
}

Status DecodeStatus(uint8_t code, std::string message) {
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk: return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case StatusCode::kNotFound: return Status::NotFound(std::move(message));
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(std::move(message));
    case StatusCode::kCorruption: return Status::Corruption(std::move(message));
    case StatusCode::kIOError: return Status::IOError(std::move(message));
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(std::move(message));
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(std::move(message));
    case StatusCode::kUnimplemented:
      return Status::Unimplemented(std::move(message));
    case StatusCode::kParseError: return Status::ParseError(std::move(message));
    case StatusCode::kUnavailable:
      return Status::Unavailable(std::move(message));
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(message));
  }
  return Status::Corruption("wire: unknown status code " +
                            std::to_string(code));
}

// -- Message encode/decode ---------------------------------------------------

std::string HelloMsg::Encode() const {
  WireWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kHello));
  w.U32(magic);
  w.U32(version);
  w.U32(shard_index);
  w.U32(num_shards);
  w.U32(max_parse_failures);
  w.U32(static_cast<uint32_t>(faults.size()));
  for (const WireFault& f : faults) {
    w.U8(f.stage);
    w.U8(f.kind);
    w.U32(f.nth);
    w.U32(f.stall_ms);
    w.Str(f.url);
  }
  return w.Take();
}

Status HelloMsg::Decode(std::string_view body, HelloMsg* out) {
  WireReader r(body);
  uint32_t n = 0;
  if (!r.U32(&out->magic) || !r.U32(&out->version) ||
      !r.U32(&out->shard_index) || !r.U32(&out->num_shards) ||
      !r.U32(&out->max_parse_failures) || !r.U32(&n)) {
    return CorruptMsg("Hello");
  }
  out->faults.clear();
  for (uint32_t i = 0; i < n; ++i) {
    WireFault f;
    if (!r.U8(&f.stage) || !r.U8(&f.kind) || !r.U32(&f.nth) ||
        !r.U32(&f.stall_ms) || !r.Str(&f.url)) {
      return CorruptMsg("Hello fault");
    }
    out->faults.push_back(std::move(f));
  }
  if (!r.AtEnd()) return CorruptMsg("Hello (trailing bytes)");
  return Status::OK();
}

std::string HelloAckMsg::Encode() const {
  WireWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kHelloAck));
  w.U32(version);
  w.U64(pid);
  return w.Take();
}

Status HelloAckMsg::Decode(std::string_view body, HelloAckMsg* out) {
  WireReader r(body);
  if (!r.U32(&out->version) || !r.U64(&out->pid) || !r.AtEnd()) {
    return CorruptMsg("HelloAck");
  }
  return Status::OK();
}

std::string OpenPartitionMsg::Encode() const {
  WireWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kOpenPartition));
  w.U64(seq);
  w.Str(path);
  w.U32(fsync_every_n);
  w.U64(auto_checkpoint_bytes);
  return w.Take();
}

Status OpenPartitionMsg::Decode(std::string_view body, OpenPartitionMsg* out) {
  WireReader r(body);
  if (!r.U64(&out->seq) || !r.Str(&out->path) || !r.U32(&out->fsync_every_n) ||
      !r.U64(&out->auto_checkpoint_bytes) || !r.AtEnd()) {
    return CorruptMsg("OpenPartition");
  }
  return Status::OK();
}

namespace {

// Enums and flags travel as one byte; decoding rejects a byte past `max`.
bool EnumU8(WireReader* r, uint8_t max, uint8_t* out) {
  return r->U8(out) && *out <= max;
}

void EncodeCondition(WireWriter* w, const alerters::Condition& c) {
  w->U8(static_cast<uint8_t>(c.kind));
  w->Str(c.str_value);
  w->U64(c.num_value);
  w->I64(c.date_value);
  w->U8(static_cast<uint8_t>(c.cmp));
  w->U8(static_cast<uint8_t>(c.status));
  w->U8(c.change_op.has_value() ? 1 + static_cast<uint8_t>(*c.change_op) : 0);
  w->Str(c.tag);
  w->Str(c.word);
  w->U8(c.strict ? 1 : 0);
}

bool DecodeCondition(WireReader* r, alerters::Condition* c) {
  using alerters::ConditionKind;
  uint8_t kind, cmp, status, op, strict;
  if (!EnumU8(r, static_cast<uint8_t>(ConditionKind::kElementChange), &kind) ||
      !r->Str(&c->str_value) || !r->U64(&c->num_value) ||
      !r->I64(&c->date_value) ||
      !EnumU8(r, static_cast<uint8_t>(alerters::Comparator::kGt), &cmp) ||
      !EnumU8(r, static_cast<uint8_t>(warehouse::DocStatus::kDeleted),
              &status) ||
      !EnumU8(r, 1 + static_cast<uint8_t>(xmldiff::ChangeOp::kDeleted), &op) ||
      !r->Str(&c->tag) || !r->Str(&c->word) || !EnumU8(r, 1, &strict)) {
    return false;
  }
  c->kind = static_cast<ConditionKind>(kind);
  c->cmp = static_cast<alerters::Comparator>(cmp);
  c->status = static_cast<warehouse::DocStatus>(status);
  c->change_op.reset();
  if (op != 0) c->change_op = static_cast<xmldiff::ChangeOp>(op - 1);
  c->strict = strict != 0;
  return true;
}

}  // namespace

std::string ReplicaOpMsg::Encode() const {
  WireWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kReplicaOp));
  w.U64(seq);
  w.U8(static_cast<uint8_t>(op));
  w.U32(id);
  EncodeCondition(&w, condition);
  w.U32(static_cast<uint32_t>(events.size()));
  for (mqp::AtomicEvent e : events) w.U32(e);
  w.Str(binding.subscription);
  w.Str(binding.query_name);
  w.U8(static_cast<uint8_t>(binding.select.kind));
  w.Str(binding.select.template_xml);
  w.Str(binding.select.variable);
  const sublang::MonitoringFrom from = binding.from.value_or(
      sublang::MonitoringFrom{});
  w.U8(binding.from.has_value() ? 1 : 0);
  w.Str(from.var);
  w.Str(from.tag);
  w.U8(from.descendant ? 1 : 0);
  w.U32(static_cast<uint32_t>(binding.conditions.size()));
  for (const alerters::Condition& c : binding.conditions) {
    EncodeCondition(&w, c);
  }
  w.U32(binding.slot);
  return w.Take();
}

Status ReplicaOpMsg::Decode(std::string_view body, ReplicaOpMsg* out) {
  WireReader r(body);
  manager::QueryBinding& b = out->binding;
  sublang::MonitoringFrom from;
  uint8_t op, select_kind, has_from, descendant;
  uint32_t events = 0, conditions = 0;
  if (!r.U64(&out->seq) ||
      !EnumU8(&r, static_cast<uint8_t>(Op::kUnregisterComplex), &op) ||
      !r.U32(&out->id) || !DecodeCondition(&r, &out->condition) ||
      !r.U32(&events)) {
    return CorruptMsg("ReplicaOp");
  }
  // Counts are never reserved up front: a corrupt one runs out of bytes
  // instead of driving an allocation.
  out->events.clear();
  for (uint32_t i = 0; i < events; ++i) {
    if (!r.U32(&out->events.emplace_back())) return CorruptMsg("ReplicaOp");
  }
  if (!r.Str(&b.subscription) || !r.Str(&b.query_name) ||
      !EnumU8(&r, static_cast<uint8_t>(sublang::SelectClause::Kind::kVariable),
              &select_kind) ||
      !r.Str(&b.select.template_xml) || !r.Str(&b.select.variable) ||
      !EnumU8(&r, 1, &has_from) || !r.Str(&from.var) || !r.Str(&from.tag) ||
      !EnumU8(&r, 1, &descendant) || !r.U32(&conditions)) {
    return CorruptMsg("ReplicaOp binding");
  }
  b.conditions.clear();
  for (uint32_t i = 0; i < conditions; ++i) {
    if (!DecodeCondition(&r, &b.conditions.emplace_back())) {
      return CorruptMsg("ReplicaOp binding");
    }
  }
  if (!r.U32(&b.slot)) return CorruptMsg("ReplicaOp binding");
  if (!r.AtEnd()) return CorruptMsg("ReplicaOp (trailing bytes)");
  out->op = static_cast<Op>(op);
  b.select.kind = static_cast<sublang::SelectClause::Kind>(select_kind);
  from.descendant = descendant != 0;
  b.from.reset();
  if (has_from != 0) b.from = std::move(from);
  return Status::OK();
}

std::string DomainRuleMsg::Encode() const {
  WireWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kDomainRule));
  w.U64(seq);
  w.Str(domain);
  w.Str(doctype_name);
  w.Str(root_tag);
  w.Str(url_substring);
  return w.Take();
}

Status DomainRuleMsg::Decode(std::string_view body, DomainRuleMsg* out) {
  WireReader r(body);
  if (!r.U64(&out->seq) || !r.Str(&out->domain) || !r.Str(&out->doctype_name) ||
      !r.Str(&out->root_tag) || !r.Str(&out->url_substring) || !r.AtEnd()) {
    return CorruptMsg("DomainRule");
  }
  return Status::OK();
}

std::string CmdAckMsg::Encode() const {
  WireWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kCmdAck));
  w.U64(seq);
  w.U8(status_code);
  w.Str(status_message);
  return w.Take();
}

Status CmdAckMsg::Decode(std::string_view body, CmdAckMsg* out) {
  WireReader r(body);
  if (!r.U64(&out->seq) || !r.U8(&out->status_code) ||
      !r.Str(&out->status_message) || !r.AtEnd()) {
    return CorruptMsg("CmdAck");
  }
  return Status::OK();
}

std::string SlotMsg::Encode() const {
  WireWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kSlot));
  w.U64(batch);
  w.U32(slot);
  w.U8(deletion);
  w.U64(docid_hint);
  w.I64(now);
  w.Str(url);
  w.Str(body);
  return w.Take();
}

Status SlotMsg::Decode(std::string_view body, SlotMsg* out) {
  WireReader r(body);
  if (!r.U64(&out->batch) || !r.U32(&out->slot) || !r.U8(&out->deletion) ||
      !r.U64(&out->docid_hint) || !r.I64(&out->now) || !r.Str(&out->url) ||
      !r.Str(&out->body) || !r.AtEnd()) {
    return CorruptMsg("Slot");
  }
  return Status::OK();
}

namespace {

/// The distinct strings of one SlotResult in first-use order, each with its
/// index: open addressing over at most `capacity` strings, no allocation
/// per entry.
class StringTable {
 public:
  explicit StringTable(size_t capacity)
      : buckets_(std::bit_ceil(capacity * 2 + 1), 0) {
    entries_.reserve(capacity);
  }

  uint32_t Intern(std::string_view s) {
    const size_t mask = buckets_.size() - 1;
    for (size_t i = std::hash<std::string_view>{}(s) & mask;;
         i = (i + 1) & mask) {
      uint32_t& bucket = buckets_[i];  // entry index + 1; 0 = empty
      if (bucket == 0) {
        entries_.push_back(s);
        bucket = static_cast<uint32_t>(entries_.size());
        return bucket - 1;
      }
      if (entries_[bucket - 1] == s) return bucket - 1;
    }
  }
  const std::vector<std::string_view>& entries() const { return entries_; }

 private:
  std::vector<uint32_t> buckets_;
  std::vector<std::string_view> entries_;
};

}  // namespace

std::string SlotResultMsg::Encode() const {
  WireWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kSlotResult));
  w.U64(batch);
  w.U32(slot);
  w.U8(processed);
  w.U8(degraded);
  w.U8(alert);
  w.U8(failed);
  w.Str(failed_stage);
  w.U8(status_code);
  w.Str(status_message);
  // The string table, in first-use order, then the actions as indexes.
  StringTable table(actions.size() * 4);
  std::vector<uint32_t> refs;
  refs.reserve(actions.size() * 4);
  for (const WireAction& a : actions) {
    for (const SharedString* field :
         {&a.subscription, &a.query_name, &a.payload_xml, &a.event_key}) {
      refs.push_back(table.Intern(*field));
    }
  }
  w.U32(static_cast<uint32_t>(table.entries().size()));
  for (std::string_view entry : table.entries()) w.Str(entry);
  w.U32(static_cast<uint32_t>(actions.size()));
  for (size_t i = 0; i < actions.size(); ++i) {
    w.U8(actions[i].kind);
    for (size_t f = 0; f < 4; ++f) w.U32(refs[i * 4 + f]);
  }
  for (const WireStageDelta* d : {&ingest, &detect, &match, &notify}) {
    w.U64(d->documents);
    w.U64(d->micros);
  }
  w.U64(document_count);
  return w.Take();
}

Status SlotResultMsg::Decode(std::string_view body, SlotResultMsg* out) {
  WireReader r(body);
  uint32_t strings = 0, n = 0;
  if (!r.U64(&out->batch) || !r.U32(&out->slot) || !r.U8(&out->processed) ||
      !r.U8(&out->degraded) || !r.U8(&out->alert) || !r.U8(&out->failed) ||
      !r.Str(&out->failed_stage) || !r.U8(&out->status_code) ||
      !r.Str(&out->status_message) || !r.U32(&strings)) {
    return CorruptMsg("SlotResult");
  }
  // Counts are never reserved up front (see ReplicaOpMsg::Decode).
  std::vector<SharedString> table;
  for (uint32_t i = 0; i < strings; ++i) {
    std::string_view entry;
    if (!r.View(&entry)) return CorruptMsg("SlotResult string table");
    table.emplace_back(entry);
  }
  if (!r.U32(&n)) return CorruptMsg("SlotResult");
  out->actions.clear();
  for (uint32_t i = 0; i < n; ++i) {
    WireAction a;
    if (!EnumU8(&r, 1, &a.kind)) return CorruptMsg("SlotResult action");
    for (SharedString* field :
         {&a.subscription, &a.query_name, &a.payload_xml, &a.event_key}) {
      uint32_t ref = 0;
      if (!r.U32(&ref)) return CorruptMsg("SlotResult action");
      if (ref >= table.size()) {
        return Status::Corruption(
            "wire: SlotResult action " + std::to_string(i) +
            " names string " + std::to_string(ref) + " of a table of " +
            std::to_string(table.size()));
      }
      *field = table[ref];
    }
    out->actions.push_back(std::move(a));
  }
  for (WireStageDelta* d : {&out->ingest, &out->detect, &out->match,
                            &out->notify}) {
    if (!r.U64(&d->documents) || !r.U64(&d->micros)) {
      return CorruptMsg("SlotResult counters");
    }
  }
  if (!r.U64(&out->document_count) || !r.AtEnd()) {
    return CorruptMsg("SlotResult");
  }
  return Status::OK();
}

std::string CheckpointMsg::Encode() const {
  WireWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kCheckpoint));
  w.U64(seq);
  return w.Take();
}

Status CheckpointMsg::Decode(std::string_view body, CheckpointMsg* out) {
  WireReader r(body);
  if (!r.U64(&out->seq) || !r.AtEnd()) return CorruptMsg("Checkpoint");
  return Status::OK();
}

std::string CheckpointDoneMsg::Encode() const {
  WireWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kCheckpointDone));
  w.U64(seq);
  w.U8(status_code);
  w.Str(status_message);
  w.U64(document_count);
  return w.Take();
}

Status CheckpointDoneMsg::Decode(std::string_view body, CheckpointDoneMsg* out) {
  WireReader r(body);
  if (!r.U64(&out->seq) || !r.U8(&out->status_code) ||
      !r.Str(&out->status_message) || !r.U64(&out->document_count) ||
      !r.AtEnd()) {
    return CorruptMsg("CheckpointDone");
  }
  return Status::OK();
}

std::string PingMsg::Encode() const {
  WireWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kPing));
  w.U64(token);
  return w.Take();
}

Status PingMsg::Decode(std::string_view body, PingMsg* out) {
  WireReader r(body);
  if (!r.U64(&out->token) || !r.AtEnd()) return CorruptMsg("Ping");
  return Status::OK();
}

std::string PongMsg::Encode() const {
  WireWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kPong));
  w.U64(token);
  w.U64(document_count);
  return w.Take();
}

Status PongMsg::Decode(std::string_view body, PongMsg* out) {
  WireReader r(body);
  if (!r.U64(&out->token) || !r.U64(&out->document_count) || !r.AtEnd()) {
    return CorruptMsg("Pong");
  }
  return Status::OK();
}

std::string QueryDomainMsg::Encode() const {
  WireWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kQueryDomain));
  w.U64(seq);
  w.Str(domain);
  return w.Take();
}

Status QueryDomainMsg::Decode(std::string_view body, QueryDomainMsg* out) {
  WireReader r(body);
  if (!r.U64(&out->seq) || !r.Str(&out->domain) || !r.AtEnd()) {
    return CorruptMsg("QueryDomain");
  }
  return Status::OK();
}

namespace {

void EncodeMeta(WireWriter* w, const WireDocMeta& m) {
  w->U64(m.docid);
  w->Str(m.url);
  w->Str(m.filename);
  w->U8(m.is_xml);
  w->Str(m.doctype_name);
  w->Str(m.dtd_url);
  w->U32(m.dtdid);
  w->Str(m.domain);
  w->I64(m.last_accessed);
  w->I64(m.last_updated);
  w->U64(m.signature);
  w->U8(m.status);
}

bool DecodeMeta(WireReader* r, WireDocMeta* m) {
  return r->U64(&m->docid) && r->Str(&m->url) && r->Str(&m->filename) &&
         r->U8(&m->is_xml) && r->Str(&m->doctype_name) && r->Str(&m->dtd_url) &&
         r->U32(&m->dtdid) && r->Str(&m->domain) && r->I64(&m->last_accessed) &&
         r->I64(&m->last_updated) && r->U64(&m->signature) && r->U8(&m->status);
}

}  // namespace

std::string DomainDocsMsg::Encode() const {
  WireWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kDomainDocs));
  w.U64(seq);
  w.U32(static_cast<uint32_t>(docs.size()));
  for (const Doc& d : docs) {
    EncodeMeta(&w, d.meta);
    w.Str(d.doc_xml);
    w.Str(d.doctype_name);
    w.Str(d.dtd_url);
  }
  return w.Take();
}

Status DomainDocsMsg::Decode(std::string_view body, DomainDocsMsg* out) {
  WireReader r(body);
  uint32_t n = 0;
  if (!r.U64(&out->seq) || !r.U32(&n)) return CorruptMsg("DomainDocs");
  out->docs.clear();
  for (uint32_t i = 0; i < n; ++i) {
    Doc d;
    if (!DecodeMeta(&r, &d.meta) || !r.Str(&d.doc_xml) ||
        !r.Str(&d.doctype_name) || !r.Str(&d.dtd_url)) {
      return CorruptMsg("DomainDocs doc");
    }
    out->docs.push_back(std::move(d));
  }
  if (!r.AtEnd()) return CorruptMsg("DomainDocs (trailing bytes)");
  return Status::OK();
}

std::string DtdIdReqMsg::Encode() const {
  WireWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kDtdIdReq));
  w.Str(dtd_url);
  return w.Take();
}

Status DtdIdReqMsg::Decode(std::string_view body, DtdIdReqMsg* out) {
  WireReader r(body);
  if (!r.Str(&out->dtd_url) || !r.AtEnd()) return CorruptMsg("DtdIdReq");
  return Status::OK();
}

std::string DtdIdRespMsg::Encode() const {
  WireWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kDtdIdResp));
  w.Str(dtd_url);
  w.U32(id);
  return w.Take();
}

Status DtdIdRespMsg::Decode(std::string_view body, DtdIdRespMsg* out) {
  WireReader r(body);
  if (!r.Str(&out->dtd_url) || !r.U32(&out->id) || !r.AtEnd()) {
    return CorruptMsg("DtdIdResp");
  }
  return Status::OK();
}

std::string ShutdownMsg::Encode() const {
  WireWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kShutdown));
  return w.Take();
}

Status ShutdownMsg::Decode(std::string_view body, ShutdownMsg* out) {
  (void)out;
  if (!body.empty()) return CorruptMsg("Shutdown");
  return Status::OK();
}

// -- Frame I/O ---------------------------------------------------------------

void InstallSigpipeIgnore() {
  static std::once_flag once;
  std::call_once(once, [] { ::signal(SIGPIPE, SIG_IGN); });
}

namespace {

/// One bounded write attempt: send(MSG_NOSIGNAL | MSG_DONTWAIT) on sockets,
/// plain write on pipes. Returns bytes written, 0 on would-block, -1 on
/// error (errno preserved).
ssize_t WriteSome(int fd, const char* data, size_t len, bool* is_socket) {
  if (*is_socket) {
    ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) return n;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    if (errno != ENOTSOCK) return -1;
    *is_socket = false;  // a pipe (tests); fall through to write()
  }
  ssize_t n = ::write(fd, data, len);
  if (n >= 0) return n;
  return errno == EAGAIN || errno == EWOULDBLOCK ? 0 : -1;
}

}  // namespace

Status WriteFrame(int fd, std::string_view payload, uint32_t deadline_ms) {
  if (payload.size() > kMaxFrameLen) {
    return Status::InvalidArgument("wire: frame payload over " +
                                   std::to_string(kMaxFrameLen) + " bytes");
  }
  std::string frame;
  frame.reserve(kFrameHeaderLen + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, storage::Crc32(payload));
  frame.append(payload.data(), payload.size());

  const auto start = steady::now();
  bool is_socket = true;
  size_t off = 0;
  while (off < frame.size()) {
    ssize_t n = WriteSome(fd, frame.data() + off, frame.size() - off,
                          &is_socket);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("wire: write failed: ") +
                             ::strerror(errno));
    }
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    // Would block: poll for writability, bounded by the deadline.
    int wait = -1;
    if (deadline_ms > 0) {
      uint32_t elapsed = ElapsedMs(start);
      if (elapsed >= deadline_ms) {
        return Status::DeadlineExceeded(
            "wire: write blocked past " + std::to_string(deadline_ms) + "ms");
      }
      wait = static_cast<int>(deadline_ms - elapsed);
    }
    struct pollfd pfd{fd, POLLOUT, 0};
    int rc = ::poll(&pfd, 1, wait);
    if (rc < 0 && errno != EINTR) {
      return Status::IOError(std::string("wire: poll failed: ") +
                             ::strerror(errno));
    }
    if (rc == 0) {
      return Status::DeadlineExceeded(
          "wire: write blocked past " + std::to_string(deadline_ms) + "ms");
    }
    if (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) {
      // Keep trying to write: the error surfaces as EPIPE/ECONNRESET from
      // send, with a precise errno.
      continue;
    }
  }
  return Status::OK();
}

namespace {

Status ReadExact(int fd, char* buf, size_t len) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::read(fd, buf + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("wire: read failed: ") +
                             ::strerror(errno));
    }
    if (n == 0) {
      return Status::IOError(off == 0 ? "wire: peer closed"
                                      : "wire: truncated frame (EOF)");
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status ReadFrame(int fd, std::string* payload, uint32_t deadline_ms) {
  if (deadline_ms > 0) {
    const auto start = steady::now();
    while (true) {
      uint32_t elapsed = ElapsedMs(start);
      if (elapsed >= deadline_ms) {
        return Status::DeadlineExceeded("wire: no frame within " +
                                        std::to_string(deadline_ms) + "ms");
      }
      struct pollfd pfd{fd, POLLIN, 0};
      int rc = ::poll(&pfd, 1, static_cast<int>(deadline_ms - elapsed));
      if (rc < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(std::string("wire: poll failed: ") +
                               ::strerror(errno));
      }
      if (rc == 0) {
        return Status::DeadlineExceeded("wire: no frame within " +
                                        std::to_string(deadline_ms) + "ms");
      }
      break;  // readable (or EOF/err — read() reports which)
    }
  }
  char header[kFrameHeaderLen];
  XYMON_RETURN_IF_ERROR(ReadExact(fd, header, sizeof(header)));
  uint32_t len = GetU32(header);
  uint32_t crc = GetU32(header + 4);
  if (len > kMaxFrameLen) {
    return Status::Corruption("wire: frame length " + std::to_string(len) +
                              " over the " + std::to_string(kMaxFrameLen) +
                              "-byte cap");
  }
  payload->resize(len);
  if (len > 0) XYMON_RETURN_IF_ERROR(ReadExact(fd, payload->data(), len));
  if (storage::Crc32(*payload) != crc) {
    return Status::Corruption("wire: frame CRC mismatch");
  }
  return Status::OK();
}

bool PeekType(std::string_view payload, MsgType* out) {
  if (payload.empty()) return false;
  uint8_t t = static_cast<uint8_t>(payload[0]);
  if (t < static_cast<uint8_t>(MsgType::kHello) ||
      t > static_cast<uint8_t>(MsgType::kShutdown)) {
    return false;
  }
  *out = static_cast<MsgType>(t);
  return true;
}

}  // namespace xymon::ipc
