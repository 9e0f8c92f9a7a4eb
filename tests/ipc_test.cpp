// Shard worker processes (DESIGN.md §14): the framed wire protocol, the
// supervisor/worker handshake, and kill-and-restart containment.
//
// Four tiers:
//   1. Wire format — frame/message roundtrips, then the corruption sweep:
//      truncations, bit flips, oversized length headers and seeded garbage
//      against both the frame reader and every message decoder (clean
//      Status, never a crash or an unbounded allocation).
//   2. Worker protocol — a real worker process fed garbage or a bad
//      handshake exits with the protocol code instead of crashing.
//   3. Equivalence — the seeded workload (monitoring subscriptions plus a
//      continuous query over the remote document source) at shard_mode =
//      process with 2 and 4 workers delivers bit-for-bit the inline
//      1-shard mail, with the same document and notification counts.
//   4. Containment — a stage throw inside a worker fails only its slot;
//      SIGKILL at every batch boundary, a mid-batch wedge caught by the
//      heartbeat, and a worker dying mid-write: workers are respawned from
//      their storage partitions, no acked subscription is lost, and the
//      supervisor never dies.
//
// Wall-clock bounds scale with XYMON_TEST_TIME_SCALE (tests/time_scale.h).

#include <gtest/gtest.h>

#include <csignal>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "crash_sweep.h"
#include "time_scale.h"
#include "src/ipc/wire.h"
#include "src/system/monitor.h"
#include "src/system/stage_faults.h"
#include "src/webstub/crawler.h"

namespace xymon {
namespace {

using ipc::MsgType;
using ipc::ReadFrame;
using ipc::WriteFrame;
using system::ShardMode;
using system::StageFaultInjector;
using system::StageFaultKind;
using system::StageFaultPlan;
using system::StageKind;
using system::XylemeMonitor;

constexpr char kWorkerBin[] = XYMON_WORKER_BIN_PATH;

/// Fresh directory under the ctest working directory (the build tree), so
/// process-mode partitions live on the real filesystem the workers can open.
struct TempDir {
  explicit TempDir(const std::string& name)
      : path("ipc_test_tmp_" + name) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

bool WaitFor(const std::function<bool()>& pred, uint32_t ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(ScaledMs(ms));
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

// ------------------------------------------------------------ frame layer --

TEST(WireFrameTest, RoundtripsPayloadsOverAPipe) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  // Largest frame stays under the 64 KiB pipe buffer: the test writes and
  // reads on one thread, so the whole frame must fit without blocking.
  const std::string payloads[] = {std::string(), std::string("x"),
                                  std::string(40000, 'q'),
                                  std::string("\x00\xff\x7f binary \n", 12)};
  for (const std::string& payload : payloads) {
    ASSERT_TRUE(WriteFrame(fds[1], payload).ok());
    std::string got;
    ASSERT_TRUE(ReadFrame(fds[0], &got).ok());
    EXPECT_EQ(got, payload);
  }
  close(fds[0]);
  close(fds[1]);
}

TEST(WireFrameTest, PeekTypeRejectsEmptyAndUnknown) {
  MsgType type;
  EXPECT_FALSE(ipc::PeekType("", &type));
  EXPECT_FALSE(ipc::PeekType(std::string(1, '\x63'), &type));  // type 99
  EXPECT_FALSE(ipc::PeekType(std::string(1, '\x00'), &type));
  ASSERT_TRUE(ipc::PeekType(ipc::PingMsg{7}.Encode(), &type));
  EXPECT_EQ(type, MsgType::kPing);
}

TEST(WireFrameTest, ReadDeadlineExpiresWithoutData) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  std::string payload;
  Status st = ReadFrame(fds[0], &payload, /*deadline_ms=*/50);
  EXPECT_FALSE(st.ok());
  close(fds[0]);
  close(fds[1]);
}

// --------------------------------------------------------- message layer --

TEST(WireMessageTest, HelloRoundtripsWithFaultPlan) {
  ipc::HelloMsg msg;
  msg.shard_index = 3;
  msg.num_shards = 4;
  msg.max_parse_failures = 7;
  msg.faults.push_back({2, 1, 5, 1500, "http://w0.example/doc.xml"});
  msg.faults.push_back({1, 3, 1, 0, "http://w1.example/x.xml"});

  std::string payload = msg.Encode();
  MsgType type;
  ASSERT_TRUE(ipc::PeekType(payload, &type));
  ASSERT_EQ(type, MsgType::kHello);
  ipc::HelloMsg got;
  ASSERT_TRUE(ipc::HelloMsg::Decode(
                  std::string_view(payload).substr(1), &got)
                  .ok());
  EXPECT_EQ(got.magic, ipc::kWireMagic);
  EXPECT_EQ(got.version, ipc::kWireVersion);
  EXPECT_EQ(got.shard_index, 3u);
  EXPECT_EQ(got.num_shards, 4u);
  EXPECT_EQ(got.max_parse_failures, 7u);
  ASSERT_EQ(got.faults.size(), 2u);
  EXPECT_EQ(got.faults[0].stage, 2);
  EXPECT_EQ(got.faults[0].kind, 1);
  EXPECT_EQ(got.faults[0].nth, 5u);
  EXPECT_EQ(got.faults[0].stall_ms, 1500u);
  EXPECT_EQ(got.faults[0].url, "http://w0.example/doc.xml");
  EXPECT_EQ(got.faults[1].url, "http://w1.example/x.xml");
}

TEST(WireMessageTest, SlotResultRoundtripsActionsAndDeltas) {
  ipc::SlotResultMsg msg;
  msg.batch = 42;
  msg.slot = 7;
  msg.processed = 1;
  msg.alert = 1;
  msg.failed = 1;
  msg.failed_stage = "detect";
  msg.status_code = 5;
  msg.status_message = "stage threw";
  msg.actions.push_back({1, "Sub0", "Q", "<Changed/>", "ev:k"});
  msg.actions.push_back({0, "Sub1", "", "", ""});
  msg.ingest = {3, 1200};
  msg.detect = {3, 450};
  msg.match = {2, 90};
  msg.notify = {1, 30};
  msg.document_count = 19;

  std::string payload = msg.Encode();
  ipc::SlotResultMsg got;
  ASSERT_TRUE(ipc::SlotResultMsg::Decode(
                  std::string_view(payload).substr(1), &got)
                  .ok());
  EXPECT_EQ(got.batch, 42u);
  EXPECT_EQ(got.slot, 7u);
  EXPECT_EQ(got.processed, 1);
  EXPECT_EQ(got.alert, 1);
  EXPECT_EQ(got.failed, 1);
  EXPECT_EQ(got.failed_stage, "detect");
  EXPECT_EQ(got.status_code, 5);
  EXPECT_EQ(got.status_message, "stage threw");
  ASSERT_EQ(got.actions.size(), 2u);
  EXPECT_EQ(got.actions[0].subscription, "Sub0");
  EXPECT_EQ(got.actions[0].payload_xml, "<Changed/>");
  EXPECT_EQ(got.actions[0].event_key, "ev:k");
  EXPECT_EQ(got.ingest.micros, 1200u);
  EXPECT_EQ(got.notify.documents, 1u);
  EXPECT_EQ(got.document_count, 19u);
}

TEST(WireMessageTest, SlotResultSendsEachDistinctStringOnce) {
  // A document's actions as stage 4a builds them: one payload shared by
  // every notification, one trigger key per query.
  const std::string payload(200, 'p');
  auto encode = [&](size_t queries) {
    ipc::SlotResultMsg msg;
    SharedString shared = payload;
    for (size_t i = 0; i < queries; ++i) {
      std::string sub = "S" + std::to_string(i);
      msg.actions.push_back({0, sub, "q", shared, ""});
      msg.actions.push_back({1, "", "", "", sub + ".q"});
    }
    return msg.Encode();
  };
  const std::string one = encode(1);
  const std::string many = encode(50);
  // The payload crosses once, however many actions carry it.
  EXPECT_LT(many.size() - one.size(), 49 * payload.size());

  ipc::SlotResultMsg got;
  ASSERT_TRUE(
      ipc::SlotResultMsg::Decode(std::string_view(many).substr(1), &got).ok());
  ASSERT_EQ(got.actions.size(), 100u);
  for (size_t i = 0; i < 50; ++i) {
    const ipc::WireAction& a = got.actions[2 * i];
    EXPECT_EQ(a.subscription, "S" + std::to_string(i));
    EXPECT_EQ(a.payload_xml, payload);
    // Decoding keeps the sharing: one buffer for the whole document.
    EXPECT_TRUE(a.payload_xml.SharesWith(got.actions[0].payload_xml));
    EXPECT_EQ(got.actions[2 * i + 1].event_key, "S" + std::to_string(i) + ".q");
  }
}

TEST(WireCorruptionTest, OutOfRangeStringIndexIsRejected) {
  // One action naming strings 0..3 of a four-entry table, each index then
  // pointed past the table in turn.
  auto build = [](uint32_t field, uint32_t value) {
    ipc::WireWriter w;
    w.U8(static_cast<uint8_t>(MsgType::kSlotResult));
    w.U64(1);   // batch
    w.U32(0);   // slot
    for (int i = 0; i < 4; ++i) w.U8(0);  // processed, degraded, alert, failed
    w.Str("");  // failed_stage
    w.U8(0);    // status code
    w.Str("");  // status message
    w.U32(4);
    for (const char* entry : {"S", "q", "<p/>", "S.q"}) w.Str(entry);
    w.U32(1);
    w.U8(0);
    for (uint32_t f = 0; f < 4; ++f) w.U32(f == field ? value : f);
    for (int i = 0; i < 8; ++i) w.U64(0);  // stage counters
    w.U64(0);                              // document count
    return w.Take();
  };
  ipc::SlotResultMsg got;
  ASSERT_TRUE(ipc::SlotResultMsg::Decode(
                  std::string_view(build(0, 0)).substr(1), &got)
                  .ok());
  EXPECT_EQ(got.actions[0].payload_xml, "<p/>");
  for (uint32_t field = 0; field < 4; ++field) {
    for (uint32_t bad : {4u, 5u, 0xFFFFFFFFu}) {
      std::string payload = build(field, bad);
      Status st = ipc::SlotResultMsg::Decode(
          std::string_view(payload).substr(1), &got);
      EXPECT_TRUE(st.IsCorruption())
          << "field " << field << " index " << bad << ": " << st.ToString();
    }
  }
}

TEST(WireMessageTest, DomainDocsRoundtripsMetaAndBody) {
  ipc::DomainDocsMsg msg;
  msg.seq = 9;
  ipc::DomainDocsMsg::Doc doc;
  doc.meta = {12,       "http://art/m.xml", "f12.xml", 1,    "museum",
              "art.dtd", 4,                 "culture", 1000, 2000,
              777,      2};
  doc.doc_xml = "<museum><painting><title>t</title></painting></museum>";
  doc.doctype_name = "museum";
  doc.dtd_url = "art.dtd";
  msg.docs.push_back(doc);

  std::string payload = msg.Encode();
  ipc::DomainDocsMsg got;
  ASSERT_TRUE(ipc::DomainDocsMsg::Decode(
                  std::string_view(payload).substr(1), &got)
                  .ok());
  EXPECT_EQ(got.seq, 9u);
  ASSERT_EQ(got.docs.size(), 1u);
  EXPECT_EQ(got.docs[0].meta.docid, 12u);
  EXPECT_EQ(got.docs[0].meta.url, "http://art/m.xml");
  EXPECT_EQ(got.docs[0].meta.signature, 777u);
  EXPECT_EQ(got.docs[0].meta.status, 2);
  EXPECT_EQ(got.docs[0].doc_xml, doc.doc_xml);
}

TEST(WireMessageTest, ReplicaOpRoundtripsConditionAndBinding) {
  alerters::Condition condition{};
  condition.kind = alerters::ConditionKind::kLastUpdateCmp;
  condition.str_value = "http://w0.example/";
  condition.num_value = 42;
  condition.date_value = -7;
  condition.cmp = alerters::Comparator::kGe;
  condition.status = warehouse::DocStatus::kDeleted;
  condition.change_op = xmldiff::ChangeOp::kDeleted;
  condition.tag = "Item";
  condition.word = "w";
  condition.strict = true;
  ipc::ReplicaOpMsg msg;
  msg.seq = 9;
  msg.op = ipc::ReplicaOpMsg::Op::kUnregisterComplex;
  msg.id = 0xFFFFFFFEu;
  msg.condition = condition;
  msg.events = {2, 5, 11};
  msg.binding.subscription = "Sub";
  msg.binding.query_name = "Query";
  msg.binding.select.kind = sublang::SelectClause::Kind::kVariable;
  msg.binding.select.template_xml = "<t/>";
  msg.binding.select.variable = "X";
  msg.binding.from = sublang::MonitoringFrom{"X", "Item", false};
  msg.binding.conditions = {condition, alerters::Condition{}};

  ipc::ReplicaOpMsg got;
  std::string p = msg.Encode();
  ASSERT_TRUE(
      ipc::ReplicaOpMsg::Decode(std::string_view(p).substr(1), &got).ok());
  EXPECT_EQ(got.seq, 9u);
  EXPECT_EQ(got.op, ipc::ReplicaOpMsg::Op::kUnregisterComplex);
  EXPECT_EQ(got.id, 0xFFFFFFFEu);
  EXPECT_EQ(got.condition.Key(), condition.Key());
  EXPECT_EQ(got.condition.num_value, 42u);
  EXPECT_EQ(got.condition.date_value, -7);
  EXPECT_EQ(got.condition.status, warehouse::DocStatus::kDeleted);
  EXPECT_EQ(got.condition.change_op, xmldiff::ChangeOp::kDeleted);
  EXPECT_TRUE(got.condition.strict);
  EXPECT_EQ(got.events, (mqp::EventSet{2, 5, 11}));
  EXPECT_EQ(got.binding.subscription, "Sub");
  EXPECT_EQ(got.binding.query_name, "Query");
  EXPECT_EQ(got.binding.select.kind, sublang::SelectClause::Kind::kVariable);
  EXPECT_EQ(got.binding.select.template_xml, "<t/>");
  EXPECT_EQ(got.binding.select.variable, "X");
  ASSERT_TRUE(got.binding.from.has_value());
  EXPECT_EQ(got.binding.from->var, "X");
  EXPECT_EQ(got.binding.from->tag, "Item");
  EXPECT_FALSE(got.binding.from->descendant);
  ASSERT_EQ(got.binding.conditions.size(), 2u);
  EXPECT_EQ(got.binding.conditions[0].Key(), condition.Key());
  EXPECT_EQ(got.binding.conditions[1].Key(), alerters::Condition{}.Key());
  EXPECT_FALSE(got.binding.conditions[1].change_op.has_value());

  // Out-of-range enum bytes are corruption, not a cast.
  std::string bad = p;
  bad[1 + 8] = static_cast<char>(4);  // op, after the type byte and seq
  EXPECT_TRUE(ipc::ReplicaOpMsg::Decode(std::string_view(bad).substr(1), &got)
                  .IsCorruption());
}

TEST(WireMessageTest, SmallMessagesRoundtrip) {
  {
    ipc::CmdAckMsg msg{11, 3, "nope"};
    ipc::CmdAckMsg got;
    std::string p = msg.Encode();
    ASSERT_TRUE(
        ipc::CmdAckMsg::Decode(std::string_view(p).substr(1), &got).ok());
    EXPECT_EQ(got.seq, 11u);
    EXPECT_EQ(got.status_code, 3);
    EXPECT_EQ(got.status_message, "nope");
  }
  {
    ipc::SlotMsg msg{5, 2, 1, 40, 1234, "http://w0.example/d.xml", "<p/>"};
    ipc::SlotMsg got;
    std::string p = msg.Encode();
    ASSERT_TRUE(
        ipc::SlotMsg::Decode(std::string_view(p).substr(1), &got).ok());
    EXPECT_EQ(got.batch, 5u);
    EXPECT_EQ(got.slot, 2u);
    EXPECT_EQ(got.deletion, 1);
    EXPECT_EQ(got.docid_hint, 40u);
    EXPECT_EQ(got.now, 1234);
    EXPECT_EQ(got.url, "http://w0.example/d.xml");
    EXPECT_EQ(got.body, "<p/>");
  }
  {
    ipc::PongMsg msg{99, 17};
    ipc::PongMsg got;
    std::string p = msg.Encode();
    ASSERT_TRUE(
        ipc::PongMsg::Decode(std::string_view(p).substr(1), &got).ok());
    EXPECT_EQ(got.token, 99u);
    EXPECT_EQ(got.document_count, 17u);
  }
}

// -------------------------------------------------------- corruption sweep --

/// Writes `frame` raw, closes the write end (so a reader waiting for bytes a
/// corrupt length promised sees EOF instead of hanging), reads one frame.
Status ReadRawFrame(const std::string& frame) {
  int fds[2];
  EXPECT_EQ(pipe(fds), 0);
  ssize_t n = write(fds[1], frame.data(), frame.size());
  EXPECT_EQ(n, static_cast<ssize_t>(frame.size()));
  close(fds[1]);
  std::string payload;
  Status st = ReadFrame(fds[0], &payload);
  close(fds[0]);
  return st;
}

/// A valid encoded frame, captured through a pipe.
std::string CaptureFrame(const std::string& payload) {
  int fds[2];
  EXPECT_EQ(pipe(fds), 0);
  EXPECT_TRUE(WriteFrame(fds[1], payload).ok());
  close(fds[1]);
  std::string frame;
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) frame.append(buf, n);
  close(fds[0]);
  return frame;
}

TEST(WireCorruptionTest, EveryBitFlipIsRejected) {
  const std::string frame = CaptureFrame(ipc::PingMsg{0x1234}.Encode());
  ASSERT_EQ(frame.size(), ipc::kFrameHeaderLen + 9);
  ASSERT_TRUE(ReadRawFrame(frame).ok());  // the unflipped control

  for (size_t bit = 0; bit < frame.size() * 8; ++bit) {
    std::string flipped = frame;
    flipped[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    Status st = ReadRawFrame(flipped);
    EXPECT_FALSE(st.ok()) << "bit " << bit << " accepted";
  }
}

/// A replica operation with every optional part present: an element
/// condition with a change op and a word, a template select, a from clause.
ipc::ReplicaOpMsg SampleReplicaOp() {
  alerters::Condition condition{};
  condition.kind = alerters::ConditionKind::kElementChange;
  condition.change_op = xmldiff::ChangeOp::kUpdated;
  condition.tag = "Product";
  condition.word = "camera";
  condition.strict = true;
  ipc::ReplicaOpMsg msg;
  msg.seq = 2;
  msg.op = ipc::ReplicaOpMsg::Op::kRegisterComplex;
  msg.id = 7;
  msg.condition = condition;
  msg.events = {1, 3};
  msg.binding.subscription = "S";
  msg.binding.query_name = "Q";
  msg.binding.select.kind = sublang::SelectClause::Kind::kTemplate;
  msg.binding.select.template_xml = "<n>$URL$</n>";
  msg.binding.from = sublang::MonitoringFrom{"p", "Product", true};
  msg.binding.conditions = {condition};
  return msg;
}

TEST(WireCorruptionTest, TruncationsAreRejectedAtEveryLength) {
  const std::string frame = CaptureFrame(SampleReplicaOp().Encode());
  for (size_t len = 0; len < frame.size(); ++len) {
    Status st = ReadRawFrame(frame.substr(0, len));
    EXPECT_FALSE(st.ok()) << "truncation at " << len << " accepted";
  }
}

TEST(WireCorruptionTest, OversizedLengthIsRejectedWithoutAllocating) {
  // Header promising just past the cap, and the degenerate all-ones header:
  // both must fail on the length check alone — no payload follows.
  for (uint32_t len : {ipc::kMaxFrameLen + 1, 0xFFFFFFFFu}) {
    std::string frame(ipc::kFrameHeaderLen, '\0');
    frame[0] = static_cast<char>(len);
    frame[1] = static_cast<char>(len >> 8);
    frame[2] = static_cast<char>(len >> 16);
    frame[3] = static_cast<char>(len >> 24);
    Status st = ReadRawFrame(frame);
    EXPECT_FALSE(st.ok());
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  }
}

TEST(WireCorruptionTest, SeededGarbageNeverCrashesTheFrameReader) {
  std::mt19937 rng(0x58594D57);  // deterministic: failures reproduce
  for (int i = 0; i < 300; ++i) {
    size_t len = rng() % 64;
    std::string frame(len, '\0');
    for (char& c : frame) c = static_cast<char>(rng());
    Status st = ReadRawFrame(frame);
    EXPECT_FALSE(st.ok());
  }
}

TEST(WireCorruptionTest, DecodersRejectTruncationAndSurviveBitFlips) {
  // One representative payload per message type (type byte first).
  const std::vector<std::string> payloads = {
      ipc::HelloMsg{ipc::kWireMagic, ipc::kWireVersion, 1, 4, 3,
                    {{2, 1, 5, 1500, "http://u"}}}
          .Encode(),
      ipc::HelloAckMsg{1, 1234}.Encode(),
      ipc::OpenPartitionMsg{1, "wh.part0", 1, 1 << 20}.Encode(),
      SampleReplicaOp().Encode(),
      ipc::DomainRuleMsg{4, "culture", "museum", "museum", "art"}.Encode(),
      ipc::CmdAckMsg{5, 0, ""}.Encode(),
      ipc::SlotMsg{6, 1, 0, 7, 99, "http://u", "<p/>"}.Encode(),
      [] {
        ipc::SlotResultMsg m;
        m.batch = 7;
        m.actions.push_back({1, "S", "Q", "<x/>", "k"});
        return m.Encode();
      }(),
      ipc::CheckpointMsg{8}.Encode(),
      ipc::CheckpointDoneMsg{8, 0, "", 12}.Encode(),
      ipc::PingMsg{9}.Encode(),
      ipc::PongMsg{9, 12}.Encode(),
      ipc::QueryDomainMsg{10, "culture"}.Encode(),
      [] {
        ipc::DomainDocsMsg m;
        m.seq = 10;
        m.docs.push_back({{1, "http://u", "f", 1, "d", "u", 1, "dom", 1, 2,
                           3, 1},
                          "<d/>", "d", "u"});
        return m.Encode();
      }(),
      ipc::DtdIdReqMsg{"art.dtd"}.Encode(),
      ipc::DtdIdRespMsg{"art.dtd", 4}.Encode(),
      ipc::ShutdownMsg{}.Encode(),
  };

  // Decode the payload body with the decoder its type byte names. Returns
  // the decode status; the point is that it returns at all.
  auto decode = [](const std::string& payload) {
    MsgType type;
    if (!ipc::PeekType(payload, &type)) {
      return Status::Corruption("unknown type");
    }
    std::string_view body = std::string_view(payload).substr(1);
    switch (type) {
      case MsgType::kHello: {
        ipc::HelloMsg m;
        return ipc::HelloMsg::Decode(body, &m);
      }
      case MsgType::kHelloAck: {
        ipc::HelloAckMsg m;
        return ipc::HelloAckMsg::Decode(body, &m);
      }
      case MsgType::kOpenPartition: {
        ipc::OpenPartitionMsg m;
        return ipc::OpenPartitionMsg::Decode(body, &m);
      }
      case MsgType::kReplicaOp: {
        ipc::ReplicaOpMsg m;
        return ipc::ReplicaOpMsg::Decode(body, &m);
      }
      case MsgType::kDomainRule: {
        ipc::DomainRuleMsg m;
        return ipc::DomainRuleMsg::Decode(body, &m);
      }
      case MsgType::kCmdAck: {
        ipc::CmdAckMsg m;
        return ipc::CmdAckMsg::Decode(body, &m);
      }
      case MsgType::kSlot: {
        ipc::SlotMsg m;
        return ipc::SlotMsg::Decode(body, &m);
      }
      case MsgType::kSlotResult: {
        ipc::SlotResultMsg m;
        return ipc::SlotResultMsg::Decode(body, &m);
      }
      case MsgType::kCheckpoint: {
        ipc::CheckpointMsg m;
        return ipc::CheckpointMsg::Decode(body, &m);
      }
      case MsgType::kCheckpointDone: {
        ipc::CheckpointDoneMsg m;
        return ipc::CheckpointDoneMsg::Decode(body, &m);
      }
      case MsgType::kPing: {
        ipc::PingMsg m;
        return ipc::PingMsg::Decode(body, &m);
      }
      case MsgType::kPong: {
        ipc::PongMsg m;
        return ipc::PongMsg::Decode(body, &m);
      }
      case MsgType::kQueryDomain: {
        ipc::QueryDomainMsg m;
        return ipc::QueryDomainMsg::Decode(body, &m);
      }
      case MsgType::kDomainDocs: {
        ipc::DomainDocsMsg m;
        return ipc::DomainDocsMsg::Decode(body, &m);
      }
      case MsgType::kDtdIdReq: {
        ipc::DtdIdReqMsg m;
        return ipc::DtdIdReqMsg::Decode(body, &m);
      }
      case MsgType::kDtdIdResp: {
        ipc::DtdIdRespMsg m;
        return ipc::DtdIdRespMsg::Decode(body, &m);
      }
      case MsgType::kShutdown: {
        ipc::ShutdownMsg m;
        return ipc::ShutdownMsg::Decode(body, &m);
      }
    }
    return Status::Corruption("unhandled type");
  };

  for (const std::string& payload : payloads) {
    SCOPED_TRACE("type " + std::to_string(payload.empty() ? -1 : payload[0]));
    ASSERT_TRUE(decode(payload).ok());
    // Every proper prefix is missing at least one field (or fails the
    // trailing-bytes check): clean Corruption, never a crash.
    for (size_t len = 0; len < payload.size(); ++len) {
      Status st = decode(payload.substr(0, len));
      EXPECT_FALSE(st.ok()) << "prefix " << len << " accepted";
    }
    // Bit flips may still decode (a flipped string byte is just a different
    // string) — the requirement is bounded allocation and no crash.
    for (size_t bit = 0; bit < payload.size() * 8; ++bit) {
      std::string flipped = payload;
      flipped[bit / 8] ^= static_cast<char>(1u << (bit % 8));
      (void)decode(flipped);
    }
  }
}

// ---------------------------------------------------------- worker process --

/// Forks a worker wired to fd 3, the supervisor contract. Returns the
/// supervisor's end of the socketpair.
pid_t SpawnRawWorker(int* fd) {
  int sv[2];
  EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  pid_t pid = fork();
  if (pid == 0) {
    // Close the supervisor's end first: when fd 3 is free in the test
    // process, socketpair hands it out as sv[0], and closing sv[0] after the
    // dup2 would close the worker's own socket.
    close(sv[0]);
    if (sv[1] != 3) {
      dup2(sv[1], 3);
      close(sv[1]);
    }
    char fd_arg[] = "3";
    char* const argv[] = {const_cast<char*>(kWorkerBin), fd_arg, nullptr};
    execv(kWorkerBin, argv);
    _exit(127);
  }
  close(sv[1]);
  *fd = sv[0];
  return pid;
}

/// Bounded reap: SIGKILL + test failure instead of a hung waitpid.
int ReapWorker(pid_t pid) {
  int wstatus = 0;
  if (!WaitFor(
          [&] { return waitpid(pid, &wstatus, WNOHANG) == pid; },
          5000)) {
    kill(pid, SIGKILL);
    waitpid(pid, &wstatus, 0);
    ADD_FAILURE() << "worker did not exit in time";
  }
  return wstatus;
}

TEST(WorkerProtocolTest, GarbageFrameExitsWithProtocolCode) {
  int fd;
  pid_t pid = SpawnRawWorker(&fd);
  ASSERT_GT(pid, 0);
  // A syntactically valid frame whose CRC lies about its payload.
  std::string frame = CaptureFrame(ipc::PingMsg{1}.Encode());
  frame.back() ^= 0x40;
  ASSERT_EQ(write(fd, frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  int wstatus = ReapWorker(pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 3);
  close(fd);
}

TEST(WorkerProtocolTest, VersionMismatchIsRefusedBeforeAnyState) {
  int fd;
  pid_t pid = SpawnRawWorker(&fd);
  ASSERT_GT(pid, 0);
  ipc::HelloMsg hello;
  hello.version = ipc::kWireVersion + 1;
  ASSERT_TRUE(WriteFrame(fd, hello.Encode()).ok());
  int wstatus = ReapWorker(pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 3);
  close(fd);
}

TEST(WorkerProtocolTest, HandshakeAnswersVersionAndPid) {
  int fd;
  pid_t pid = SpawnRawWorker(&fd);
  ASSERT_GT(pid, 0);
  Status hello_st = WriteFrame(fd, ipc::HelloMsg{}.Encode());
  ASSERT_TRUE(hello_st.ok()) << hello_st.ToString();
  std::string payload;
  ASSERT_TRUE(ReadFrame(fd, &payload, ScaledMs(5000)).ok());
  MsgType type;
  ASSERT_TRUE(ipc::PeekType(payload, &type));
  ASSERT_EQ(type, MsgType::kHelloAck);
  ipc::HelloAckMsg ack;
  ASSERT_TRUE(ipc::HelloAckMsg::Decode(
                  std::string_view(payload).substr(1), &ack)
                  .ok());
  EXPECT_EQ(ack.version, ipc::kWireVersion);
  EXPECT_EQ(ack.pid, static_cast<uint64_t>(pid));
  ASSERT_TRUE(WriteFrame(fd, ipc::ShutdownMsg{}.Encode()).ok());
  int wstatus = ReapWorker(pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
  close(fd);
}

// -------------------------------------------------------------- sigpipe ----

TEST(SigpipeTest, WritingToADeadPeerIsAStatusNotASignal) {
  ipc::InstallSigpipeIgnore();
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  close(sv[0]);  // the "worker" dies
  // Big enough to defeat any kernel buffering of the first write.
  std::string payload(1 << 20, 'x');
  Status st = Status::OK();
  for (int i = 0; i < 4 && st.ok(); ++i) {
    st = WriteFrame(sv[1], payload);
  }
  EXPECT_FALSE(st.ok());  // and the process is alive to notice
  close(sv[1]);
}

// ----------------------------------------------------- monitor equivalence --

constexpr char kContinuousArt[] = R"(
subscription Art
continuous Paintings
select p/title from culture//painting p
when daily
report when immediate
)";

std::string MuseumUrl(int j) {
  return "http://art/m" + std::to_string(j) + ".xml";
}

std::string MuseumBody(int j, int round) {
  return "<museum><painting><title>t" + std::to_string(j) + "-" +
         std::to_string(round) + "</title></painting></museum>";
}

struct IpcRunResult {
  std::vector<std::pair<std::string, std::string>> mail;  // (to, body)
  uint64_t documents = 0;
  uint64_t notifications = 0;
  uint64_t respawns = 0;
  /// StatusReport() after the last round.
  std::string status;
  /// Complex events registered in the supervisor's own shards, all shards.
  size_t local_complex_events = 0;
  bool probe_notified = false;
};

XylemeMonitor::Options IpcOptions(ShardMode mode, size_t shards,
                                  const std::string& dir) {
  XylemeMonitor::Options options = testing::SweepOptions(dir, nullptr);
  options.num_shards = shards;
  options.shard_mode = mode;
  options.worker_binary = kWorkerBin;
  return options;
}

/// The seeded workload: 4 monitoring subscriptions with shared URL
/// prefixes, one continuous query over the `culture` domain (in process
/// mode this reads the partitions back over the kQueryDomain RPC), three
/// versioned rounds with a checkpoint in the middle, then a liveness probe.
/// `between_rounds` runs before each round — the kill sweep's hook.
IpcRunResult RunSeededWorkload(
    ShardMode mode, size_t shards, const std::string& dir,
    const std::function<void(XylemeMonitor&, int round)>& between_rounds =
        {}) {
  IpcRunResult out;
  SimClock clock(1000);
  auto monitor = XylemeMonitor::Open(&clock, IpcOptions(mode, shards, dir));
  EXPECT_TRUE(monitor.ok()) << monitor.status().ToString();
  if (!monitor.ok()) return out;

  (*monitor)->AddDomainRule({"culture", "", "museum", ""});
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE((*monitor)
                    ->Subscribe(testing::SweepSubText(i),
                                "u" + std::to_string(i) + "@x")
                    .ok());
  }
  EXPECT_TRUE((*monitor)->Subscribe(kContinuousArt, "curator@x").ok());

  for (int round = 1; round <= 3; ++round) {
    if (between_rounds) between_rounds(**monitor, round);
    std::vector<webstub::FetchedDoc> batch;
    for (int j = 0; j < 12; ++j) {
      batch.push_back({testing::SweepUrl(j), testing::SweepBody(j, round)});
    }
    for (int j = 0; j < 2; ++j) {
      batch.push_back({MuseumUrl(j), MuseumBody(j, round)});
    }
    (*monitor)->ProcessFetchBatch(batch);
    clock.Advance(kDay);
    (*monitor)->Tick();
    if (round == 2) {
      EXPECT_TRUE((*monitor)->CheckpointStorage().ok());
    }
  }

  for (const reporter::Email& email : (*monitor)->outbox().sent()) {
    out.mail.emplace_back(email.to, email.body);
  }
  out.documents = (*monitor)->pipeline().total_document_count();
  out.notifications = (*monitor)->stats().notifications;
  out.respawns = (*monitor)->pipeline_stats().worker_respawns;
  out.status = (*monitor)->StatusReport();
  for (size_t i = 0; i < (*monitor)->pipeline().shard_count(); ++i) {
    out.local_complex_events +=
        (*monitor)->pipeline().shard(i).mqp.matcher().size();
  }

  // No acked subscription lost: a modified page must still notify.
  uint64_t before = (*monitor)->stats().notifications;
  (*monitor)->ProcessFetch("http://w0.example/probe.xml", "<p>v1</p>");
  (*monitor)->ProcessFetch("http://w0.example/probe.xml", "<p>v2</p>");
  out.probe_notified = (*monitor)->stats().notifications > before;
  return out;
}

TEST(ProcessModeTest, TwoAndFourWorkersMatchInlineBitForBit) {
  TempDir inline_dir("equiv_inline");
  IpcRunResult inline_run =
      RunSeededWorkload(ShardMode::kThread, 1, inline_dir.path);
  ASSERT_FALSE(inline_run.mail.empty());
  ASSERT_TRUE(inline_run.probe_notified);

  for (size_t workers : {size_t{2}, size_t{4}}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    TempDir dir("equiv_p" + std::to_string(workers));
    IpcRunResult run =
        RunSeededWorkload(ShardMode::kProcess, workers, dir.path);
    EXPECT_EQ(run.mail, inline_run.mail);
    EXPECT_EQ(run.documents, inline_run.documents);
    EXPECT_EQ(run.notifications, inline_run.notifications);
    EXPECT_EQ(run.respawns, 0u);
    EXPECT_TRUE(run.probe_notified);
  }
}

// The sharing survives the socket: a worker's slot result decodes to one
// payload buffer per document, which every matching subscription buffers.
TEST(ProcessModeTest, OneAlertSharesOnePayloadAcrossTheWire) {
  TempDir dir("sharing");
  SimClock clock(1000);
  auto monitor =
      XylemeMonitor::Open(&clock, IpcOptions(ShardMode::kProcess, 2, dir.path));
  ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();
  constexpr int kSubs = 12;
  for (int i = 0; i < kSubs; ++i) {
    ASSERT_TRUE((*monitor)
                    ->Subscribe("subscription S" + std::to_string(i) +
                                    "\nmonitoring q\nselect default\nwhere "
                                    "URL extends \"http://w0.example/\" and "
                                    "modified self\nreport when count >= 100\n",
                                "u@x")
                    .ok());
  }
  (*monitor)->ProcessFetch("http://w0.example/a.xml", "<p>v1</p>");
  (*monitor)->ProcessFetch("http://w0.example/a.xml", "<p>v2</p>");
  ASSERT_EQ((*monitor)->stats().notifications, static_cast<uint64_t>(kSubs));
  const auto& first = (*monitor)->reporter().Buffered("S0");
  ASSERT_EQ(first.size(), 1u);
  for (int i = 0; i < kSubs; ++i) {
    const auto& buffer = (*monitor)->reporter().Buffered("S" + std::to_string(i));
    ASSERT_EQ(buffer.size(), 1u);
    EXPECT_TRUE(buffer[0].payload_xml.SharesWith(first[0].payload_xml)) << i;
  }
}

TEST(ProcessModeTest, StatusReportListsWorkersOnlyInProcessMode) {
  TempDir dir("report");
  SimClock clock(1000);
  auto monitor =
      XylemeMonitor::Open(&clock, IpcOptions(ShardMode::kProcess, 2, dir.path));
  ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();
  (*monitor)->ProcessFetch(testing::SweepUrl(0), testing::SweepBody(0, 1));

  std::string report = (*monitor)->StatusReport();
  EXPECT_NE(report.find("<Worker pid=\""), std::string::npos);
  EXPECT_NE(report.find("shard=\"0\""), std::string::npos);
  EXPECT_NE(report.find("shard=\"1\""), std::string::npos);
  EXPECT_NE(report.find("restarts=\"0\""), std::string::npos);
  EXPECT_NE(report.find("last_heartbeat_ms="), std::string::npos);
  EXPECT_NE(report.find("worker_crashes=\"0\""), std::string::npos);
  EXPECT_NE(report.find("worker_respawns=\"0\""), std::string::npos);

  system::PipelineStats ps = (*monitor)->pipeline_stats();
  ASSERT_EQ(ps.workers.size(), 2u);
  for (size_t i = 0; i < ps.workers.size(); ++i) {
    EXPECT_TRUE(ps.workers[i].alive);
    EXPECT_EQ(ps.workers[i].shard, i);
    EXPECT_GT(ps.workers[i].pid, 0);
    EXPECT_EQ(ps.workers[i].pid, (*monitor)->pipeline().worker_pid(i));
  }

  // Thread mode keeps the historical report byte-exactly: no Worker rows.
  SimClock clock2(1000);
  XylemeMonitor thread_monitor(&clock2);
  EXPECT_EQ(thread_monitor.StatusReport().find("<Worker"),
            std::string::npos);
}

/// The value of `attr` on the first `<element ...>` row of a status report,
/// "" if the row or the attribute is absent.
std::string ReportAttr(const std::string& report, const std::string& element,
                       const std::string& attr) {
  const size_t row = report.find("<" + element + " ");
  if (row == std::string::npos) return "";
  const size_t end = report.find('>', row);
  const std::string key = " " + attr + "=\"";
  size_t at = report.find(key, row);
  if (at == std::string::npos || at > end) return "";
  at += key.size();
  return report.substr(at, report.find('"', at) - at);
}

// The <MQP> row describes the fleet, not the supervisor's idle local shards:
// worker processes report what a thread shard reports, and the matcher's
// memory is only reported where the matcher lives.
TEST(ProcessModeTest, MqpStatusRowMatchesThreadMode) {
  TempDir thread_dir("mqp_row_thread");
  IpcRunResult thread_run =
      RunSeededWorkload(ShardMode::kThread, 1, thread_dir.path);
  TempDir dir("mqp_row_p2");
  IpcRunResult run = RunSeededWorkload(ShardMode::kProcess, 2, dir.path);

  const std::string matched =
      ReportAttr(thread_run.status, "MQP", "documents_matched");
  ASSERT_NE(matched, "");
  ASSERT_NE(matched, "0");
  EXPECT_EQ(ReportAttr(run.status, "MQP", "documents_matched"), matched);
  EXPECT_NE(ReportAttr(thread_run.status, "MQP", "complex_events"), "0");
  EXPECT_EQ(ReportAttr(run.status, "MQP", "complex_events"),
            ReportAttr(thread_run.status, "MQP", "complex_events"));
  EXPECT_NE(ReportAttr(thread_run.status, "MQP", "memory_bytes"), "");
  EXPECT_EQ(ReportAttr(run.status, "MQP", "memory_bytes"), "");
}

constexpr char kSub0OnW1[] = R"(subscription Sub0
monitoring
select <Changed url=URL/>
where URL extends "http://w1.example/" and modified self
report when immediate
)";

/// Three rounds of the 12 versioned sweep pages; before round 2 the
/// subscriptions change straight through monitor.manager(), bypassing the
/// monitor's own entry points: Sub0 moves to another URL prefix and a
/// registered user subscribes Sub1.
std::vector<std::pair<std::string, std::string>> RunManagerMutationWorkload(
    ShardMode mode, size_t shards, const std::string& dir) {
  std::vector<std::pair<std::string, std::string>> mail;
  SimClock clock(1000);
  auto monitor = XylemeMonitor::Open(&clock, IpcOptions(mode, shards, dir));
  EXPECT_TRUE(monitor.ok()) << monitor.status().ToString();
  if (!monitor.ok()) return mail;
  XylemeMonitor& m = **monitor;
  EXPECT_TRUE(m.Subscribe(testing::SweepSubText(0), "u0@x").ok());
  EXPECT_TRUE(m.AddUser({"ann", "ann@x", /*privileged=*/false}).ok());
  for (int round = 1; round <= 3; ++round) {
    if (round == 2) {
      Status modified = m.manager().Modify("Sub0", kSub0OnW1);
      EXPECT_TRUE(modified.ok()) << modified.ToString();
      auto added = m.manager().SubscribeAs("ann", testing::SweepSubText(1));
      EXPECT_TRUE(added.ok()) << added.status().ToString();
    }
    std::vector<webstub::FetchedDoc> batch;
    for (int j = 0; j < 12; ++j) {
      batch.push_back({testing::SweepUrl(j), testing::SweepBody(j, round)});
    }
    m.ProcessFetchBatch(batch);
    clock.Advance(kDay);
    m.Tick();
  }
  for (const reporter::Email& email : m.outbox().sent()) {
    mail.emplace_back(email.to, email.body);
  }
  return mail;
}

TEST(ProcessModeTest, ManagerMutationsReachTheWorkers) {
  TempDir thread_dir("mgr_thread");
  auto thread_mail =
      RunManagerMutationWorkload(ShardMode::kThread, 1, thread_dir.path);
  // The control mails both mutations: Sub0's new prefix and ann's Sub1.
  auto mails_about = [&thread_mail](const std::string& needle) {
    return std::count_if(thread_mail.begin(), thread_mail.end(),
                         [&needle](const auto& mail) {
                           return mail.first == needle ||
                                  mail.second.find(needle) !=
                                      std::string::npos;
                         });
  };
  ASSERT_GT(mails_about("http://w1.example/"), 0);
  ASSERT_GT(mails_about("ann@x"), 0);

  TempDir dir("mgr_p2");
  EXPECT_EQ(RunManagerMutationWorkload(ShardMode::kProcess, 2, dir.path),
            thread_mail);
}

TEST(ProcessModeTest, MissingWorkerBinaryFailsOpen) {
  TempDir dir("nobin");
  SimClock clock(1000);
  auto options = IpcOptions(ShardMode::kProcess, 2, dir.path);
  options.worker_binary = "/nonexistent/xymon_shard_worker";
  auto monitor = XylemeMonitor::Open(&clock, options);
  EXPECT_FALSE(monitor.ok());
}

// ---------------------------------------------- containment in a worker --

// Immediate-report subscription only: every mail carries one notification
// naming one URL, so dropping a URL's mail from a stream is a substring test.
constexpr char kWatchAll[] = R"(
subscription WatchAll
monitoring
select default
where URL extends "http://w" and modified self
report when immediate
)";

struct ContainmentRun {
  std::vector<std::string> mail;  // bodies, in sent order
  uint64_t failed_documents = 0;
  size_t faulty_shard = 0;
  system::PipelineStats after_fault;  // right after round 2's batch
  system::PipelineStats end;
};

/// Three rounds of 12 versioned pages in one batch each under kWatchAll.
ContainmentRun RunContainmentWorkload(ShardMode mode, size_t shards,
                                      StageFaultInjector* injector,
                                      const std::string& faulty,
                                      const std::string& dir) {
  ContainmentRun out;
  SimClock clock(1000);
  XylemeMonitor::Options options = IpcOptions(mode, shards, dir);
  options.stage_faults = injector;
  auto monitor = XylemeMonitor::Open(&clock, options);
  EXPECT_TRUE(monitor.ok()) << monitor.status().ToString();
  if (!monitor.ok()) return out;
  EXPECT_TRUE((*monitor)->Subscribe(kWatchAll, "all@x").ok());
  out.faulty_shard = (*monitor)->pipeline().ShardFor(faulty);

  for (int round = 1; round <= 3; ++round) {
    std::vector<webstub::FetchedDoc> batch;
    for (int j = 0; j < 12; ++j) {
      batch.push_back({testing::SweepUrl(j), testing::SweepBody(j, round)});
    }
    (*monitor)->ProcessFetchBatch(batch);
    if (round == 2) out.after_fault = (*monitor)->pipeline_stats();
    clock.Advance(kDay);
    (*monitor)->Tick();
  }
  for (const reporter::Email& email : (*monitor)->outbox().sent()) {
    out.mail.push_back(email.body);
  }
  out.failed_documents = (*monitor)->stats().failed_documents;
  out.end = (*monitor)->pipeline_stats();
  return out;
}

// A stage that throws inside a worker process fails only its slot: the
// worker stays up, its shard degrades, and every other document's mail is
// bit for bit a fault-free single-shard thread run's.
TEST(ProcessContainmentTest, DetectThrowInAWorkerFailsOnlyItsSlot) {
  const std::string faulty = testing::SweepUrl(0);
  // Detect call #1 (version 1 is `new`) passes; #2 throws in round 2.
  StageFaultInjector injector(StageFaultPlan{
      {{StageKind::kDetect, faulty, 2, StageFaultKind::kThrow}}});
  TempDir dir("contain_p2");
  ContainmentRun run = RunContainmentWorkload(ShardMode::kProcess, 2,
                                              &injector, faulty, dir.path);
  TempDir clean_dir("contain_clean");
  ContainmentRun clean = RunContainmentWorkload(ShardMode::kThread, 1,
                                                nullptr, faulty,
                                                clean_dir.path);
  ASSERT_FALSE(clean.mail.empty());

  // Exactly one slot failed, on a stage (not a deadline, poison or
  // shard-down verdict), and the worker survived it.
  EXPECT_EQ(run.failed_documents, 1u);
  EXPECT_EQ(run.end.stage_failures, 1u);
  EXPECT_EQ(run.end.deadline_exceeded, 0u);
  EXPECT_EQ(run.end.poison_rejections, 0u);
  EXPECT_EQ(run.end.worker_crashes, 0u);
  EXPECT_EQ(run.end.worker_respawns, 0u);
  // The monitor does not hand out per-slot outcomes; the stage counters pin
  // the failed stage to detect: the slot entered detect and never reached
  // match or notify, which the fault-free run's copy of it did.
  EXPECT_EQ(run.end.ingest.documents, clean.end.ingest.documents);
  EXPECT_EQ(run.end.detect.documents, clean.end.detect.documents);
  EXPECT_EQ(run.end.match.documents + 1, clean.end.match.documents);
  EXPECT_EQ(run.end.notify.documents + 1, clean.end.notify.documents);

  // Only the faulty URL's shard degraded.
  ASSERT_EQ(run.after_fault.shard_status.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    const system::ShardStatus& ss = run.after_fault.shard_status[i];
    const bool faulty_shard = i == run.faulty_shard;
    EXPECT_EQ(ss.stage_failures, faulty_shard ? 1u : 0u) << "shard " << i;
    EXPECT_EQ(ss.health, faulty_shard ? system::ShardHealth::kDegraded
                                      : system::ShardHealth::kHealthy)
        << "shard " << i;
  }

  // The failed slot's notification is the only mail missing.
  auto without_faulty = [&faulty](std::vector<std::string> mail) {
    std::erase_if(mail, [&faulty](const std::string& body) {
      return body.find(faulty) != std::string::npos;
    });
    return mail;
  };
  EXPECT_EQ(run.mail.size() + 1, clean.mail.size());
  EXPECT_EQ(without_faulty(run.mail), without_faulty(clean.mail));
}

// ------------------------------------------------------------- kill sweep --

TEST(KillSweepTest, SigkillAtEveryBatchBoundaryRespawnsFromStorage) {
  const size_t kWorkers = 2;
  TempDir control_dir("kill_control");
  IpcRunResult control =
      RunSeededWorkload(ShardMode::kProcess, kWorkers, control_dir.path);
  ASSERT_FALSE(control.mail.empty());

  // Before every round after the first, SIGKILL one worker (rotating) and
  // wait for the supervisor to notice. The monitor restarts it from its
  // partition before scattering the round, so the sweep must deliver
  // bit-for-bit the unkilled run's mail.
  int kills = 0;
  auto killer = [&](XylemeMonitor& monitor, int round) {
    if (round == 1) return;
    size_t victim = static_cast<size_t>(round) % kWorkers;
    int pid = monitor.pipeline().worker_pid(victim);
    ASSERT_GT(pid, 0);
    ASSERT_EQ(kill(pid, SIGKILL), 0);
    ++kills;
    ASSERT_TRUE(WaitFor(
        [&] {
          monitor.pipeline().PollWorkers();
          system::PipelineStats ps = monitor.pipeline_stats();
          return !ps.workers[victim].alive;
        },
        5000))
        << "supervisor never noticed the SIGKILL";
  };

  TempDir dir("kill_sweep");
  IpcRunResult run =
      RunSeededWorkload(ShardMode::kProcess, kWorkers, dir.path, killer);
  EXPECT_EQ(kills, 2);
  EXPECT_EQ(run.mail, control.mail);
  EXPECT_EQ(run.documents, control.documents);
  EXPECT_EQ(run.respawns, static_cast<uint64_t>(kills));
  EXPECT_TRUE(run.probe_notified);
}

// Churn between rounds (unsubscribe, subscribe, re-subscribe a removed
// name), then SIGKILL: a respawned worker is rebuilt from the manager's
// live state, not from the history, and still mails what the unkilled
// control mails. In round 3 the kill comes first, so the churn's replica
// operations reach a dead worker and only the rebuild carries them.
TEST(KillSweepTest, SigkillAfterSubscriptionChurnRebuildsFromLiveState) {
  const size_t kWorkers = 2;
  auto churn = [](XylemeMonitor& monitor, int round) {
    auto subscribe = [&monitor](int i) {
      EXPECT_TRUE(monitor
                      .Subscribe(testing::SweepSubText(i),
                                 "u" + std::to_string(i) + "@x")
                      .ok())
          << "Sub" << i;
    };
    auto unsubscribe = [&monitor](int i) {
      EXPECT_TRUE(monitor.Unsubscribe("Sub" + std::to_string(i)).ok())
          << "Sub" << i;
    };
    switch (round) {
      case 1:
        unsubscribe(1);
        subscribe(4);
        break;
      case 2:
        subscribe(1);  // a removed name, back
        unsubscribe(4);
        subscribe(5);
        break;
      case 3:
        unsubscribe(2);
        subscribe(4);  // removed in round 2, back
        unsubscribe(5);
        break;
    }
  };
  TempDir control_dir("churn_control");
  IpcRunResult control = RunSeededWorkload(ShardMode::kProcess, kWorkers,
                                           control_dir.path, churn);
  ASSERT_FALSE(control.mail.empty());

  int kills = 0;
  auto kill_one = [&](XylemeMonitor& monitor, int round) {
    size_t victim = static_cast<size_t>(round) % kWorkers;
    int pid = monitor.pipeline().worker_pid(victim);
    ASSERT_GT(pid, 0);
    ASSERT_EQ(kill(pid, SIGKILL), 0);
    ++kills;
    ASSERT_TRUE(WaitFor(
        [&] {
          monitor.pipeline().PollWorkers();
          return !monitor.pipeline_stats().workers[victim].alive;
        },
        5000))
        << "supervisor never noticed the SIGKILL";
  };
  auto churn_and_kill = [&](XylemeMonitor& monitor, int round) {
    if (round == 3) kill_one(monitor, round);
    churn(monitor, round);
    if (round == 2) kill_one(monitor, round);
  };

  TempDir dir("churn_kill");
  IpcRunResult run = RunSeededWorkload(ShardMode::kProcess, kWorkers,
                                       dir.path, churn_and_kill);
  EXPECT_EQ(kills, 2);
  EXPECT_EQ(run.mail, control.mail);
  EXPECT_EQ(run.documents, control.documents);
  EXPECT_EQ(run.respawns, static_cast<uint64_t>(kills));
  EXPECT_TRUE(run.probe_notified);
  // The supervisor's own shards never see a registration in process mode.
  EXPECT_EQ(run.local_complex_events, 0u);
  EXPECT_EQ(control.local_complex_events, 0u);
}

TEST(KillSweepTest, MidBatchWedgeIsKilledByHeartbeatAndRespawned) {
  const std::string faulty = testing::SweepUrl(0);
  // Detect call #2 stalls far past the heartbeat timeout: the worker goes
  // silent mid-slot, the heartbeat SIGKILLs it, the barrier fails the
  // outstanding slots, and the post-batch restart rebuilds the shard from
  // its partition.
  StageFaultInjector injector(StageFaultPlan{
      {{StageKind::kDetect, faulty, 2, StageFaultKind::kStall,
        ScaledMs(3000)}}});
  TempDir dir("wedge");
  SimClock clock(1000);
  auto options = IpcOptions(ShardMode::kProcess, 2, dir.path);
  options.stage_faults = &injector;
  options.worker_heartbeat_interval_ms = ScaledMs(50);
  options.worker_heartbeat_timeout_ms = ScaledMs(500);
  auto monitor = XylemeMonitor::Open(&clock, options);
  ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();
  ASSERT_TRUE(
      (*monitor)->Subscribe(testing::SweepSubText(0), "u0@x").ok());

  // Version 1 is `new` — detect call #1 passes clean everywhere.
  (*monitor)->ProcessFetchBatch({{faulty, testing::SweepBody(0, 1)},
                                 {testing::SweepUrl(1),
                                  testing::SweepBody(1, 1)}});
  ASSERT_EQ((*monitor)->stats().failed_documents, 0u);

  // Version 2 wedges the worker at detect. The batch must complete (the
  // heartbeat bounds the barrier), fail the wedged slot, and respawn.
  (*monitor)->ProcessFetchBatch({{faulty, testing::SweepBody(0, 2)},
                                 {testing::SweepUrl(1),
                                  testing::SweepBody(1, 2)}});
  system::PipelineStats ps = (*monitor)->pipeline_stats();
  EXPECT_GE((*monitor)->stats().failed_documents, 1u);
  EXPECT_GE(ps.worker_crashes, 1u);
  EXPECT_GE(ps.worker_respawns, 1u);
  EXPECT_TRUE((*monitor)->restart_status().ok())
      << (*monitor)->restart_status().ToString();
  for (const system::WorkerStatus& w : ps.workers) {
    EXPECT_TRUE(w.alive);
  }

  // The respawned worker recovered its partition (version 1 of the faulty
  // page was ingested before the wedge): the next version still diffs and
  // notifies, and so does an untouched URL.
  uint64_t before = (*monitor)->stats().notifications;
  (*monitor)->ProcessFetch(faulty, testing::SweepBody(0, 3));
  (*monitor)->ProcessFetch("http://w0.example/probe.xml", "<p>v1</p>");
  (*monitor)->ProcessFetch("http://w0.example/probe.xml", "<p>v2</p>");
  EXPECT_GT((*monitor)->stats().notifications, before);
}

TEST(KillSweepTest, WorkerDeathMidBatchDoesNotKillTheSupervisor) {
  // No spin-wait here: the kill races the next scatter on purpose, so slot
  // writes can land on the dead socket (EPIPE, not SIGPIPE) or on a freshly
  // respawned worker — either way the supervisor survives and heals.
  TempDir dir("sigpipe_mon");
  SimClock clock(1000);
  auto monitor =
      XylemeMonitor::Open(&clock, IpcOptions(ShardMode::kProcess, 2, dir.path));
  ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();
  ASSERT_TRUE(
      (*monitor)->Subscribe(testing::SweepSubText(0), "u0@x").ok());

  std::vector<webstub::FetchedDoc> batch;
  for (int j = 0; j < 12; ++j) {
    batch.push_back({testing::SweepUrl(j), testing::SweepBody(j, 1)});
  }
  (*monitor)->ProcessFetchBatch(batch);

  int pid = (*monitor)->pipeline().worker_pid(0);
  ASSERT_GT(pid, 0);
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  for (int j = 0; j < 12; ++j) {
    batch[j].body = testing::SweepBody(j, 2);
  }
  (*monitor)->ProcessFetchBatch(batch);  // must not die

  // Heals: the next boundary restarts the worker and the flow notifies.
  (*monitor)->ProcessFetchBatch(batch);
  ASSERT_TRUE(WaitFor(
      [&] {
        (*monitor)->pipeline().PollWorkers();
        system::PipelineStats ps = (*monitor)->pipeline_stats();
        return ps.workers[0].alive && ps.workers[1].alive;
      },
      5000));
  uint64_t before = (*monitor)->stats().notifications;
  (*monitor)->ProcessFetch("http://w0.example/probe.xml", "<p>v1</p>");
  (*monitor)->ProcessFetch("http://w0.example/probe.xml", "<p>v2</p>");
  EXPECT_GT((*monitor)->stats().notifications, before);
}

}  // namespace
}  // namespace xymon
