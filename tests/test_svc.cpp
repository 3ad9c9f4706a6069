// Tests for the serving stack (src/svc) and the consensus-on-rt bridge
// (consensus/cr_gossip.h). Load-bearing properties: the cr-* palette
// entries run Canetti-Rabin to a clean verdict on the real-time runtime
// (threads, and threads over the UDP transport via the extension wire
// codec); the committed-history checker actually rejects lost writes,
// stale reads, and session-order violations (a checker that cannot fail is
// not a checker); replica-group outcomes and the loadgen schedule are pure
// functions of their seeds; and the open-loop generator's accounting is
// exact; the hashed KvStore matches an ordered-map model; and the
// service's commit path keeps FIFO order through its ring, answers each
// command exactly once and only after its log line is flushed, and wakes
// an idle commit thread. The Svc/Consensus prefixes put these under the
// tsan-nightly regex.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "consensus/core_types.h"
#include "consensus/cr_gossip.h"
#include "rt/driver.h"
#include "rt/wire.h"
#include "svc/consensus_wire.h"
#include "svc/history.h"
#include "svc/kv.h"
#include "svc/loadgen.h"
#include "svc/replica.h"
#include "svc/service.h"

namespace asyncgossip {
namespace {

using svc::Command;
using svc::CommandResult;
using svc::CommittedEntry;
using svc::Observation;
using svc::SvcOp;

// --- consensus note / verdict channel -------------------------------------

TEST(ConsensusNote, FormatParseRoundTrip) {
  ConsensusNote note;
  note.valid = true;
  note.decided = true;
  note.value = 1;
  note.input = 0;
  note.phase = 3;
  note.core_violations = 0;
  note.reannouncements = 2;
  const ConsensusNote back = parse_consensus_note(format_consensus_note(note));
  EXPECT_TRUE(back.valid);
  EXPECT_EQ(back.decided, note.decided);
  EXPECT_EQ(back.value, note.value);
  EXPECT_EQ(back.input, note.input);
  EXPECT_EQ(back.phase, note.phase);
  EXPECT_EQ(back.reannouncements, note.reannouncements);
}

TEST(ConsensusNote, RejectsForeignAndMalformedNotes) {
  EXPECT_FALSE(parse_consensus_note("").valid);
  EXPECT_FALSE(parse_consensus_note("rumors 1 2 3").valid);
  EXPECT_FALSE(parse_consensus_note("cr decided=1").valid);
  const std::string good = format_consensus_note(ConsensusNote{});
  EXPECT_FALSE(parse_consensus_note(good + " trailing=1").valid);
}

ConsensusNote decided_note(Val value, Val input) {
  ConsensusNote n;
  n.valid = true;
  n.decided = true;
  n.value = value;
  n.input = input;
  n.phase = 2;
  return n;
}

TEST(ConsensusJudge, CleanUnanimousRunIsOk) {
  std::vector<std::string> notes;
  for (int i = 0; i < 4; ++i)
    notes.push_back(format_consensus_note(decided_note(1, i % 2 ? 1 : 0)));
  const ConsensusVerdict v =
      judge_consensus_notes(notes, std::vector<bool>(4, false));
  EXPECT_TRUE(v.ok()) << v.summary();
  EXPECT_EQ(v.decided_value, 1);
  EXPECT_EQ(v.survivors, 4u);
  EXPECT_EQ(v.decided_count, 4u);
}

TEST(ConsensusJudge, DisagreementAnywhereBreaksAgreement) {
  // The second decision happened on a process that later crashed; decisions
  // bind agreement wherever they happened.
  std::vector<std::string> notes = {
      format_consensus_note(decided_note(1, 1)),
      format_consensus_note(decided_note(0, 0)),
      format_consensus_note(decided_note(1, 1)),
  };
  std::vector<bool> crashed = {false, true, false};
  const ConsensusVerdict v = judge_consensus_notes(notes, crashed);
  EXPECT_FALSE(v.agreement);
  EXPECT_FALSE(v.ok());
}

TEST(ConsensusJudge, ValidityRequiresADecidedInput) {
  // Everybody's input is 0 but the decision is 1: validity must fail.
  std::vector<std::string> notes = {
      format_consensus_note(decided_note(1, 0)),
      format_consensus_note(decided_note(1, 0)),
  };
  const ConsensusVerdict v =
      judge_consensus_notes(notes, std::vector<bool>(2, false));
  EXPECT_TRUE(v.agreement);
  EXPECT_FALSE(v.validity);
  EXPECT_FALSE(v.ok());
}

TEST(ConsensusJudge, CrashedProcessesNeedNotDecide) {
  ConsensusNote undecided;
  undecided.valid = true;
  undecided.decided = false;
  undecided.input = 0;
  std::vector<std::string> notes = {
      format_consensus_note(decided_note(0, 0)),
      format_consensus_note(undecided),
      format_consensus_note(decided_note(0, 1)),
  };
  std::vector<bool> crashed = {false, true, false};
  const ConsensusVerdict v = judge_consensus_notes(notes, crashed);
  EXPECT_TRUE(v.ok()) << v.summary();
  EXPECT_EQ(v.survivors, 2u);
  // But the same undecided note on a *surviving* process fails the run.
  const ConsensusVerdict v2 =
      judge_consensus_notes(notes, std::vector<bool>(3, false));
  EXPECT_FALSE(v2.all_decided);
  EXPECT_FALSE(v2.ok());
}

// --- consensus on the real-time runtime -----------------------------------

RtConfig consensus_rt_config(GossipAlgorithm algorithm) {
  register_consensus_algorithms();
  RtConfig config;
  config.spec.algorithm = algorithm;
  config.spec.n = 12;
  config.spec.f = 5;  // f < n/2, the Table 2 regime
  config.spec.d = 3;
  config.spec.delta = 2;
  config.spec.seed = 1;
  config.spec.crash_horizon = 32;
  config.tick_us = 100;
  return config;
}

void expect_clean_consensus_run(const RtConfig& config) {
  const RtRunResult res = run_realtime(config);
  ASSERT_TRUE(res.outcome.completed)
      << "cr run did not quiesce (alg " << to_string(config.spec.algorithm)
      << ")";
  const ConsensusVerdict v = judge_consensus_notes(res.notes, res.crashed);
  EXPECT_TRUE(v.ok()) << v.summary();
  EXPECT_EQ(v.core_violations, 0u);
  const ViolationReport audit = audit_rt_run(config, res);
  EXPECT_TRUE(audit.ok()) << audit.summary();
}

TEST(ConsensusRt, AllThreeExchangesDecideOnThreads) {
  for (const GossipAlgorithm alg :
       {GossipAlgorithm::kCrEars, GossipAlgorithm::kCrSears,
        GossipAlgorithm::kCrTears}) {
    expect_clean_consensus_run(consensus_rt_config(alg));
  }
}

TEST(ConsensusRt, CrTearsSurvivesCrashInjection) {
  RtConfig config = consensus_rt_config(GossipAlgorithm::kCrTears);
  config.inject = RtInject::kCrash;
  expect_clean_consensus_run(config);
}

TEST(ConsensusRt, CrEarsRunsOverUdpTransportThreads) {
  svc::register_consensus_wire();
  RtConfig config = consensus_rt_config(GossipAlgorithm::kCrEars);
  config.spec.n = 8;
  config.spec.f = 3;
  config.transport = RtTransportKind::kUdp;
  expect_clean_consensus_run(config);
}

// --- the ConsensusPayload wire extension codec ----------------------------

TEST(SvcWire, ConsensusPayloadRoundTrips) {
  svc::register_consensus_wire();
  auto p = std::make_shared<ConsensusPayload>();
  p->sender = 5;
  p->pos.phase = 7;
  p->pos.exchange = 1;
  p->pos.sub = 2;
  p->state.origins = DynamicBitset(9);
  p->state.origins.set(0);
  p->state.origins.set(8);
  p->state.items.assign(9, kValUnknown);
  p->state.items[0] = 1;
  p->state.items[8] = kValBot;
  p->sender_x = 0;
  p->sender_y = kValBot;
  p->decided = true;
  p->decision = 1;
  p->flag_up = true;

  std::vector<std::uint8_t> bytes;
  wire::encode_payload(&bytes, p.get());
  wire::Reader r(bytes.data(), bytes.size(), /*bits=*/9);
  PayloadPtr out;
  ASSERT_TRUE(wire::decode_payload(&r, &out));
  EXPECT_EQ(r.finish(), wire::DecodeError::kOk);
  const auto* q = dynamic_cast<const ConsensusPayload*>(out.get());
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->sender, p->sender);
  EXPECT_EQ(q->pos.phase, p->pos.phase);
  EXPECT_EQ(q->pos.exchange, p->pos.exchange);
  EXPECT_EQ(q->pos.sub, p->pos.sub);
  EXPECT_EQ(q->state.origins.count(), p->state.origins.count());
  EXPECT_EQ(q->state.items, p->state.items);
  EXPECT_EQ(q->sender_x, p->sender_x);
  EXPECT_EQ(q->sender_y, p->sender_y);
  EXPECT_EQ(q->decided, p->decided);
  EXPECT_EQ(q->decision, p->decision);
  EXPECT_EQ(q->flag_up, p->flag_up);

  // Every truncation of a valid encoding must fail cleanly, never crash.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    wire::Reader tr(bytes.data(), cut, /*bits=*/9);
    PayloadPtr tout;
    EXPECT_FALSE(wire::decode_payload(&tr, &tout) &&
                 tr.finish() == wire::DecodeError::kOk)
        << "truncation at " << cut << " decoded";
  }
}

TEST(SvcWire, GoldenConsensusFrame) {
  // Bytes captured before InstanceState gained its `known` mask: the mask
  // stays off the wire, and the decoder rebuilds it from the items.
  svc::register_consensus_wire();
  auto p = std::make_shared<ConsensusPayload>();
  p->sender = 3;
  p->pos.phase = 2;
  p->pos.exchange = 1;
  p->pos.sub = 2;
  p->state = InstanceState(70);
  p->state.add_own(0, 1);
  p->state.add_own(65, kValBot);
  p->state.origins.set(69);
  p->state.set_item(69, 0);
  p->state.set_item(5, 1);  // an item whose origin is not in `origins`
  p->sender_x = 1;
  p->sender_y = kValBot;
  p->decided = true;
  p->decision = 1;
  p->flag_up = true;

  std::vector<std::uint8_t> golden = {
      0x10, 0x03, 0x02, 0x01, 0x02, 0x46, 0x09, 0x01, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x22, 0x03, 0x00, 0x00, 0x00, 0x00, 0x03};
  golden.resize(golden.size() + 59, 0x00);  // items 6..64 unknown
  for (const std::uint8_t b : {0x01, 0x00, 0x00, 0x00, 0x02,  // items 65..69
                               0x03, 0x01, 0x01, 0x03, 0x01})  // x y dec flag
    golden.push_back(b);

  std::vector<std::uint8_t> bytes;
  wire::encode_payload(&bytes, p.get());
  EXPECT_EQ(bytes, golden);

  wire::Reader r(golden.data(), golden.size(), /*bits=*/70);
  PayloadPtr out;
  ASSERT_TRUE(wire::decode_payload(&r, &out));
  EXPECT_EQ(r.finish(), wire::DecodeError::kOk);
  const auto* q = payload_cast<ConsensusPayload>(out.get());
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->state.origins, p->state.origins);
  EXPECT_EQ(q->state.items, p->state.items);
  EXPECT_EQ(q->state.known, p->state.known);
  // A merge of the decoded state delivers every item, origin or not.
  InstanceState mine(70);
  EXPECT_TRUE(mine.merge(q->state));
  EXPECT_EQ(mine.items, p->state.items);
}

// --- KvStore transition function ------------------------------------------

TEST(SvcKv, PutGetCasSemantics) {
  svc::KvStore store;
  Command put;
  put.op = SvcOp::kPut;
  put.key = "k";
  put.value = "v1";
  EXPECT_TRUE(store.apply(put).ok);

  Command get;
  get.op = SvcOp::kGet;
  get.key = "k";
  CommandResult r = store.apply(get);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.value, "v1");
  get.key = "absent";
  r = store.apply(get);
  EXPECT_TRUE(r.ok);
  EXPECT_FALSE(r.found);

  Command cas;
  cas.op = SvcOp::kCas;
  cas.key = "k";
  cas.value = "v2";
  cas.expected = "wrong";
  EXPECT_FALSE(store.apply(cas).ok);  // comparand mismatch: no write
  cas.expected = "v1";
  EXPECT_TRUE(store.apply(cas).ok);
  get.key = "k";
  EXPECT_EQ(store.apply(get).value, "v2");

  // The reserved "-" comparand matches exactly the absent key.
  Command cas_absent;
  cas_absent.op = SvcOp::kCas;
  cas_absent.key = "fresh";
  cas_absent.value = "v3";
  cas_absent.expected = "-";
  EXPECT_TRUE(store.apply(cas_absent).ok);
  EXPECT_FALSE(store.apply(cas_absent).ok);  // now present: "-" no longer matches
}

TEST(SvcKv, MatchesOrderedMapModel) {
  // The hashed store against the ordered map it replaced, written out
  // here as the reference: the same random put/get/cas stream must give
  // the same result fields and the same size at every step. Few keys and
  // values, so CAS comparands match often, and "-" (the absent comparand)
  // both matches absent keys and is written as a literal value.
  const char* const kValues[] = {"a", "b", "c", "-"};
  Xoshiro256SS rng(20261018);
  svc::KvStore store;
  std::map<std::string, std::string> model;
  for (int step = 0; step < 20000; ++step) {
    Command cmd;
    cmd.op = static_cast<SvcOp>(rng.uniform(3));
    cmd.key = "k" + std::to_string(rng.uniform(12));
    if (cmd.op != SvcOp::kGet) cmd.value = kValues[rng.uniform(4)];
    if (cmd.op == SvcOp::kCas) cmd.expected = kValues[rng.uniform(4)];

    CommandResult want;
    const auto it = model.find(cmd.key);
    switch (cmd.op) {
      case SvcOp::kPut:
        model[cmd.key] = cmd.value;
        want.ok = true;
        break;
      case SvcOp::kGet:
        want.ok = true;
        if (it != model.end()) {
          want.found = true;
          want.value = it->second;
        }
        break;
      case SvcOp::kCas:
        if (it != model.end() ? it->second == cmd.expected
                              : cmd.expected == "-") {
          model[cmd.key] = cmd.value;
          want.ok = true;
        }
        break;
    }
    const CommandResult got = store.apply(cmd);
    ASSERT_EQ(got.ok, want.ok) << "step " << step;
    ASSERT_EQ(got.found, want.found) << "step " << step;
    ASSERT_EQ(got.value, want.value) << "step " << step;
    ASSERT_EQ(got.unavailable, want.unavailable) << "step " << step;
    ASSERT_EQ(got.seq, want.seq) << "step " << step;
    ASSERT_EQ(store.size(), model.size()) << "step " << step;
  }
}

// --- history codec and checker --------------------------------------------

CommittedEntry log_entry(std::uint64_t seq, SvcOp op, std::uint64_t client,
                         std::uint64_t cseq, const std::string& key,
                         const std::string& value,
                         const std::string& expected, bool ok, bool found,
                         const std::string& read_value) {
  CommittedEntry e;
  e.seq = seq;
  e.cmd.op = op;
  e.cmd.client = client;
  e.cmd.client_seq = cseq;
  e.cmd.key = key;
  e.cmd.value = value;
  e.cmd.expected = expected;
  e.ok = ok;
  e.found = found;
  e.read_value = read_value;
  return e;
}

Observation obs_for(const CommittedEntry& e) {
  Observation o;
  o.cmd = e.cmd;
  o.result.ok = e.ok;
  o.result.seq = e.seq;
  o.result.found = e.found;
  o.result.value = e.read_value;
  return o;
}

TEST(SvcHistoryCodec, LiteralDashComparandRoundTrips) {
  // The CAS absent-comparand is the literal "-" — the same character the
  // codec uses as its empty-field placeholder. The round trip must keep
  // them apart (a collision here once produced phantom replay failures).
  const CommittedEntry cas =
      log_entry(1, SvcOp::kCas, 1, 1, "k", "v1", "-", true, false, "");
  CommittedEntry back;
  ASSERT_TRUE(svc::parse_log_entry(svc::encode_log_entry(cas), &back));
  EXPECT_EQ(back.cmd.expected, "-");
  EXPECT_EQ(back.cmd.value, "v1");
  EXPECT_EQ(back.read_value, "");

  const CommittedEntry get =
      log_entry(2, SvcOp::kGet, 1, 2, "k", "", "", true, true, "v1");
  ASSERT_TRUE(svc::parse_log_entry(svc::encode_log_entry(get), &back));
  EXPECT_EQ(back.cmd.value, "");
  EXPECT_EQ(back.cmd.expected, "");
  EXPECT_EQ(back.read_value, "v1");

  Observation o = obs_for(cas);
  Observation oback;
  ASSERT_TRUE(svc::parse_observation(svc::encode_observation(o), &oback));
  EXPECT_EQ(oback.cmd.expected, "-");
  EXPECT_EQ(oback.result.seq, 1u);
}

std::vector<CommittedEntry> clean_log() {
  return {
      log_entry(1, SvcOp::kPut, 1, 1, "a", "v1", "", true, false, ""),
      log_entry(2, SvcOp::kGet, 2, 1, "a", "", "", true, true, "v1"),
      log_entry(3, SvcOp::kCas, 1, 2, "a", "v2", "v1", true, false, ""),
      log_entry(4, SvcOp::kGet, 2, 2, "a", "", "", true, true, "v2"),
      log_entry(5, SvcOp::kCas, 1, 3, "b", "v3", "-", true, false, ""),
  };
}

std::vector<Observation> clean_obs() {
  std::vector<Observation> obs;
  for (const CommittedEntry& e : clean_log()) obs.push_back(obs_for(e));
  return obs;
}

TEST(SvcHistory, CleanHistoryPasses) {
  const svc::HistoryReport r = svc::check_history(clean_log(), clean_obs());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.entries, 5u);
  EXPECT_EQ(r.acked, 5u);
}

TEST(SvcHistory, LostWriteFixtureFails) {
  // The service acked client 1's cseq-3 cas at seq 5, but the entry never
  // made the log — the classic committed-then-dropped write. The log that
  // remains is dense and replays clean, so ONLY the cross-check can catch
  // it.
  auto log = clean_log();
  log.pop_back();
  const svc::HistoryReport r = svc::check_history(log, clean_obs());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("lost write"), std::string::npos) << r.error;
}

TEST(SvcHistory, StaleReadFixtureFails) {
  // Seq 4's get observed the value overwritten at seq 3 — a read served
  // from a stale replica.
  auto log = clean_log();
  auto obs = clean_obs();
  log[3].read_value = "v1";
  obs[3].result.value = "v1";
  const svc::HistoryReport r = svc::check_history(log, obs);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("stale read"), std::string::npos) << r.error;
}

TEST(SvcHistory, ReplayCatchesPhantomCas) {
  auto log = clean_log();
  log[2].cmd.expected = "never";  // recorded ok=1 yet the comparand missed
  const svc::HistoryReport r = svc::check_history(log, clean_obs());
  EXPECT_FALSE(r.ok);
}

TEST(SvcHistory, SessionOrderViolationFails) {
  auto log = clean_log();
  auto obs = clean_obs();
  // Client 1's cseq 3 commits *before* its cseq 2 in log order.
  std::swap(log[2].cmd.client_seq, log[4].cmd.client_seq);
  obs[2].cmd.client_seq = log[2].cmd.client_seq;
  obs[4].cmd.client_seq = log[4].cmd.client_seq;
  const svc::HistoryReport r = svc::check_history(log, obs);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("session order"), std::string::npos) << r.error;
}

TEST(SvcHistory, UnavailableAckMustLeaveNoTrace) {
  auto obs = clean_obs();
  obs[0].result.unavailable = true;
  obs[0].result.seq = 0;
  const svc::HistoryReport r = svc::check_history(clean_log(), obs);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unavailable"), std::string::npos) << r.error;
}

TEST(SvcHistory, HolesInTheSequenceFail) {
  auto log = clean_log();
  log[3].seq = 7;
  const svc::HistoryReport r = svc::check_history(log, {});
  EXPECT_FALSE(r.ok);
}

// --- replica group ---------------------------------------------------------

svc::ReplicaGroupConfig small_group(std::uint64_t seed) {
  register_consensus_algorithms();
  svc::ReplicaGroupConfig g;
  g.n = 8;
  g.f = 3;
  g.seed = seed;
  return g;
}

TEST(SvcReplica, OutcomesAreAPureFunctionOfTheSeed) {
  svc::ReplicaGroupConfig cfg = small_group(17);
  cfg.inject_crashes = 2;
  cfg.crash_horizon_slots = 4;
  svc::ReplicaGroup a(cfg);
  svc::ReplicaGroup b(cfg);
  EXPECT_EQ(a.crash_slots(), b.crash_slots());
  for (int slot = 0; slot < 6; ++slot) {
    const svc::CommitOutcome oa = a.commit_slot();
    const svc::CommitOutcome ob = b.commit_slot();
    EXPECT_EQ(oa.committed, ob.committed);
    EXPECT_EQ(oa.unavailable, ob.unavailable);
    EXPECT_EQ(oa.messages, ob.messages);
    EXPECT_EQ(oa.bytes, ob.bytes);
    EXPECT_EQ(oa.decision_time, ob.decision_time);
    EXPECT_EQ(oa.decision_phase, ob.decision_phase);
    EXPECT_TRUE(oa.committed) << "2 crashes <= f must stay available";
  }
  // A different seed draws a different fault plan.
  svc::ReplicaGroupConfig other = cfg;
  other.seed = 18;
  EXPECT_NE(svc::ReplicaGroup(other).crash_slots(), a.crash_slots());
}

TEST(SvcReplica, BeyondBudgetCrashesReportHonestUnavailability) {
  svc::ReplicaGroupConfig cfg = small_group(23);
  cfg.inject_crashes = 5;  // > f = 3: majority must eventually be lost
  cfg.crash_horizon_slots = 3;
  svc::ReplicaGroup group(cfg);
  bool saw_unavailable = false;
  for (int slot = 0; slot < 8; ++slot) {
    const svc::CommitOutcome out = group.commit_slot();
    if (out.unavailable) {
      saw_unavailable = true;
      EXPECT_FALSE(out.committed);
      EXPECT_LT(out.alive, cfg.n / 2 + 1);
      EXPECT_EQ(out.messages, 0u) << "fail-fast: the slot must not run";
    }
  }
  EXPECT_TRUE(saw_unavailable);
}

/// The group behind the golden slot sequences: n = 8, f = 3, seed 1, and
/// setup 0 = no faults, 1 = two replicas crashed from slot 1, 2 = those
/// crashes plus a 0.1 stall probability.
svc::ReplicaGroupConfig golden_group(GossipAlgorithm alg, int setup) {
  svc::ReplicaGroupConfig g = small_group(1);
  g.algorithm = alg;
  if (setup >= 1) {
    g.inject_crashes = 2;
    g.crash_horizon_slots = 1;
  }
  if (setup == 2) g.stall_probability = 0.1;
  return g;
}

std::uint64_t fnv_word(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(SvcReplica, SlotSequencesMatchGolden) {
  // Slots 1-64 of each group, captured before the slot engine was reused:
  // an FNV-1a hash over every slot's (committed, unavailable, messages,
  // bytes, decision_time, decision_phase), then the column sums.
  const struct {
    GossipAlgorithm alg;
    int setup;
    std::uint64_t hash, committed, unavailable, messages, bytes, ticks,
        phases;
  } kGolden[] = {
      {GossipAlgorithm::kCrTears, 0, 0x2bf12d6fd9d8b202ULL, 64, 0, 36459,
       1166688, 672, 64},
      {GossipAlgorithm::kCrTears, 1, 0xdf1b6815be302f44ULL, 64, 0, 30658,
       981056, 776, 64},
      {GossipAlgorithm::kCrTears, 2, 0x741411144c583e77ULL, 64, 0, 31538,
       1009216, 898, 64},
      {GossipAlgorithm::kCrEars, 0, 0x3f2c54af09141dcdULL, 64, 0, 14896,
       476672, 1862, 64},
      {GossipAlgorithm::kCrEars, 1, 0x9012c6af0c3578d7ULL, 64, 0, 15650,
       500800, 2587, 64},
      {GossipAlgorithm::kCrEars, 2, 0x9154428cc00a847dULL, 64, 0, 16898,
       540736, 2795, 64},
      {GossipAlgorithm::kCrSears, 0, 0x16a27fca63425202ULL, 64, 0, 36144,
       1156608, 753, 64},
      {GossipAlgorithm::kCrSears, 1, 0x9ad3535175547fdbULL, 64, 0, 32124,
       1027968, 871, 64},
      {GossipAlgorithm::kCrSears, 2, 0x9ece78cf9df13ad0ULL, 64, 0, 35940,
       1150080, 977, 64},
  };
  for (const auto& g : kGolden) {
    svc::ReplicaGroup group(golden_group(g.alg, g.setup));
    std::uint64_t hash = 0xcbf29ce484222325ULL, committed = 0,
                  unavailable = 0, messages = 0, bytes = 0, ticks = 0,
                  phases = 0;
    for (int slot = 1; slot <= 64; ++slot) {
      const svc::CommitOutcome o = group.commit_slot();
      for (const std::uint64_t v :
           {std::uint64_t{o.committed}, std::uint64_t{o.unavailable},
            o.messages, o.bytes, std::uint64_t{o.decision_time},
            std::uint64_t{o.decision_phase}})
        hash = fnv_word(hash, v);
      committed += o.committed ? 1 : 0;
      unavailable += o.unavailable ? 1 : 0;
      messages += o.messages;
      bytes += o.bytes;
      ticks += o.decision_time;
      phases += o.decision_phase;
    }
    SCOPED_TRACE(std::string(to_string(g.alg)) + " setup " +
                 std::to_string(g.setup));
    EXPECT_EQ(committed, g.committed);
    EXPECT_EQ(unavailable, g.unavailable);
    EXPECT_EQ(messages, g.messages);
    EXPECT_EQ(bytes, g.bytes);
    EXPECT_EQ(ticks, g.ticks);
    EXPECT_EQ(phases, g.phases);
    EXPECT_EQ(hash, g.hash);
  }
}

TEST(SvcReplica, ReusedSlotEngineMatchesAFreshEnginePerSlot) {
  // Crashes that land mid-run change the crash plan and the crash budget
  // from slot to slot, stalls change d (and so the engine's wheel width),
  // and the 5-crash group loses its majority, so restarts cross every
  // kind of slot boundary. At n = 8 the TEARS trigger band covers every
  // count, so the n = 32 group is the one where a trigger count carried
  // over from the previous slot would show.
  struct Setup {
    GossipAlgorithm alg;
    std::size_t n, f, crashes;
    std::uint64_t horizon;
    double stall;
    int slots;
  };
  for (const Setup& s :
       {Setup{GossipAlgorithm::kCrTears, 8, 3, 3, 300, 0.1, 500},
        Setup{GossipAlgorithm::kCrEars, 8, 3, 3, 300, 0.1, 500},
        Setup{GossipAlgorithm::kCrSears, 8, 3, 3, 300, 0.1, 500},
        Setup{GossipAlgorithm::kCrTears, 8, 3, 5, 400, 0.2, 500},
        Setup{GossipAlgorithm::kCrTears, 32, 15, 8, 100, 0.1, 150}}) {
    svc::ReplicaGroupConfig cfg = small_group(29);
    cfg.algorithm = s.alg;
    cfg.n = s.n;
    cfg.f = s.f;
    cfg.inject_crashes = s.crashes;
    cfg.crash_horizon_slots = s.horizon;
    cfg.stall_probability = s.stall;
    svc::ReplicaGroup reused(cfg);
    cfg.reuse_slot_engine = false;
    svc::ReplicaGroup fresh(cfg);
    bool saw_unavailable = false;
    for (int slot = 1; slot <= s.slots; ++slot) {
      const svc::CommitOutcome a = reused.commit_slot();
      const svc::CommitOutcome b = fresh.commit_slot();
      SCOPED_TRACE(std::string(to_string(s.alg)) + " n " +
                   std::to_string(s.n) + " slot " + std::to_string(slot));
      ASSERT_EQ(a.committed, b.committed);
      ASSERT_EQ(a.unavailable, b.unavailable);
      ASSERT_EQ(a.messages, b.messages);
      ASSERT_EQ(a.bytes, b.bytes);
      ASSERT_EQ(a.decision_time, b.decision_time);
      ASSERT_EQ(a.decision_phase, b.decision_phase);
      ASSERT_EQ(a.stalled, b.stalled);
      ASSERT_EQ(a.alive, b.alive);
      ASSERT_EQ(a.trace_hash, b.trace_hash);
      saw_unavailable = saw_unavailable || a.unavailable;
    }
    EXPECT_EQ(saw_unavailable, s.crashes > cfg.f);
  }
}

// --- loadgen ---------------------------------------------------------------

TEST(SvcLoadgen, CommandsAreAPureFunctionOfSeedAndIndex) {
  svc::LoadgenConfig cfg;
  cfg.seed = 99;
  cfg.requests = 64;
  cfg.clients = 4;
  cfg.value_bytes = 12;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const Command a = svc::loadgen_command(cfg, i);
    const Command b = svc::loadgen_command(cfg, i);
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.key, b.key);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.expected, b.expected);
    EXPECT_EQ(a.client, 1 + i % 4);
    EXPECT_EQ(a.client_seq, 1 + i / 4);
    if (a.op != SvcOp::kGet) {
      EXPECT_EQ(a.value.size(), 12u);
    }
    if (a.op == SvcOp::kCas) {
      EXPECT_FALSE(a.expected.empty());
    }
  }
}

TEST(SvcLoadgen, OpenLoopPacingAndExactAccounting) {
  svc::KvServiceConfig cfg;
  cfg.group = small_group(31);
  svc::KvService service(cfg);
  svc::LoadgenConfig lc;
  lc.inproc = &service;
  lc.requests = 200;
  lc.rate = 2000.0;  // last request due at 199/2000 s ~ 99.5 ms
  lc.seed = 31;
  const svc::LoadgenReport rep = svc::run_loadgen(lc);
  service.stop();
  EXPECT_EQ(rep.attempted, 200u);
  EXPECT_EQ(rep.acked + rep.unavailable + rep.unacked, rep.attempted);
  EXPECT_EQ(rep.acked, 200u);
  EXPECT_TRUE(rep.complete);
  EXPECT_GE(rep.wall_ms, 90.0) << "open loop must respect the schedule";
  EXPECT_LE(rep.achieved_rate, 2500.0);
  EXPECT_EQ(service.stats().committed, 200u);
}

// --- service end to end ----------------------------------------------------

TEST(SvcService, CommittedHistoryChecksOutUnderCrashes) {
  std::ostringstream log_os, obs_os;
  svc::KvServiceConfig cfg;
  cfg.group = small_group(47);
  cfg.group.inject_crashes = 2;
  cfg.group.crash_horizon_slots = 3;
  cfg.batch_limit = 16;  // force many slots even for a small run
  cfg.log_out = &log_os;
  {
    svc::KvService service(cfg);
    svc::LoadgenConfig lc;
    lc.inproc = &service;
    lc.requests = 500;
    lc.seed = 47;
    lc.obs_out = &obs_os;
    const svc::LoadgenReport rep = svc::run_loadgen(lc);
    service.stop();
    EXPECT_TRUE(rep.complete);
    EXPECT_GE(service.stats().slots, 500u / 16);
  }
  std::istringstream log_is(log_os.str()), obs_is(obs_os.str());
  std::vector<CommittedEntry> log;
  std::vector<Observation> obs;
  std::string error;
  ASSERT_TRUE(svc::read_log(log_is, &log, &error)) << error;
  ASSERT_TRUE(svc::read_observations(obs_is, &obs, &error)) << error;
  EXPECT_EQ(log.size(), 500u);
  const svc::HistoryReport r = svc::check_history(log, obs);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.acked, 500u);
}

TEST(SvcService, SubmitAfterStopAnswersUnavailable) {
  svc::KvServiceConfig cfg;
  cfg.group = small_group(53);
  svc::KvService service(cfg);
  service.stop();
  bool answered = false;
  Command cmd;
  cmd.op = SvcOp::kPut;
  cmd.client = 1;
  cmd.client_seq = 1;
  cmd.key = "k";
  cmd.value = "v";
  service.submit(cmd, [&](const Command&, const CommandResult& result,
                          std::uint64_t) {
    answered = true;
    EXPECT_TRUE(result.unavailable);
    EXPECT_FALSE(result.ok);
  });
  EXPECT_TRUE(answered);
}

Command put_command(std::uint64_t client, std::uint64_t client_seq) {
  Command cmd;
  cmd.op = SvcOp::kPut;
  cmd.client = client;
  cmd.client_seq = client_seq;
  cmd.key = "k" + std::to_string(client_seq % 16);
  cmd.value = "v" + std::to_string(client_seq);
  return cmd;
}

/// A stringbuf that keeps the text it held at its last flush (sync()).
class FlushRecorder : public std::stringbuf {
 public:
  const std::string& flushed() const { return flushed_; }

 protected:
  int sync() override {
    flushed_ = str();
    return 0;
  }

 private:
  std::string flushed_;
};

TEST(SvcService, AckFollowsLogFlush) {
  // A client may only be acked for a command whose committed-log line has
  // reached the log stream's sink: each callback (on the commit thread,
  // the only writer of the log) looks for its own line in the text flushed
  // so far.
  FlushRecorder buf;
  std::ostream log_os(&buf);
  svc::KvServiceConfig cfg;
  cfg.group = small_group(59);
  cfg.batch_limit = 16;
  cfg.log_out = &log_os;
  constexpr std::uint64_t kRequests = 300;
  std::uint64_t answered = 0;   // commit thread
  std::uint64_t unflushed = 0;  // commit thread
  {
    svc::KvService service(cfg);
    for (std::uint64_t i = 1; i <= kRequests; ++i)
      service.submit(put_command(1, i), [&](const Command& cmd,
                                            const CommandResult& result,
                                            std::uint64_t) {
        ++answered;
        const CommittedEntry entry{result.seq, cmd, result.ok, result.found,
                                   result.value};
        if (buf.flushed().find(svc::encode_log_entry(entry) + "\n") ==
            std::string::npos)
          ++unflushed;
      });
    service.stop();
  }
  EXPECT_EQ(answered, kRequests);
  EXPECT_EQ(unflushed, 0u) << "acks sent before their log line was flushed";
}

TEST(SvcService, ClosedLoopBatchesAndOrderAreDeterministic) {
  // The shape of the benchmark's svc-closed run: 1024 closed-loop clients
  // whose answers submit the next request on the commit thread, so the
  // batch sequence is fixed. Slot count, consensus messages and batch size
  // are pinned, and the committed order must be the submission order.
  constexpr std::uint64_t kRequests = 25000;
  constexpr std::size_t kClients = 1024;
  svc::KvServiceConfig cfg;
  cfg.group = small_group(1);
  cfg.batch_limit = 512;
  svc::LoadgenConfig lc;
  lc.seed = 1;
  lc.clients = kClients;
  lc.keys = 1024;
  lc.value_bytes = 8;

  std::vector<std::uint64_t> seq_of(kRequests, 0);
  std::uint64_t next = 1;      // commit thread once request 0 is in
  std::uint64_t answered = 0;  // commit thread
  std::promise<void> all_answered;
  svc::KvService service(cfg);
  std::function<void(std::uint64_t)> submit = [&](std::uint64_t i) {
    service.submit(svc::loadgen_command(lc, i),
                   [&, i](const Command&, const CommandResult& result,
                          std::uint64_t) {
                     seq_of[i] = result.seq;
                     const std::size_t follow = i == 0 ? kClients : 1;
                     for (std::size_t k = 0; k < follow && next < kRequests;
                          ++k)
                       submit(next++);
                     if (++answered == kRequests) all_answered.set_value();
                   });
  };
  submit(0);
  ASSERT_EQ(all_answered.get_future().wait_for(std::chrono::seconds(120)),
            std::future_status::ready);
  service.stop();

  const svc::KvServiceStats stats = service.stats();
  EXPECT_EQ(stats.committed, kRequests);
  EXPECT_EQ(stats.slots, 50u);
  EXPECT_EQ(stats.consensus_messages, 28512u);
  EXPECT_EQ(stats.max_batch, 512u);
  for (std::uint64_t i = 0; i < kRequests; ++i)
    ASSERT_EQ(seq_of[i], i + 1) << "request " << i;
}

TEST(SvcService, ConcurrentSubmitsWrapTheRingExactlyOnce) {
  // Four threads submit at once while the commit thread drains small
  // batches, so the queue grows past its first capacity and wraps. Every
  // callback fires exactly once, the sequence numbers are 1..total, and
  // each thread's commands commit in the order that thread submitted them.
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 1500;
  constexpr std::uint64_t kTotal = kThreads * kPerThread;
  svc::KvServiceConfig cfg;
  cfg.group = small_group(61);
  cfg.batch_limit = 16;
  std::vector<std::vector<std::uint64_t>> seqs(
      kThreads, std::vector<std::uint64_t>(kPerThread, 0));
  std::vector<std::vector<int>> calls(kThreads,
                                      std::vector<int>(kPerThread, 0));
  {
    svc::KvService service(cfg);
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < kThreads; ++t)
      clients.emplace_back([&, t] {
        for (std::uint64_t i = 0; i < kPerThread; ++i)
          service.submit(put_command(t + 1, i + 1),
                         [&, t, i](const Command&, const CommandResult& result,
                                   std::uint64_t) {
                           ++calls[t][i];
                           seqs[t][i] = result.seq;
                         });
      });
    for (std::thread& c : clients) c.join();
    service.stop();
    EXPECT_EQ(service.stats().committed, kTotal);
  }
  std::vector<int> seq_seen(kTotal + 1, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      ASSERT_EQ(calls[t][i], 1) << "thread " << t << " command " << i;
      ASSERT_GE(seqs[t][i], 1u);
      ASSERT_LE(seqs[t][i], kTotal);
      ++seq_seen[seqs[t][i]];
      if (i > 0) {
        ASSERT_GT(seqs[t][i], seqs[t][i - 1]) << "thread " << t;
      }
    }
  }
  for (std::uint64_t seq = 1; seq <= kTotal; ++seq)
    ASSERT_EQ(seq_seen[seq], 1) << "seq " << seq;
}

TEST(SvcService, IdleCommitThreadWakesForEachLoneSubmit) {
  // Each submit reaches a commit thread that has drained the queue and is
  // waiting; the submit must wake it, or the command is never answered.
  svc::KvServiceConfig cfg;
  cfg.group = small_group(67);
  svc::KvService service(cfg);
  for (std::uint64_t i = 1; i <= 200; ++i) {
    auto done = std::make_shared<std::promise<std::uint64_t>>();
    std::future<std::uint64_t> seq = done->get_future();
    service.submit(put_command(1, i),
                   [done](const Command&, const CommandResult& result,
                          std::uint64_t) { done->set_value(result.seq); });
    ASSERT_EQ(seq.wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "submit " << i << " was never answered";
    EXPECT_EQ(seq.get(), i);
  }
  service.stop();
  EXPECT_EQ(service.stats().slots, 200u);
}

}  // namespace
}  // namespace asyncgossip
