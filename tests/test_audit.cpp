#include "sim/audit.h"

#include <gtest/gtest.h>

#include <sstream>

#include "gossip/harness.h"
#include "sim/metrics.h"
#include "sim/trace.h"

namespace asyncgossip {
namespace {

Envelope make_env(MessageId id, ProcessId from, ProcessId to, Time send_time,
                  Time deliver_after) {
  Envelope env;
  env.id = id;
  env.from = from;
  env.to = to;
  env.send_time = send_time;
  env.deliver_after = deliver_after;
  return env;
}

AuditConfig small_config(std::size_t n, Time d, Time delta, std::size_t f) {
  AuditConfig cfg;
  cfg.n = n;
  cfg.d = d;
  cfg.delta = delta;
  cfg.max_crashes = f;
  return cfg;
}

// ---------------------------------------------------------------------------
// Clean executions: the auditor must find nothing across the whole existing
// algorithm/adversary matrix — two independent implementations of the model
// contract (engine and auditor) agreeing on every event stream.
// ---------------------------------------------------------------------------

struct CleanCase {
  GossipAlgorithm algorithm;
  SchedulePattern schedule;
  DelayPattern delay;
};

class AuditCleanSweep : public ::testing::TestWithParam<CleanCase> {};

TEST_P(AuditCleanSweep, FullRunHasNoViolations) {
  const CleanCase& c = GetParam();
  GossipSpec spec;
  spec.algorithm = c.algorithm;
  spec.n = 48;
  spec.f = 12;
  spec.d = 4;
  spec.delta = 3;
  spec.schedule = c.schedule;
  spec.delay = c.delay;
  spec.seed = 1234;
  const AuditedGossipOutcome audited = run_audited_gossip_spec(spec);
  EXPECT_TRUE(audited.audit.ok()) << audited.audit.summary();
}

std::vector<CleanCase> clean_cases() {
  std::vector<CleanCase> cases;
  const GossipAlgorithm algs[] = {
      GossipAlgorithm::kTrivial, GossipAlgorithm::kEars,
      GossipAlgorithm::kSears,   GossipAlgorithm::kTears,
      GossipAlgorithm::kSync,    GossipAlgorithm::kLazy,
      GossipAlgorithm::kRoundRobin};
  const SchedulePattern schedules[] = {
      SchedulePattern::kLockStep, SchedulePattern::kStaggered,
      SchedulePattern::kRandomSubset, SchedulePattern::kRotating,
      SchedulePattern::kStraggler};
  for (GossipAlgorithm a : algs)
    for (SchedulePattern s : schedules)
      cases.push_back(CleanCase{a, s, DelayPattern::kUniform});
  // Delay-pattern coverage on one representative algorithm.
  for (DelayPattern dp :
       {DelayPattern::kUnitDelay, DelayPattern::kMaxDelay,
        DelayPattern::kBimodal, DelayPattern::kTargetedSlow})
    cases.push_back(
        CleanCase{GossipAlgorithm::kEars, SchedulePattern::kStaggered, dp});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, AuditCleanSweep,
                         ::testing::ValuesIn(clean_cases()));

TEST(Audit, ObservationDoesNotPerturbTheOutcome) {
  GossipSpec spec;
  spec.algorithm = GossipAlgorithm::kEars;
  spec.n = 40;
  spec.f = 10;
  spec.d = 3;
  spec.delta = 2;
  spec.schedule = SchedulePattern::kStaggered;
  spec.seed = 77;
  const GossipOutcome plain = run_gossip_spec(spec);
  const AuditedGossipOutcome audited = run_audited_gossip_spec(spec);
  EXPECT_TRUE(audited.audit.ok()) << audited.audit.summary();
  EXPECT_EQ(plain.completion_time, audited.outcome.completion_time);
  EXPECT_EQ(plain.messages, audited.outcome.messages);
  EXPECT_EQ(plain.bytes, audited.outcome.bytes);
  EXPECT_EQ(plain.crashes, audited.outcome.crashes);
  EXPECT_EQ(plain.gathering_ok, audited.outcome.gathering_ok);

  // The spec-level flag routes through the same audited path and, with a
  // clean execution, must not throw.
  GossipSpec flagged = spec;
  flagged.audit = true;
  const GossipOutcome via_flag = run_gossip_spec(flagged);
  EXPECT_EQ(via_flag.completion_time, plain.completion_time);
}

TEST(Audit, RecomputedTotalsMatchTraceCounters) {
  GossipSpec spec;
  spec.algorithm = GossipAlgorithm::kTears;
  spec.n = 32;
  spec.f = 8;
  spec.d = 2;
  spec.delta = 2;
  spec.schedule = SchedulePattern::kRotating;
  spec.seed = 5;
  Engine engine = make_gossip_engine(spec);
  InvariantAuditor auditor(small_config(spec.n, spec.d, spec.delta, spec.f));
  engine.set_observer(&auditor);
  engine.run(300);
  auditor.cross_check(engine.metrics());
  EXPECT_TRUE(auditor.report().ok()) << auditor.report().summary();
  EXPECT_EQ(auditor.observed_sends(), engine.metrics().messages_sent());
  EXPECT_EQ(auditor.observed_deliveries(),
            engine.metrics().messages_delivered());
  EXPECT_EQ(auditor.observed_steps(), engine.metrics().local_steps());
  EXPECT_EQ(auditor.observed_crashes(), engine.crashes_so_far());
}

// ---------------------------------------------------------------------------
// Seeded violations: one deliberately misbehaving event stream per
// invariant class, each flagged with exactly the right kind.
// ---------------------------------------------------------------------------

TEST(AuditSeeded, LateDeliveryPastTheDeliveryBound) {
  InvariantAuditor a(small_config(2, /*d=*/2, /*delta=*/10, 0));
  a.on_step(0, 0);
  a.on_send(make_env(1, 0, 1, 0, 2));
  a.on_step(2, 1);  // deliverable since t=2 — this step should receive it
  a.on_step(4, 1);
  a.on_delivery(make_env(1, 0, 1, 0, 2), 4);
  EXPECT_EQ(a.report().total(), 1u);
  EXPECT_EQ(a.report().count(ViolationKind::kLateDelivery), 1u);
}

TEST(AuditSeeded, DeltaStarvationBetweenSteps) {
  InvariantAuditor a(small_config(1, 1, /*delta=*/2, 0));
  a.on_step(0, 0);
  a.on_step(5, 0);  // gap 5 > delta
  EXPECT_EQ(a.report().total(), 1u);
  EXPECT_EQ(a.report().count(ViolationKind::kDeltaViolation), 1u);
}

TEST(AuditSeeded, DeltaFirstStepTooLate) {
  InvariantAuditor a(small_config(1, 1, /*delta=*/2, 0));
  a.on_step(3, 0);  // first step must come by t = delta - 1 = 1
  EXPECT_EQ(a.report().count(ViolationKind::kDeltaViolation), 1u);
}

TEST(AuditSeeded, DeltaStarvationAtEndOfRun) {
  InvariantAuditor a(small_config(1, 1, /*delta=*/2, 0));
  a.on_step(0, 0);
  a.finalize(/*end_time=*/10);  // last step at 0, 10 > 0 + delta
  EXPECT_EQ(a.report().count(ViolationKind::kDeltaViolation), 1u);

  InvariantAuditor never(small_config(1, 1, /*delta=*/2, 0));
  never.finalize(/*end_time=*/5);  // never scheduled at all
  EXPECT_EQ(never.report().count(ViolationKind::kDeltaViolation), 1u);
}

TEST(AuditSeeded, CrashBudgetExceeded) {
  InvariantAuditor a(small_config(3, 1, 10, /*f=*/1));
  a.on_crash(0, 0);
  a.on_crash(1, 1);  // second crash with budget 1
  EXPECT_EQ(a.report().total(), 1u);
  EXPECT_EQ(a.report().count(ViolationKind::kCrashBudgetExceeded), 1u);
}

TEST(AuditSeeded, DuplicateCrash) {
  InvariantAuditor a(small_config(2, 1, 10, 2));
  a.on_crash(0, 0);
  a.on_crash(3, 0);
  EXPECT_EQ(a.report().count(ViolationKind::kDuplicateCrash), 1u);
}

TEST(AuditSeeded, PostCrashStep) {
  InvariantAuditor a(small_config(2, 1, 10, 1));
  a.on_crash(0, 0);
  a.on_step(1, 0);
  EXPECT_EQ(a.report().total(), 1u);
  EXPECT_EQ(a.report().count(ViolationKind::kPostCrashStep), 1u);
}

TEST(AuditSeeded, PostCrashSend) {
  InvariantAuditor a(small_config(2, /*d=*/2, 10, 1));
  a.on_step(0, 0);
  a.on_crash(0, 0);
  a.on_send(make_env(1, 0, 1, 0, 1));
  EXPECT_EQ(a.report().total(), 1u);
  EXPECT_EQ(a.report().count(ViolationKind::kPostCrashSend), 1u);
}

TEST(AuditSeeded, PostCrashDelivery) {
  InvariantAuditor a(small_config(2, 2, 10, 1));
  a.on_step(0, 0);
  a.on_send(make_env(1, 0, 1, 0, 1));
  a.on_crash(0, 1);
  a.on_delivery(make_env(1, 0, 1, 0, 1), 1);
  EXPECT_EQ(a.report().total(), 1u);
  EXPECT_EQ(a.report().count(ViolationKind::kPostCrashDelivery), 1u);
}

TEST(AuditSeeded, FifoInversionOnOneChannel) {
  InvariantAuditor a(small_config(2, /*d=*/5, 10, 0));
  a.on_step(0, 0);
  a.on_send(make_env(1, 0, 1, 0, 1));
  a.on_send(make_env(2, 0, 1, 0, 2));
  a.on_step(3, 1);
  // Both deliverable by t=3; delivering only the newer one overtakes the
  // older on the same (sender, receiver) channel.
  a.on_delivery(make_env(2, 0, 1, 0, 2), 3);
  EXPECT_EQ(a.report().total(), 1u);
  EXPECT_EQ(a.report().count(ViolationKind::kFifoInversion), 1u);
}

TEST(AuditSeeded, FifoOvertakeOfUndeliverableMessageIsLegal) {
  InvariantAuditor a(small_config(2, /*d=*/5, 10, 0));
  a.on_step(0, 0);
  a.on_send(make_env(1, 0, 1, 0, 5));  // slow message
  a.on_send(make_env(2, 0, 1, 0, 1));  // fast message
  a.on_step(2, 1);
  // The older message is not yet deliverable at t=2: overtaking it is the
  // model's asynchrony, not a FIFO violation.
  a.on_delivery(make_env(2, 0, 1, 0, 1), 2);
  EXPECT_TRUE(a.report().ok()) << a.report().summary();
}

TEST(AuditSeeded, MessageIdReuse) {
  InvariantAuditor a(small_config(2, 2, 10, 0));
  a.on_step(0, 0);
  a.on_send(make_env(5, 0, 1, 0, 1));
  a.on_send(make_env(3, 0, 1, 0, 1));  // ids must be monotone
  EXPECT_EQ(a.report().total(), 1u);
  EXPECT_EQ(a.report().count(ViolationKind::kMessageIdReuse), 1u);
}

TEST(AuditSeeded, UnknownMessageDelivery) {
  InvariantAuditor a(small_config(2, 1, 10, 0));
  a.on_step(1, 1);
  a.on_delivery(make_env(9, 0, 1, 0, 1), 1);  // never sent
  EXPECT_EQ(a.report().total(), 1u);
  EXPECT_EQ(a.report().count(ViolationKind::kUnknownMessage), 1u);
}

TEST(AuditSeeded, SameStepRelayIsEarlyDelivery) {
  InvariantAuditor a(small_config(2, 2, 10, 0));
  a.on_step(0, 0);
  a.on_send(make_env(1, 0, 1, 0, 1));
  a.on_step(0, 1);
  a.on_delivery(make_env(1, 0, 1, 0, 1), 0);  // delivered in its send step
  EXPECT_EQ(a.report().total(), 1u);
  EXPECT_EQ(a.report().count(ViolationKind::kEarlyDelivery), 1u);
}

TEST(AuditSeeded, DeliveryBeforeDeliverAfterIsEarly) {
  InvariantAuditor a(small_config(2, /*d=*/5, 10, 0));
  a.on_step(0, 0);
  a.on_send(make_env(1, 0, 1, 0, 3));
  a.on_step(2, 1);
  a.on_delivery(make_env(1, 0, 1, 0, 3), 2);  // before deliver_after
  EXPECT_EQ(a.report().total(), 1u);
  EXPECT_EQ(a.report().count(ViolationKind::kEarlyDelivery), 1u);
}

TEST(AuditSeeded, DeliverAfterOutsideTheDelayWindow) {
  InvariantAuditor a(small_config(2, /*d=*/2, 10, 0));
  a.on_step(0, 0);
  a.on_send(make_env(1, 0, 1, 0, 5));  // delay 5 > d = 2
  EXPECT_EQ(a.report().count(ViolationKind::kBadDeliverAfter), 1u);
}

TEST(AuditSeeded, DoubleStepInOneGlobalStep) {
  InvariantAuditor a(small_config(1, 1, 10, 0));
  a.on_step(0, 0);
  a.on_step(0, 0);
  EXPECT_EQ(a.report().total(), 1u);
  EXPECT_EQ(a.report().count(ViolationKind::kDoubleStep), 1u);
}

TEST(AuditSeeded, TimeRegression) {
  InvariantAuditor a(small_config(1, 1, 10, 0));
  a.on_step(5, 0);
  a.on_step(3, 0);  // time went backwards; event is not processed further
  EXPECT_EQ(a.report().total(), 1u);
  EXPECT_EQ(a.report().count(ViolationKind::kTimeRegression), 1u);
}

TEST(AuditSeeded, OutOfRangeProcess) {
  InvariantAuditor a(small_config(2, 1, 10, 0));
  a.on_step(0, 7);
  EXPECT_EQ(a.report().count(ViolationKind::kOutOfRangeProcess), 1u);
}

TEST(AuditSeeded, MetricsMismatchIsFlagged) {
  InvariantAuditor a(small_config(2, 2, 10, 0));
  a.on_step(0, 0);
  a.on_send(make_env(1, 0, 1, 0, 1));
  Metrics untouched(2);  // engine-side counters that recorded nothing
  a.cross_check(untouched);
  EXPECT_GE(a.report().count(ViolationKind::kMetricsMismatch), 1u);
}

TEST(AuditSeeded, ReportCapsRecordingButKeepsCounting) {
  AuditConfig cfg = small_config(1, 1, 10, 0);
  cfg.max_recorded = 2;
  InvariantAuditor a(cfg);
  a.on_step(0, 0);
  for (int i = 0; i < 5; ++i) a.on_step(0, 0);  // five double-steps
  EXPECT_EQ(a.report().violations().size(), 2u);
  EXPECT_EQ(a.report().count(ViolationKind::kDoubleStep), 5u);
  EXPECT_NE(a.report().summary().find("and 3 more"), std::string::npos);
}

TEST(AuditSeeded, SummaryTotalsFollowDeclarationOrderNotInsertionOrder) {
  // The per-kind totals segment must be a pure function of the counts:
  // neither insertion order nor the standard library's hash seed may leak
  // into the report text (docs/ANALYSIS.md, AG-DET-003). Feed the same
  // multiset of violations in two opposite orders and require identical
  // summaries, with kinds listed in ViolationKind declaration order.
  const std::vector<ViolationKind> kinds = {
      ViolationKind::kMetricsMismatch, ViolationKind::kDoubleStep,
      ViolationKind::kLateDelivery, ViolationKind::kDeltaViolation};
  ViolationReport forward(0);   // record-nothing cap: totals line only
  ViolationReport backward(0);
  const auto make_violation = [](ViolationKind k) {
    Violation v;
    v.kind = k;
    return v;
  };
  for (ViolationKind k : kinds) forward.add(make_violation(k));
  for (auto it = kinds.rbegin(); it != kinds.rend(); ++it)
    backward.add(make_violation(*it));
  EXPECT_EQ(forward.summary(), backward.summary());

  const std::string summary = forward.summary();
  const std::size_t late = summary.find("late-delivery=1");
  const std::size_t delta = summary.find("delta-violation=1");
  const std::size_t dbl = summary.find("double-step=1");
  const std::size_t metrics = summary.find("metrics-mismatch=1");
  ASSERT_NE(late, std::string::npos) << summary;
  ASSERT_NE(delta, std::string::npos) << summary;
  ASSERT_NE(dbl, std::string::npos) << summary;
  ASSERT_NE(metrics, std::string::npos) << summary;
  EXPECT_LT(late, delta) << summary;
  EXPECT_LT(delta, dbl) << summary;
  EXPECT_LT(dbl, metrics) << summary;
}

// ---------------------------------------------------------------------------
// Strict-mode cross-check: the auditor's view of an execution must agree
// with the engine's own ModelViolation policing.
// ---------------------------------------------------------------------------

/// An adversary that never schedules anyone: in strict mode the engine
/// must throw at the first delta deadline; in non-strict mode the engine
/// force-schedules, so the *corrected* execution is model-conformant and
/// the auditor must find nothing.
class NeverScheduleAdversary final : public Adversary {
 public:
  StepDecision decide(Time, const EngineView&) override { return {}; }
  Time message_delay(const Envelope&, const EngineView&) override { return 1; }
};

std::vector<std::unique_ptr<Process>> two_trivial_processes() {
  GossipSpec spec;
  spec.algorithm = GossipAlgorithm::kTrivial;
  spec.n = 2;
  spec.f = 0;
  return make_gossip_processes(spec);
}

TEST(AuditStrict, ViolatingAdversaryThrowsStrictButAuditsCleanCorrected) {
  EngineConfig cfg;
  cfg.d = 1;
  cfg.delta = 1;
  cfg.strict = true;
  Engine strict(two_trivial_processes(),
                std::make_unique<NeverScheduleAdversary>(), cfg);
  EXPECT_THROW(strict.run(5), ModelViolation);

  cfg.strict = false;
  Engine corrected(two_trivial_processes(),
                   std::make_unique<NeverScheduleAdversary>(), cfg);
  InvariantAuditor auditor(small_config(2, cfg.d, cfg.delta, 0));
  corrected.set_observer(&auditor);
  corrected.run(20);
  auditor.finalize(corrected.now());
  auditor.cross_check(corrected.metrics());
  EXPECT_TRUE(auditor.report().ok()) << auditor.report().summary();
}

TEST(AuditStrict, CompliantAdversaryPassesBothStrictEngineAndAudit) {
  GossipSpec spec;
  spec.algorithm = GossipAlgorithm::kEars;
  spec.n = 16;
  spec.f = 4;
  spec.d = 2;
  spec.delta = 1;
  spec.schedule = SchedulePattern::kLockStep;
  spec.delay = DelayPattern::kUniform;
  spec.seed = 9;

  ObliviousConfig adv;
  adv.n = spec.n;
  adv.d = spec.d;
  adv.delta = spec.delta;
  adv.schedule = spec.schedule;
  adv.delay = spec.delay;
  adv.crash_plan = random_crashes(spec.n, spec.f, 32, 0xF00D);
  adv.seed = 42;

  EngineConfig cfg;
  cfg.d = spec.d;
  cfg.delta = spec.delta;
  cfg.max_crashes = spec.f;
  cfg.strict = true;  // lock-step scheduling never needs engine correction

  Engine engine(make_gossip_processes(spec),
                std::make_unique<ObliviousAdversary>(adv), cfg);
  InvariantAuditor auditor(small_config(spec.n, spec.d, spec.delta, spec.f));
  engine.set_observer(&auditor);
  EXPECT_NO_THROW(engine.run(200));
  auditor.finalize(engine.now());
  auditor.cross_check(engine.metrics());
  EXPECT_TRUE(auditor.report().ok()) << auditor.report().summary();
}

// ---------------------------------------------------------------------------
// Trace round-trip: the serialized text format feeds the same checks.
// ---------------------------------------------------------------------------

TEST(AuditTrace, SerializedTraceReplaysClean) {
  GossipSpec spec;
  spec.algorithm = GossipAlgorithm::kEars;
  spec.n = 20;
  spec.f = 5;
  spec.d = 3;
  spec.delta = 2;
  spec.schedule = SchedulePattern::kStaggered;
  spec.seed = 31;
  Engine engine = make_gossip_engine(spec);
  TraceRecorder trace;
  engine.set_observer(&trace);
  engine.run_until(gossip_quiet, default_step_budget(spec));

  std::ostringstream os;
  trace.write_trace(os, spec.n, spec.d, spec.delta, spec.f);

  // Parse every line back and replay it through a fresh auditor.
  InvariantAuditor auditor(small_config(spec.n, spec.d, spec.delta, spec.f));
  std::istringstream in(os.str());
  std::size_t events = 0;
  for (std::string line; std::getline(in, line);) {
    TraceRecorder::Event e;
    const auto parsed = TraceRecorder::parse_line(line, &e);
    ASSERT_NE(parsed, TraceRecorder::ParseResult::kError) << line;
    if (parsed != TraceRecorder::ParseResult::kEvent) continue;
    ++events;
    switch (e.kind) {
      case TraceRecorder::EventKind::kStep:
        auditor.on_step(e.time, e.process);
        break;
      case TraceRecorder::EventKind::kSend:
        auditor.on_send(make_env(e.message, e.process, e.peer, e.send_time,
                                 e.deliver_after));
        break;
      case TraceRecorder::EventKind::kDelivery:
        auditor.on_delivery(make_env(e.message, e.peer, e.process, e.send_time,
                                     e.deliver_after),
                            e.time);
        break;
      case TraceRecorder::EventKind::kCrash:
        auditor.on_crash(e.time, e.process);
        break;
    }
  }
  EXPECT_EQ(events, trace.events().size());
  EXPECT_TRUE(auditor.report().ok()) << auditor.report().summary();
  EXPECT_EQ(auditor.observed_sends(), trace.sends());
  EXPECT_EQ(auditor.observed_deliveries(), trace.deliveries());
}

TEST(AuditTrace, FormatRoundTripsEveryEventKind) {
  using Event = TraceRecorder::Event;
  using Kind = TraceRecorder::EventKind;
  const Event events[] = {
      Event{Kind::kStep, 7, 3, kNoProcess, 0, 0, 0},
      Event{Kind::kSend, 7, 3, 9, 41, 7, 9},
      Event{Kind::kDelivery, 12, 9, 3, 41, 7, 9},
      Event{Kind::kCrash, 13, 5, kNoProcess, 0, 0, 0},
  };
  for (const Event& e : events) {
    Event back;
    ASSERT_EQ(TraceRecorder::parse_line(TraceRecorder::format_event(e), &back),
              TraceRecorder::ParseResult::kEvent)
        << TraceRecorder::format_event(e);
    EXPECT_EQ(back.kind, e.kind);
    EXPECT_EQ(back.time, e.time);
    EXPECT_EQ(back.process, e.process);
    EXPECT_EQ(back.message, e.message);
    if (e.kind == Kind::kSend || e.kind == Kind::kDelivery) {
      EXPECT_EQ(back.peer, e.peer);
      EXPECT_EQ(back.send_time, e.send_time);
      EXPECT_EQ(back.deliver_after, e.deliver_after);
    }
  }
  TraceRecorder::Event out;
  EXPECT_EQ(TraceRecorder::parse_line("# comment", &out),
            TraceRecorder::ParseResult::kSkip);
  EXPECT_EQ(TraceRecorder::parse_line("model n=4 d=1 delta=1 f=0", &out),
            TraceRecorder::ParseResult::kSkip);
  EXPECT_EQ(TraceRecorder::parse_line("", &out),
            TraceRecorder::ParseResult::kSkip);
  EXPECT_EQ(TraceRecorder::parse_line("garbage 1 2 3", &out),
            TraceRecorder::ParseResult::kError);
  EXPECT_EQ(TraceRecorder::parse_line("step 1", &out),
            TraceRecorder::ParseResult::kError);
  EXPECT_EQ(TraceRecorder::parse_line("step 1 2 3", &out),
            TraceRecorder::ParseResult::kError);
  // Fields are plain decimal digits that fit: an id past 2^32 or with a
  // sign is not read as a wrapped process 1, nor a time past 2^64 - 1.
  EXPECT_EQ(TraceRecorder::parse_line("step 0 4294967297", &out),
            TraceRecorder::ParseResult::kError);
  EXPECT_EQ(TraceRecorder::parse_line("step 0 -4294967295", &out),
            TraceRecorder::ParseResult::kError);
  EXPECT_EQ(TraceRecorder::parse_line("step 18446744073709551616 1", &out),
            TraceRecorder::ParseResult::kError);
}

}  // namespace
}  // namespace asyncgossip
