// Tests for the shared real-time step (rt/step.h), driven on one thread at
// chosen ticks over an InProcessTransport: no clock, no worker threads, so
// every draw is a pure function of the seed. They pin what both rt drivers
// inherit from the step — event order, raw message ids, the crash-prefix
// rule, the stamp recorded for a send to a crashed destination, and the
// per-process recording cap. The expected draws are recomputed from the
// documented per-process stream (mix64 of the run seed and pid), so a
// change to the draw order or to any rule shows up here.
#include "rt/step.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "rt/driver.h"
#include "rt/fault.h"
#include "rt/merge.h"
#include "rt/transport.h"

namespace asyncgossip {
namespace {

using Event = TraceRecorder::Event;
using EventKind = TraceRecorder::EventKind;

/// Reports one probe phase and sends one payload-free message to every
/// other process, every step: a step's record size is known in advance.
class SendToAll final : public Process {
 public:
  void step(StepContext& ctx) override {
    ctx.probe_phase("send-to-all");
    for (ProcessId q = 0; q < ctx.n(); ++q)
      if (q != ctx.self()) ctx.send(q, PayloadPtr{});
  }
  std::unique_ptr<Process> clone() const override {
    return std::make_unique<SendToAll>(*this);
  }
  void reseed(std::uint64_t /*seed*/) override {}
};

RtConfig step_config(std::size_t n, std::uint64_t seed) {
  RtConfig config;
  config.spec.n = n;
  config.spec.d = 3;
  config.spec.delta = 2;
  config.spec.seed = seed;
  return config;
}

/// A fault injector with no stalls or drops, crashing `victim` (if any)
/// at its local step `at`.
FaultInjector crash_plan(std::size_t n, ProcessId victim = kNoProcess,
                         std::uint64_t at = 0) {
  FaultPlan plan;
  plan.crash_at_step.assign(n, kTimeMax);
  if (victim != kNoProcess) plan.crash_at_step[victim] = at;
  return FaultInjector(std::move(plan), 3, 2);
}

/// The per-process stream the step draws from.
Xoshiro256SS process_stream(std::uint64_t seed, ProcessId p) {
  return Xoshiro256SS(mix64(seed ^ (0x9e3779b97f4a7c15ULL * (p + 1))));
}

MessageId raw_id(ProcessId p, std::uint64_t k) {
  return (static_cast<MessageId>(p) << 40) | k;
}

std::vector<EventKind> kinds(const std::vector<Event>& events) {
  std::vector<EventKind> out;
  for (const Event& e : events) out.push_back(e.kind);
  return out;
}

TEST(RtStep, RecordsStepThenDeliveriesThenSendsThenCrash) {
  const std::size_t n = 3;
  const RtConfig config = step_config(n, 21);
  const FaultInjector faults = crash_plan(n, /*victim=*/1, /*at=*/1);
  InProcessTransport transport(n);
  SendToAll a, b;
  RtProcessLog log0, log1;
  RtStepper s0(config, 0, a, faults, transport, &log0);
  RtStepper s1(config, 1, b, faults, transport, &log1);

  s0.step(0);
  s1.step(0);
  // d = 3: everything sent at tick 0 is deliverable by tick 4.
  const RtStepResult r = s1.step(10);

  // Process 1's second step: one delivery (process 0's tick-0 message; its
  // own tick-0 sends went to 0 and 2), then a crash with a prefix kept.
  Xoshiro256SS rng = process_stream(21, 1);
  rng.uniform(3);
  rng.uniform(3);  // the two delays of step 0
  const std::size_t keep = rng.uniform(n - 1 + 1);
  ASSERT_GT(keep, 0u) << "seed chosen so the crash step sends something";
  EXPECT_TRUE(r.crashed);
  EXPECT_EQ(r.delivered, 1u);
  EXPECT_EQ(r.sent, keep);

  std::vector<EventKind> want = {EventKind::kStep, EventKind::kSend,
                                 EventKind::kSend, EventKind::kStep,
                                 EventKind::kDelivery};
  want.insert(want.end(), keep, EventKind::kSend);
  want.push_back(EventKind::kCrash);
  EXPECT_EQ(kinds(log1.events), want);
  const Event& delivery = log1.events[4];
  EXPECT_EQ(delivery.time, 10u);
  EXPECT_EQ(delivery.peer, 0u);
  EXPECT_EQ(delivery.message, raw_id(0, 0));
  EXPECT_EQ(log1.events.back().time, 10u);
  // One probe report per step, recorded beside the events.
  ASSERT_EQ(log1.probes.size(), 2u);
  EXPECT_EQ(log1.probes[1].time, 10u);
}

TEST(RtStep, MessageIdsArePidShiftedLocalCounters) {
  const std::size_t n = 4;
  const RtConfig config = step_config(n, 5);
  const FaultInjector faults = crash_plan(n);
  InProcessTransport transport(n);
  SendToAll algo;
  RtProcessLog log;
  RtStepper s2(config, 2, algo, faults, transport, &log);
  s2.step(0);
  s2.step(3);

  std::vector<MessageId> ids;
  for (const Event& e : log.events)
    if (e.kind == EventKind::kSend) ids.push_back(e.message);
  const std::vector<MessageId> want = {raw_id(2, 0), raw_id(2, 1), raw_id(2, 2),
                                       raw_id(2, 3), raw_id(2, 4), raw_id(2, 5)};
  EXPECT_EQ(ids, want);
  EXPECT_EQ(s2.steps(), 2u);
}

TEST(RtStep, PlannedCrashKeepsTheDrawnPrefixOfTheOutbox) {
  const std::size_t n = 6;
  bool saw_none = false;
  bool saw_all = false;
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    const RtConfig config = step_config(n, seed);
    const FaultInjector faults = crash_plan(n, /*victim=*/4, /*at=*/0);
    InProcessTransport transport(n);
    SendToAll algo;
    RtProcessLog log;
    RtStepper s4(config, 4, algo, faults, transport, &log);
    const RtStepResult r = s4.step(7);

    Xoshiro256SS rng = process_stream(seed, 4);
    const std::size_t keep = rng.uniform(n - 1 + 1);
    saw_none = saw_none || keep == 0;
    saw_all = saw_all || keep == n - 1;
    EXPECT_TRUE(r.crashed);
    EXPECT_EQ(r.sent, keep) << "seed " << seed;
    // The survivors are the outbox's first `keep` entries, in order.
    std::vector<ProcessId> to;
    for (const Event& e : log.events)
      if (e.kind == EventKind::kSend) to.push_back(e.peer);
    const std::vector<ProcessId> outbox = {0, 1, 2, 3, 5};
    EXPECT_EQ(to, std::vector<ProcessId>(outbox.begin(), outbox.begin() + keep))
        << "seed " << seed;
    EXPECT_EQ(log.events.back().kind, EventKind::kCrash);
  }
  // Both ends of [0, sends] occur: an empty and a complete prefix.
  EXPECT_TRUE(saw_none);
  EXPECT_TRUE(saw_all);
}

TEST(RtStep, SendToClosedInboxRecordsNowPlusDrawnDelay) {
  const std::size_t n = 3;
  const RtConfig config = step_config(n, 9);
  const FaultInjector faults = crash_plan(n);
  InProcessTransport transport(n);
  EXPECT_EQ(transport.close_inbox(2), 0u);
  SendToAll algo;
  RtProcessLog log;
  RtStepper s0(config, 0, algo, faults, transport, &log);
  const RtStepResult r = s0.step(4);

  Xoshiro256SS rng = process_stream(9, 0);
  const Time delay_to_1 = 1 + rng.uniform(3);
  const Time delay_to_2 = 1 + rng.uniform(3);
  EXPECT_EQ(r.sent, 2u);
  EXPECT_EQ(r.refused, 1u);
  ASSERT_EQ(kinds(log.events),
            (std::vector<EventKind>{EventKind::kStep, EventKind::kSend,
                                    EventKind::kSend}));
  EXPECT_EQ(log.events[1].peer, 1u);
  EXPECT_EQ(log.events[1].deliver_after, 4 + delay_to_1);
  EXPECT_EQ(log.events[2].peer, 2u);
  EXPECT_EQ(log.events[2].deliver_after, 4 + delay_to_2);
}

TEST(RtStep, RecordingCapIsEachProcessShareOfMaxEvents) {
  const std::size_t n = 4;
  RtConfig config = step_config(n, 3);
  config.max_events = 8;  // a share of 2 records per process
  const FaultInjector faults = crash_plan(n);
  InProcessTransport transport(n);
  SendToAll algo;
  std::vector<RtProcessLog> logs(n);
  RtStepper s0(config, 0, algo, faults, transport, &logs[0]);
  s0.step(0);

  // One step is 5 records: the step, a probe report and 3 sends.
  EXPECT_EQ(logs[0].events.size() + logs[0].probes.size(), 2u);
  EXPECT_EQ(logs[0].dropped, 3u);

  RtRunResult result;
  merge_rt_logs(n, std::move(logs), std::vector<std::uint8_t>(n, 0), &result);
  EXPECT_EQ(result.events_dropped, 3u);
  std::ostringstream os;
  write_rt_trace(os, config, result);
  const std::string header =
      "# asyncgossip trace v1\nmodel n=4 d=" +
      std::to_string(result.outcome.realized_d) +
      " delta=" + std::to_string(result.outcome.realized_delta) +
      " f=0\n# WARNING: 3 records dropped by the bounded recorder; this "
      "trace is a prefix\n";
  EXPECT_EQ(os.str().substr(0, header.size()), header);
}

TEST(RtStep, PacingTargetsFollowTheLastStep) {
  const std::size_t n = 2;
  const RtConfig config = step_config(n, 13);
  const FaultInjector faults = crash_plan(n);
  InProcessTransport transport(n);
  SendToAll algo;
  RtProcessLog log;
  RtStepper s1(config, 1, algo, faults, transport, &log);

  Xoshiro256SS rng = process_stream(13, 1);
  EXPECT_EQ(s1.next_target(), rng.uniform(2));  // first step in [0, delta)
  s1.step(5);
  rng.uniform(3);  // the step's one delay draw
  EXPECT_EQ(s1.next_target(), 5 + 1 + rng.uniform(2));
  // A clock that has not moved past the last step is raised past it.
  s1.step(5);
  EXPECT_EQ(log.events[2].kind, EventKind::kStep);
  EXPECT_EQ(log.events[2].time, 6u);
}

}  // namespace
}  // namespace asyncgossip
