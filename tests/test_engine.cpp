#include "sim/engine.h"

#include <gtest/gtest.h>

#include <memory>

#include "lowerbound/adaptive.h"  // ScriptedAdversary
#include "sim/oblivious.h"

namespace asyncgossip {
namespace {

struct PingPayload final : Payload {
  int tag = 0;
};

/// Test process: records every delivery, and sends according to a simple
/// script: on local step s, send `sends_per_step` messages to `target`.
class RecorderProcess final : public Process {
 public:
  RecorderProcess(ProcessId id, ProcessId target, int sends_per_step,
                  std::uint64_t stop_after_steps = kTimeMax)
      : id_(id),
        target_(target),
        sends_per_step_(sends_per_step),
        stop_after_(stop_after_steps) {}

  void step(StepContext& ctx) override {
    for (const Envelope& env : ctx.received()) {
      deliveries.push_back(env);
    }
    if (steps_ < stop_after_) {
      for (int i = 0; i < sends_per_step_; ++i) {
        auto payload = std::make_shared<PingPayload>();
        payload->tag = static_cast<int>(steps_);
        ctx.send(target_, payload);
      }
    }
    ++steps_;
    last_local_step_seen_ = ctx.local_step();
  }

  std::unique_ptr<Process> clone() const override {
    return std::make_unique<RecorderProcess>(*this);
  }
  void reseed(std::uint64_t) override {}

  std::vector<Envelope> deliveries;
  std::uint64_t steps_ = 0;
  std::uint64_t last_local_step_seen_ = 0;

 private:
  ProcessId id_;
  ProcessId target_;
  int sends_per_step_;
  std::uint64_t stop_after_;
};

std::vector<std::unique_ptr<Process>> two_senders(int sends_per_step = 1) {
  std::vector<std::unique_ptr<Process>> v;
  v.push_back(std::make_unique<RecorderProcess>(0, 1, sends_per_step));
  v.push_back(std::make_unique<RecorderProcess>(1, 0, sends_per_step));
  return v;
}

std::unique_ptr<ScriptedAdversary> benign() {
  return std::make_unique<ScriptedAdversary>();
}

TEST(Engine, RejectsBadConfig) {
  EngineConfig cfg;
  cfg.d = 0;
  EXPECT_THROW(Engine(two_senders(), benign(), cfg), ApiError);
  cfg = EngineConfig{};
  cfg.max_crashes = 2;  // f < n violated (n = 2)
  EXPECT_THROW(Engine(two_senders(), benign(), cfg), ApiError);
  EXPECT_THROW(Engine({}, benign(), EngineConfig{}), ApiError);
  EXPECT_THROW(Engine(two_senders(), nullptr, EngineConfig{}), ApiError);
}

TEST(Engine, DeliversWithDelayOne) {
  Engine e(two_senders(), benign(), EngineConfig{});
  e.run(3);
  // Step 0: both send. Step 1: both deliver the step-0 message and send
  // again. Step 2: deliver step-1 messages.
  const auto& p0 = dynamic_cast<const RecorderProcess&>(e.process(0));
  ASSERT_EQ(p0.deliveries.size(), 2u);
  EXPECT_EQ(p0.deliveries[0].send_time, 0u);
  EXPECT_EQ(p0.deliveries[0].from, 1u);
  EXPECT_EQ(e.metrics().messages_sent(), 6u);
  EXPECT_EQ(e.metrics().messages_delivered(), 4u);
}

TEST(Engine, NoSameStepRelay) {
  // A message sent at step t must never be delivered at step t.
  Engine e(two_senders(), benign(), EngineConfig{});
  e.run(5);
  const auto& p0 = dynamic_cast<const RecorderProcess&>(e.process(0));
  for (const Envelope& env : p0.deliveries) {
    EXPECT_GE(env.deliver_after, env.send_time + 1);
  }
}

TEST(Engine, DelayClampedToD) {
  auto adv = benign();
  adv->set_delay([](const Envelope&, const EngineView&) {
    return Time{1000};  // far beyond d
  });
  EngineConfig cfg;
  cfg.d = 3;
  Engine e(two_senders(), std::move(adv), cfg);
  e.run(10);
  const auto& p0 = dynamic_cast<const RecorderProcess&>(e.process(0));
  ASSERT_FALSE(p0.deliveries.empty());
  for (const Envelope& env : p0.deliveries)
    EXPECT_LE(env.deliver_after, env.send_time + 3);
}

TEST(Engine, DeltaDeadlineForcesScheduling) {
  // Adversary schedules nobody; the engine must still step every live
  // process at least once per delta window.
  auto adv = benign();
  adv->set_decide([](Time, const EngineView&) { return StepDecision{}; });
  EngineConfig cfg;
  cfg.delta = 4;
  Engine e(two_senders(), std::move(adv), cfg);
  e.run(17);
  const auto& p0 = dynamic_cast<const RecorderProcess&>(e.process(0));
  // Forced at times 3, 7, 11, 15.
  EXPECT_EQ(p0.steps_, 4u);
  EXPECT_LE(e.metrics().realized_delta(), 4u);
}

TEST(Engine, StrictModeThrowsOnDeltaViolation) {
  auto adv = benign();
  adv->set_decide([](Time, const EngineView&) { return StepDecision{}; });
  EngineConfig cfg;
  cfg.delta = 2;
  cfg.strict = true;
  Engine e(two_senders(), std::move(adv), cfg);
  EXPECT_THROW(e.run(5), ModelViolation);
}

TEST(Engine, CrashBudgetEnforced) {
  auto adv = benign();
  adv->set_decide([](Time now, const EngineView& view) {
    StepDecision d;
    if (now == 0) d.crash.push_back(0);
    for (ProcessId p = 0; p < view.n(); ++p)
      if (!view.crashed(p)) d.schedule.push_back(p);
    return d;
  });
  EngineConfig cfg;  // max_crashes = 0
  Engine e(two_senders(), std::move(adv), cfg);
  EXPECT_THROW(e.run(1), ModelViolation);
}

TEST(Engine, CrashedProcessNeverSteps) {
  auto adv = benign();
  adv->set_decide([](Time now, const EngineView& view) {
    StepDecision d;
    if (now == 2) d.crash.push_back(1);
    for (ProcessId p = 0; p < view.n(); ++p)
      if (!view.crashed(p)) d.schedule.push_back(p);
    return d;
  });
  EngineConfig cfg;
  cfg.max_crashes = 1;
  Engine e(two_senders(), std::move(adv), cfg);
  e.run(10);
  EXPECT_TRUE(e.crashed(1));
  EXPECT_EQ(e.alive_count(), 1u);
  const auto& p1 = dynamic_cast<const RecorderProcess&>(e.process(1));
  EXPECT_EQ(p1.steps_, 2u);  // stepped at 0 and 1 only
}

TEST(Engine, MessagesToCrashedProcessAreDropped) {
  auto adv = benign();
  adv->set_decide([](Time now, const EngineView& view) {
    StepDecision d;
    if (now == 0) d.crash.push_back(1);
    for (ProcessId p = 0; p < view.n(); ++p)
      if (!view.crashed(p)) d.schedule.push_back(p);
    return d;
  });
  EngineConfig cfg;
  cfg.max_crashes = 1;
  Engine e(two_senders(), std::move(adv), cfg);
  e.run(5);
  // Process 0 keeps sending to the crashed process 1; nothing accumulates.
  EXPECT_TRUE(e.network_empty());
  EXPECT_GT(e.metrics().messages_sent(), 0u);
  EXPECT_EQ(e.metrics().messages_delivered(), 0u);
}

/// Sends one fresh payload per step to every process, 0 first, and
/// records the (sender, tag) of each delivery.
class FanoutProcess final : public Process {
 public:
  explicit FanoutProcess(std::size_t n) : n_(n) {}

  void step(StepContext& ctx) override {
    for (const Envelope& env : ctx.received()) {
      const auto* m = payload_cast<PingPayload>(env);
      ASSERT_NE(m, nullptr);
      got.emplace_back(env.from, m->tag);
    }
    auto payload = std::make_shared<PingPayload>();
    payload->tag = static_cast<int>(ctx.local_step());
    for (std::size_t q = 0; q < n_; ++q)
      ctx.send(static_cast<ProcessId>(q), payload);
  }
  std::unique_ptr<Process> clone() const override {
    return std::make_unique<FanoutProcess>(*this);
  }
  void reseed(std::uint64_t) override {}

  std::vector<std::pair<ProcessId, int>> got;

 private:
  std::size_t n_;
};

TEST(Engine, FanoutWhoseFirstDestinationCrashedStillDelivers) {
  // A fan-out is one owning outbox entry plus non-owning aliases; with
  // process 0 crashed, every run's owner goes to a crashed destination and
  // the engine must intern it for the aliases that follow.
  constexpr std::size_t kN = 4;
  std::vector<std::unique_ptr<Process>> procs;
  for (std::size_t p = 0; p < kN; ++p)
    procs.push_back(std::make_unique<FanoutProcess>(kN));
  auto adv = benign();
  adv->set_decide([](Time now, const EngineView& view) {
    StepDecision d;
    if (now == 0) d.crash.push_back(0);
    for (ProcessId p = 0; p < view.n(); ++p)
      if (!view.crashed(p)) d.schedule.push_back(p);
    return d;
  });
  EngineConfig cfg;
  cfg.max_crashes = 1;
  Engine e(std::move(procs), std::move(adv), cfg);
  e.run(6);
  for (ProcessId p = 1; p < kN; ++p) {
    const auto& got = e.process_as<FanoutProcess>(p).got;
    // Steps 1..5 each deliver step t-1's payload of all three live senders.
    ASSERT_EQ(got.size(), 15u) << "process " << p;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].first, 1 + i % 3);
      EXPECT_EQ(got[i].second, static_cast<int>(i / 3));
    }
  }
  EXPECT_EQ(e.metrics().messages_sent(), 6u * 3u * kN);
  EXPECT_EQ(e.arena_stats().payload_pool_live, 3u);  // step 5's, in flight
}

TEST(Engine, RestartMatchesAFreshEngine) {
  // restart() is the constructor's initialisation: after a run under one
  // configuration, a restarted engine (and restarted adversary) replays a
  // second configuration exactly like a fresh engine.
  const auto make_procs = [] {
    std::vector<std::unique_ptr<Process>> v;
    for (ProcessId p = 0; p < 6; ++p)
      v.push_back(std::make_unique<RecorderProcess>(p, (p + 1) % 6, 2));
    return v;
  };
  ObliviousConfig first;
  first.n = 6;
  first.d = 3;
  first.delta = 2;
  first.schedule = SchedulePattern::kStaggered;
  first.crash_plan = {{2, 4}};
  first.seed = 5;
  ObliviousConfig second = first;
  second.d = 7;
  second.delta = 1;
  second.schedule = SchedulePattern::kLockStep;
  second.crash_plan = {{1, 2}, {0, 5}};
  second.seed = 6;
  EngineConfig ecfg1{3, 2, 1};
  EngineConfig ecfg2{7, 1, 2};

  Engine fresh(make_procs(), std::make_unique<ObliviousAdversary>(second),
               ecfg2);
  fresh.run(20);

  auto adversary = std::make_unique<ObliviousAdversary>(first);
  ObliviousAdversary* adv = adversary.get();
  Engine reused(make_procs(), std::move(adversary), ecfg1);
  reused.run(7);  // stop with messages in flight
  ASSERT_FALSE(reused.network_empty());
  adv->restart(second);
  reused.restart(ecfg2);
  EXPECT_EQ(reused.now(), 0u);
  EXPECT_TRUE(reused.network_empty());
  EXPECT_EQ(reused.arena_stats().payload_pool_live, 0u);
  // The processes are the caller's to restart; these send the same every
  // step, so they need none.
  reused.run(20);
  EXPECT_EQ(reused.trace_hash(), fresh.trace_hash());
  EXPECT_EQ(reused.metrics().messages_sent(), fresh.metrics().messages_sent());
  EXPECT_EQ(reused.metrics().messages_delivered(),
            fresh.metrics().messages_delivered());
  EXPECT_EQ(reused.metrics().realized_d(), fresh.metrics().realized_d());
  EXPECT_EQ(reused.metrics().crashes(), fresh.metrics().crashes());
  EXPECT_EQ(reused.alive_count(), fresh.alive_count());
}

TEST(Engine, PendingCountTracksMailbox) {
  // Process 1 is never scheduled (delta huge); messages to it accumulate.
  auto adv = benign();
  adv->set_decide([](Time, const EngineView&) {
    StepDecision d;
    d.schedule.push_back(0);
    return d;
  });
  EngineConfig cfg;
  cfg.delta = 100;
  cfg.d = 100;
  Engine e(two_senders(), std::move(adv), cfg);
  e.run(5);
  EXPECT_EQ(e.pending_count(1), 5u);
  EXPECT_EQ(e.in_flight_count(), 5u);
  EXPECT_EQ(e.pending_for(1).size(), 5u);
}

TEST(Engine, DeterminismSameSeedSameTrace) {
  auto make = [] {
    ObliviousConfig oc;
    oc.n = 2;
    oc.d = 4;
    oc.delta = 3;
    oc.schedule = SchedulePattern::kStaggered;
    oc.delay = DelayPattern::kUniform;
    oc.seed = 99;
    EngineConfig cfg;
    cfg.d = 4;
    cfg.delta = 3;
    return Engine(two_senders(), std::make_unique<ObliviousAdversary>(oc),
                  cfg);
  };
  Engine a = make();
  Engine b = make();
  a.run(50);
  b.run(50);
  EXPECT_EQ(a.trace_hash(), b.trace_hash());
  EXPECT_EQ(a.metrics().messages_sent(), b.metrics().messages_sent());
}

TEST(Engine, RealizedDeltaMeasuresGaps) {
  ObliviousConfig oc;
  oc.n = 2;
  oc.d = 1;
  oc.delta = 5;
  oc.schedule = SchedulePattern::kStaggered;
  oc.delay = DelayPattern::kUnitDelay;
  oc.seed = 7;
  EngineConfig cfg;
  cfg.d = 1;
  cfg.delta = 5;
  Engine e(two_senders(), std::make_unique<ObliviousAdversary>(oc), cfg);
  e.run(40);
  EXPECT_GE(e.metrics().realized_delta(), 1u);
  EXPECT_LE(e.metrics().realized_delta(), 5u);
}

TEST(Engine, RealizedDChargesSenderNotScheduler) {
  // d = 1 delays with a sparse receiver schedule: the realized d must stay
  // 1 because the wait is attributable to delta.
  auto adv = benign();
  adv->set_decide([](Time now, const EngineView&) {
    StepDecision d;
    d.schedule.push_back(0);
    if (now % 6 == 5) d.schedule.push_back(1);  // receiver every 6 steps
    return d;
  });
  EngineConfig cfg;
  cfg.d = 10;
  cfg.delta = 8;
  Engine e(two_senders(), std::move(adv), cfg);
  e.run(30);
  EXPECT_LE(e.metrics().realized_d(), 2u);
}

TEST(Engine, RunUntilStopsEarly) {
  Engine e(two_senders(), benign(), EngineConfig{});
  const bool hit = e.run_until(
      [](const Engine& eng) { return eng.metrics().messages_sent() >= 4; },
      100);
  EXPECT_TRUE(hit);
  EXPECT_LT(e.now(), 100u);
}

TEST(Engine, RunUntilRespectsBudget) {
  Engine e(two_senders(), benign(), EngineConfig{});
  const bool hit = e.run_until([](const Engine&) { return false; }, 7);
  EXPECT_FALSE(hit);
  EXPECT_EQ(e.now(), 7u);
}

TEST(Engine, LocalStepCounterExposedToProcess) {
  Engine e(two_senders(), benign(), EngineConfig{});
  e.run(5);
  const auto& p0 = dynamic_cast<const RecorderProcess&>(e.process(0));
  EXPECT_EQ(p0.last_local_step_seen_, 4u);
  EXPECT_EQ(e.local_steps_of(0), 5u);
}

TEST(Engine, ForkProcessIsDeepCopy) {
  Engine e(two_senders(), benign(), EngineConfig{});
  e.run(3);
  auto fork = e.fork_process(0);
  const auto& orig = dynamic_cast<const RecorderProcess&>(e.process(0));
  const auto& copy = dynamic_cast<const RecorderProcess&>(*fork);
  EXPECT_EQ(orig.steps_, copy.steps_);
  EXPECT_EQ(orig.deliveries.size(), copy.deliveries.size());
}

}  // namespace
}  // namespace asyncgossip
