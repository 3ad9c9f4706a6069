#include "gossip/epidemic.h"

#include <gtest/gtest.h>

#include <cmath>

#include "gossip/completion.h"
#include "gossip/harness.h"

namespace asyncgossip {
namespace {

// Drives a process manually through local steps, outside an engine.
std::vector<StepContext::Outgoing> drive_step(
    Process& p, ProcessId self, std::size_t n,
    const std::vector<Envelope>& inbox, std::uint64_t local_step) {
  StepContext ctx(self, n, local_step, inbox);
  p.step(ctx);
  return std::move(ctx.outbox());
}

Envelope wrap(ProcessId from, ProcessId to, PayloadPtr payload) {
  Envelope env;
  env.from = from;
  env.to = to;
  env.payload = std::move(payload);
  return env;
}

TEST(EarsConfig, ShutdownStepsFormula) {
  const EpidemicConfig cfg = make_ears_config(100, 50, 1, 4.0);
  const double expected = std::ceil(4.0 * (100.0 / 50.0) * std::log(100.0));
  EXPECT_EQ(cfg.shutdown_steps, static_cast<std::uint64_t>(expected));
  EXPECT_EQ(cfg.fanout, 1u);
}

TEST(EarsConfig, ShutdownGrowsWithF) {
  const auto low_f = make_ears_config(128, 8, 1);
  const auto high_f = make_ears_config(128, 120, 1);
  EXPECT_GT(high_f.shutdown_steps, low_f.shutdown_steps);
}

TEST(EarsConfig, RejectsBadParameters) {
  EXPECT_THROW(make_ears_config(10, 10, 1), ModelViolation);
  EpidemicConfig cfg = make_ears_config(10, 5, 1);
  cfg.fanout = 0;
  EXPECT_THROW(EpidemicGossipProcess(0, cfg), ModelViolation);
  cfg = make_ears_config(10, 5, 1);
  cfg.use_informed_list = false;  // needs a fallback budget
  EXPECT_THROW(EpidemicGossipProcess(0, cfg), ModelViolation);
}

TEST(Ears, InitialStateKnowsOwnRumorOnly) {
  EpidemicGossipProcess p(3, make_ears_config(8, 2, 1));
  EXPECT_EQ(p.rumors().count(), 1u);
  EXPECT_TRUE(p.rumors().test(3));
  EXPECT_FALSE(p.progress_done());  // own rumor not yet sent to anyone
  EXPECT_FALSE(p.quiescent());
}

TEST(Ears, SendsExactlyOneMessagePerAwakeStep) {
  EpidemicGossipProcess p(0, make_ears_config(8, 2, 1));
  for (std::uint64_t s = 0; s < 10; ++s) {
    const auto out = drive_step(p, 0, 8, {}, s);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_LT(out[0].to, 8u);
  }
}

TEST(Ears, PayloadCarriesRumorsAndInformedList) {
  EpidemicGossipProcess p(0, make_ears_config(4, 1, 1));
  const auto out = drive_step(p, 0, 4, {}, 0);
  ASSERT_EQ(out.size(), 1u);
  const auto* payload =
      dynamic_cast<const EpidemicPayload*>(out[0].payload.get());
  ASSERT_NE(payload, nullptr);
  EXPECT_TRUE(payload->rumors.test(0));
  // The snapshot is taken before the (rumor, target) pairs are recorded, as
  // in Figure 2 (send on line 18, update I on lines 19-20).
  EXPECT_FALSE(payload->informed.present(0));
}

TEST(Ears, InformedListRecordsTargets) {
  EpidemicGossipProcess p(0, make_ears_config(4, 1, 1));
  const auto first = drive_step(p, 0, 4, {}, 0);
  // Second step's payload must contain the pair recorded in step 0.
  const auto out = drive_step(p, 0, 4, {}, 1);
  const auto* payload =
      dynamic_cast<const EpidemicPayload*>(out[0].payload.get());
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(payload->informed.present_count(), 1u);
  for (std::size_t q = 0; q < 4; ++q)
    EXPECT_EQ(payload->informed.test(0, q), q == first[0].to) << q;
}

TEST(Ears, MergesReceivedRumors) {
  const auto cfg = make_ears_config(4, 1, 1);
  EpidemicGossipProcess a(0, cfg), b(1, cfg);
  const auto out = drive_step(a, 0, 4, {}, 0);
  drive_step(b, 1, 4, {wrap(0, 1, out[0].payload)}, 0);
  EXPECT_TRUE(b.rumors().test(0));
  EXPECT_TRUE(b.rumors().test(1));
}

TEST(Ears, ProgressDoneWhenAllRumorsSentEverywhere) {
  // Tiny system: n = 2. After p sends to both targets (itself and the
  // other), every rumor it knows has been sent everywhere.
  EpidemicConfig cfg = make_ears_config(2, 1, 99);
  EpidemicGossipProcess p(0, cfg);
  // Drive until its informed list covers rumor 0 at both targets. Target
  // choice is random, so iterate a few steps.
  for (std::uint64_t s = 0; s < 64 && !p.progress_done(); ++s)
    drive_step(p, 0, 2, {}, s);
  EXPECT_TRUE(p.progress_done());
}

TEST(Ears, GoesQuiescentAfterShutdownPhaseAndWakesOnNews) {
  EpidemicConfig cfg = make_ears_config(2, 1, 5);
  cfg.shutdown_steps = 3;
  EpidemicGossipProcess p(0, cfg);
  std::uint64_t s = 0;
  for (; s < 256 && !p.quiescent(); ++s) drive_step(p, 0, 2, {}, s);
  ASSERT_TRUE(p.quiescent());
  // Asleep: no sends.
  EXPECT_TRUE(drive_step(p, 0, 2, {}, s++).empty());

  // A new rumor arrives (from a 3rd party in a bigger world — simulate by
  // handing it a payload with an unknown rumor): the process must wake.
  auto news = std::make_shared<EpidemicPayload>();
  news->rumors = DynamicBitset(2);
  news->rumors.set(1);
  news->informed = InformedList(2);
  const auto out = drive_step(p, 0, 2, {wrap(1, 0, news)}, s++);
  EXPECT_FALSE(p.quiescent());
  EXPECT_EQ(out.size(), 1u);  // resumed sending
}

TEST(Ears, SleepCountResetsOnRegression) {
  EpidemicConfig cfg = make_ears_config(2, 1, 5);
  cfg.shutdown_steps = 100;  // stay in shut-down phase
  EpidemicGossipProcess p(0, cfg);
  for (std::uint64_t s = 0; s < 64 && p.sleep_count() < 3; ++s)
    drive_step(p, 0, 2, {}, s);
  ASSERT_GE(p.sleep_count(), 3u);
  auto news = std::make_shared<EpidemicPayload>();
  news->rumors = DynamicBitset(2);
  news->rumors.set(1);
  news->informed = InformedList(2);
  drive_step(p, 0, 2, {wrap(1, 0, news)}, 999);
  EXPECT_EQ(p.sleep_count(), 0u);
}

TEST(Ears, InformedListOfAnotherSizeIsRejected) {
  // V over 8 rumors but I over 2: absorbing it must fail loudly instead of
  // reading rows that are not there.
  EpidemicGossipProcess p(0, make_ears_config(8, 2, 1));
  auto bad = std::make_shared<EpidemicPayload>();
  bad->rumors = DynamicBitset(8);
  bad->rumors.set(1);
  bad->informed = InformedList(2);
  bad->informed.note(1, 1);
  EXPECT_THROW(drive_step(p, 0, 8, {wrap(1, 0, bad)}, 0), ModelViolation);
}

TEST(Ears, CloneIsIndependentReplica) {
  EpidemicGossipProcess p(0, make_ears_config(16, 4, 123));
  for (std::uint64_t s = 0; s < 5; ++s) drive_step(p, 0, 16, {}, s);
  auto clone = p.clone();
  // Same future behaviour (same RNG state).
  const auto a = drive_step(p, 0, 16, {}, 5);
  const auto b = drive_step(*clone, 0, 16, {}, 5);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a[0].to, b[0].to);
}

TEST(Ears, ReseedDivergesFuture) {
  EpidemicGossipProcess p(0, make_ears_config(1024, 4, 123));
  auto clone = p.clone();
  clone->reseed(0xDEAD);
  int same = 0;
  for (std::uint64_t s = 0; s < 32; ++s) {
    const auto a = drive_step(p, 0, 1024, {}, s);
    const auto b = drive_step(*clone, 0, 1024, {}, s);
    if (a[0].to == b[0].to) ++same;
  }
  EXPECT_LT(same, 4);  // target choices now independent
}

TEST(EarsAblation, NoInformedListUsesFixedBudget) {
  EpidemicConfig cfg = make_ears_config(8, 2, 7);
  cfg.use_informed_list = false;
  cfg.fallback_step_budget = 5;
  EpidemicGossipProcess p(0, cfg);
  for (std::uint64_t s = 0; s < 5; ++s) {
    EXPECT_FALSE(p.progress_done());
    drive_step(p, 0, 8, {}, s);
  }
  EXPECT_TRUE(p.progress_done());
}

TEST(EarsAblation, PayloadsStayLinearInN) {
  // Without the progress control nothing is ever recorded in I(p), so the
  // payload's informed list holds n presence flags and no matrix.
  constexpr std::size_t kN = 256;
  EpidemicConfig cfg = make_ears_config(kN, 2, 7);
  cfg.use_informed_list = false;
  cfg.fallback_step_budget = 50;
  EpidemicGossipProcess a(0, cfg), b(1, cfg);
  std::vector<Envelope> inbox;
  for (std::uint64_t s = 0; s < 8; ++s) {
    for (const auto& out : drive_step(a, 0, kN, {}, s))
      inbox.push_back(wrap(0, 1, out.payload));
    const auto out = drive_step(b, 1, kN, inbox, s);
    inbox.clear();
    ASSERT_EQ(out.size(), 1u);
    const auto* payload =
        dynamic_cast<const EpidemicPayload*>(out[0].payload.get());
    ASSERT_NE(payload, nullptr);
    EXPECT_EQ(payload->informed.present_count(), 0u);
    EXPECT_LE(payload->informed.heap_bytes(), kN);
    EXPECT_EQ(payload->byte_size(), kN / 8 + kN / 8);
  }
}

TEST(EarsAblation, InflatesMessageComplexity) {
  GossipSpec with, without;
  with.algorithm = GossipAlgorithm::kEars;
  without.algorithm = GossipAlgorithm::kEarsNoInformedList;
  for (GossipSpec* s : {&with, &without}) {
    s->n = 64;
    s->f = 16;
    s->d = 2;
    s->delta = 2;
    s->schedule = SchedulePattern::kStaggered;
    s->seed = 5;
  }
  const GossipOutcome a = run_gossip_spec(with);
  const GossipOutcome b = run_gossip_spec(without);
  ASSERT_TRUE(a.completed && b.completed);
  ASSERT_TRUE(a.gathering_ok && b.gathering_ok);
  EXPECT_GT(b.messages, 2 * a.messages)
      << "dropping the progress control should cost messages";
}

}  // namespace
}  // namespace asyncgossip
