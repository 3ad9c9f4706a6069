#include "gossip/harness.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "consensus/canetti_rabin.h"
#include "gossip/completion.h"
#include "lowerbound/adaptive.h"

namespace asyncgossip {
namespace {

TEST(Harness, ToStringCoversAllAlgorithms) {
  EXPECT_STREQ(to_string(GossipAlgorithm::kTrivial), "trivial");
  EXPECT_STREQ(to_string(GossipAlgorithm::kEars), "ears");
  EXPECT_STREQ(to_string(GossipAlgorithm::kSears), "sears");
  EXPECT_STREQ(to_string(GossipAlgorithm::kTears), "tears");
  EXPECT_STREQ(to_string(GossipAlgorithm::kSync), "sync");
  EXPECT_STREQ(to_string(GossipAlgorithm::kEarsNoInformedList),
               "ears-no-informed-list");
  EXPECT_STREQ(to_string(GossipAlgorithm::kLazy), "lazy");
}

TEST(Harness, ToStringCoversExchangesAndCases) {
  EXPECT_STREQ(to_string(ExchangeKind::kAllToAll), "all-to-all");
  EXPECT_STREQ(to_string(ExchangeKind::kEars), "ears");
  EXPECT_STREQ(to_string(ExchangeKind::kSears), "sears");
  EXPECT_STREQ(to_string(ExchangeKind::kTears), "tears");
  EXPECT_STREQ(to_string(LowerBoundCase::kSlowPhase1), "slow-phase1");
  EXPECT_STREQ(to_string(LowerBoundCase::kCase1Messages), "case1-messages");
  EXPECT_STREQ(to_string(LowerBoundCase::kCase2Time), "case2-time");
}

TEST(Harness, EngineJobsEnvironmentIsReadStrictly) {
  // Only the returned count is checked: no engine runs with it.
  const char* saved = std::getenv("AG_ENGINE_JOBS");
  const std::string restore = saved != nullptr ? saved : "";
  const auto jobs_for = [](const char* value) {
    setenv("AG_ENGINE_JOBS", value, 1);
    return default_engine_jobs();
  };
  EXPECT_EQ(jobs_for("-1"), 1u) << "a sign must not wrap to 2^64 - 1";
  EXPECT_EQ(jobs_for("+4"), 1u);
  EXPECT_EQ(jobs_for("4x"), 1u);
  EXPECT_EQ(jobs_for(""), 1u);
  EXPECT_EQ(jobs_for("4"), 4u);
  EXPECT_EQ(jobs_for("0"), 0u);
  if (saved != nullptr)
    setenv("AG_ENGINE_JOBS", restore.c_str(), 1);
  else
    unsetenv("AG_ENGINE_JOBS");
}

TEST(Harness, MakeProcessesRespectsN) {
  GossipSpec spec;
  spec.algorithm = GossipAlgorithm::kEars;
  spec.n = 17;
  spec.f = 4;
  const auto procs = make_gossip_processes(spec);
  EXPECT_EQ(procs.size(), 17u);
  for (const auto& p : procs) EXPECT_NE(p, nullptr);
}

TEST(Harness, RejectsBadSpecs) {
  GossipSpec spec;
  spec.n = 1;
  EXPECT_THROW(make_gossip_processes(spec), ModelViolation);
  spec.n = 8;
  spec.f = 8;
  EXPECT_THROW(make_gossip_processes(spec), ModelViolation);
}

TEST(Harness, DefaultBudgetScalesWithParameters) {
  GossipSpec small, big;
  small.n = 32;
  small.f = 8;
  big.n = 32;
  big.f = 8;
  big.d = 16;
  big.delta = 16;
  EXPECT_GT(default_step_budget(big), default_step_budget(small));
  GossipSpec high_f = small;
  high_f.f = 31;
  EXPECT_GT(default_step_budget(high_f), default_step_budget(small));
}

TEST(Harness, EngineMatchesSpecShape) {
  GossipSpec spec;
  spec.algorithm = GossipAlgorithm::kTrivial;
  spec.n = 12;
  spec.f = 3;
  spec.d = 5;
  spec.delta = 4;
  Engine engine = make_gossip_engine(spec);
  EXPECT_EQ(engine.n(), 12u);
  EXPECT_EQ(engine.config().d, 5u);
  EXPECT_EQ(engine.config().delta, 4u);
  EXPECT_EQ(engine.config().max_crashes, 3u);
}

TEST(Harness, GossipQuietRequiresDrainedNetwork) {
  GossipSpec spec;
  spec.algorithm = GossipAlgorithm::kTrivial;
  spec.n = 8;
  spec.f = 0;
  Engine engine = make_gossip_engine(spec);
  EXPECT_FALSE(gossip_quiet(engine));  // nobody stepped yet
  engine.run(1);
  EXPECT_FALSE(gossip_quiet(engine));  // first-step broadcasts in flight
  engine.run(20);
  EXPECT_TRUE(gossip_quiet(engine));
}

TEST(Harness, CheckMajorityThreshold) {
  GossipSpec spec;
  spec.algorithm = GossipAlgorithm::kTrivial;
  spec.n = 9;
  spec.f = 0;
  Engine engine = make_gossip_engine(spec);
  EXPECT_FALSE(judge_gossip(engine).majority_ok);  // each knows only itself
  engine.run(30);
  EXPECT_TRUE(judge_gossip(engine).majority_ok);
  EXPECT_TRUE(judge_gossip(engine).gathering_ok);
}

}  // namespace
}  // namespace asyncgossip
