#include "consensus/get_core.h"

#include <gtest/gtest.h>

#include "consensus/canetti_rabin.h"

namespace asyncgossip {
namespace {

InstanceState make_state(std::size_t n, std::vector<std::pair<std::size_t, Val>> items) {
  InstanceState s(n);
  for (const auto& [origin, value] : items) {
    s.origins.set(origin);
    s.set_item(origin, value);
  }
  return s;
}

TEST(InstanceState, MergeUnionsOriginsAndItems) {
  InstanceState a = make_state(8, {{0, 1}});
  const InstanceState b = make_state(8, {{1, 0}, {2, 1}});
  EXPECT_TRUE(a.merge(b));
  EXPECT_EQ(a.origins.count(), 3u);
  EXPECT_EQ(a.items[1], 0);
  EXPECT_EQ(a.items[2], 1);
  EXPECT_FALSE(a.merge(b));  // idempotent
}

TEST(InstanceState, MergeKeepsFirstValue) {
  InstanceState a = make_state(4, {{0, 1}});
  const InstanceState b = make_state(4, {{0, 0}});
  a.merge(b);
  EXPECT_EQ(a.items[0], 1);  // existing value wins (values can't conflict
                             // in honest executions)
}

TEST(InstanceState, AddOwn) {
  InstanceState s(4);
  s.add_own(2, kValBot);
  EXPECT_TRUE(s.origins.test(2));
  EXPECT_EQ(s.items[2], kValBot);
}

TEST(GetCore, EstimateVotesUnanimous) {
  EXPECT_EQ(evaluate_estimate_votes(make_state(4, {{0, 1}, {1, 1}, {2, 1}})),
            1);
  EXPECT_EQ(evaluate_estimate_votes(make_state(4, {{0, 0}, {3, 0}})), 0);
}

TEST(GetCore, EstimateVotesMixedGivesBot) {
  EXPECT_EQ(evaluate_estimate_votes(make_state(4, {{0, 0}, {1, 1}})),
            kValBot);
}

TEST(GetCore, EstimateVotesEmptyGivesBot) {
  EXPECT_EQ(evaluate_estimate_votes(InstanceState(4)), kValBot);
}

TEST(GetCore, PreferenceAllSameDecides) {
  const PreferenceOutcome out =
      evaluate_preference_votes(make_state(4, {{0, 1}, {1, 1}, {2, 1}}));
  EXPECT_TRUE(out.decide);
  EXPECT_EQ(out.decision, 1);
  EXPECT_EQ(out.adopt, 1);
  EXPECT_FALSE(out.conflict);
}

TEST(GetCore, PreferenceWithBotAdoptsButNoDecide) {
  const PreferenceOutcome out = evaluate_preference_votes(
      make_state(4, {{0, 0}, {1, kValBot}}));
  EXPECT_FALSE(out.decide);
  EXPECT_EQ(out.adopt, 0);
}

TEST(GetCore, PreferenceAllBotFallsToCoin) {
  const PreferenceOutcome out = evaluate_preference_votes(
      make_state(4, {{0, kValBot}, {1, kValBot}}));
  EXPECT_FALSE(out.decide);
  EXPECT_EQ(out.adopt, kValUnknown);
  EXPECT_FALSE(out.conflict);
}

TEST(GetCore, PreferenceConflictDetected) {
  const PreferenceOutcome out =
      evaluate_preference_votes(make_state(4, {{0, 0}, {1, 1}}));
  EXPECT_TRUE(out.conflict);
  EXPECT_FALSE(out.decide);
}

TEST(GetCore, CoinZeroDominates) {
  EXPECT_EQ(evaluate_coin(make_state(4, {{0, 1}, {1, 0}, {2, 1}})), 0);
  EXPECT_EQ(evaluate_coin(make_state(4, {{0, 1}, {2, 1}})), 1);
  EXPECT_EQ(evaluate_coin(InstanceState(4)), 1);
}

TEST(GetCore, MajorityThreshold) {
  EXPECT_EQ(majority_threshold(4), 3u);
  EXPECT_EQ(majority_threshold(5), 3u);
  EXPECT_EQ(majority_threshold(64), 33u);
}

TEST(Position, Ordering) {
  const Position a{1, 0, 0}, b{1, 0, 1}, c{1, 1, 0}, d{2, 0, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(c, d);
  EXPECT_EQ(a, (Position{1, 0, 0}));
}

// ---------------------------------------------------------------------------
// The common-core property, verified empirically on full executions: for
// each completed exchange, there must exist a set S of more than n/2 origins
// contained in every participant's get-core return. The maximal candidate
// is the intersection of all returns.
// ---------------------------------------------------------------------------

class CommonCore
    : public ::testing::TestWithParam<std::tuple<ExchangeKind, std::uint64_t>> {
};

TEST_P(CommonCore, HoldsOnPhaseOneExchanges) {
  const auto [kind, seed] = GetParam();
  ConsensusSpec spec;
  spec.config.n = 48;
  spec.config.f = 11;
  spec.config.exchange = kind;
  spec.config.log_getcore_returns = true;
  spec.d = 2;
  spec.delta = 2;
  spec.schedule = SchedulePattern::kStaggered;
  spec.inputs = InputPattern::kHalfHalf;
  spec.seed = seed;

  Engine engine = make_consensus_engine(spec);
  engine.run_until(consensus_all_decided, 100000);

  // Collect, per completed exchange position, the intersection of returns.
  for (std::uint32_t phase = 1; phase <= 1; ++phase) {
    for (std::uint8_t exchange = 0; exchange < 3; ++exchange) {
      DynamicBitset intersection(spec.config.n);
      intersection.set_all();
      std::size_t participants = 0;
      for (ProcessId p = 0; p < engine.n(); ++p) {
        const auto& cp = engine.process_as<ConsensusProcess>(p);
        for (const auto& rec : cp.getcore_log()) {
          if (rec.pos.phase == phase && rec.pos.exchange == exchange) {
            // The get-core *return* is the accumulated item set (votes),
            // not the origins counted in the final sub-instance.
            DynamicBitset known(spec.config.n);
            for (std::size_t o = 0; o < spec.config.n; ++o)
              if (rec.returned.items[o] != kValUnknown) known.set(o);
            intersection &= known;
            ++participants;
          }
        }
      }
      if (participants < 2) continue;  // catch-up skipped this exchange
      EXPECT_GT(intersection.count(), spec.config.n / 2)
          << "no majority core for phase " << phase << " exchange "
          << static_cast<int>(exchange) << " (" << participants
          << " participants)";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSeeds, CommonCore,
    ::testing::Combine(::testing::Values(ExchangeKind::kAllToAll,
                                         ExchangeKind::kEars,
                                         ExchangeKind::kSears,
                                         ExchangeKind::kTears),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace asyncgossip
