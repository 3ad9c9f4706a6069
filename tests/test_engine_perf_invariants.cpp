// Golden-trace regression tests for the engine hot path.
//
// The timing-wheel mailbox, direct send injection, and scratch-buffer
// reuse are pure performance work: for a fixed seed every observable —
// the FNV-1a trace hash (which folds in each send and delivery in event
// order) and the Metrics counters — must be bit-identical to the
// pre-optimization engine. The constants below were captured from the
// deque-mailbox engine before the wheel landed; if any future "perf only"
// change shifts one of them, it changed delivery semantics, not just speed.
// `bytes_sent` (added later, captured from the per-rumor informed-list
// layout before the flat matrix replaced it) pins each payload's byte_size,
// which no hash covers.
//
// Two adversary configurations (staggered/uniform and random-subset/
// bimodal) across all eight gossip algorithms exercise every scheduling
// and delay pattern interaction the wheel has to preserve.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gossip/completion.h"
#include "gossip/harness.h"
#include "sim/engine.h"

namespace asyncgossip {
namespace {

struct Golden {
  GossipAlgorithm algorithm;
  std::uint64_t trace_hash;
  std::uint64_t messages_sent;
  std::uint64_t messages_delivered;
  std::uint64_t local_steps;
  Time realized_d;
  Time realized_delta;
  std::size_t max_in_flight;
  Time completion_time;
  bool completed;
  std::uint64_t bytes_sent;  // payload bytes; the trace hash omits them
};

void check_golden(const GossipSpec& base, const Golden& g) {
  GossipSpec spec = base;
  spec.algorithm = g.algorithm;
  Engine engine = make_gossip_engine(spec);
  const GossipOutcome out = run_gossip(engine, default_step_budget(spec));
  const Metrics& m = engine.metrics();
  EXPECT_EQ(engine.trace_hash(), g.trace_hash) << to_string(g.algorithm);
  EXPECT_EQ(m.messages_sent(), g.messages_sent) << to_string(g.algorithm);
  EXPECT_EQ(m.messages_delivered(), g.messages_delivered)
      << to_string(g.algorithm);
  EXPECT_EQ(m.local_steps(), g.local_steps) << to_string(g.algorithm);
  EXPECT_EQ(m.realized_d(), g.realized_d) << to_string(g.algorithm);
  EXPECT_EQ(m.realized_delta(), g.realized_delta) << to_string(g.algorithm);
  EXPECT_EQ(m.max_in_flight(), g.max_in_flight) << to_string(g.algorithm);
  EXPECT_EQ(out.completion_time, g.completion_time) << to_string(g.algorithm);
  EXPECT_EQ(out.completed, g.completed) << to_string(g.algorithm);
  EXPECT_EQ(m.bytes_sent(), g.bytes_sent) << to_string(g.algorithm);
}

TEST(EnginePerfInvariants, GoldenTracesStaggeredUniform) {
  GossipSpec base;
  base.n = 48;
  base.f = 12;
  base.d = 3;
  base.delta = 2;
  base.seed = 42;
  base.schedule = SchedulePattern::kStaggered;
  base.delay = DelayPattern::kUniform;
  const Golden goldens[] = {
      {GossipAlgorithm::kTrivial, 0x73318c975a61aa6fULL, 2304, 2304, 219, 3,
       2, 1873, 2, true, 18432},
      {GossipAlgorithm::kEars, 0xa5045f0f03258f44ULL, 1974, 1847, 2525, 3, 2,
       90, 77, true, 650308},
      {GossipAlgorithm::kSears, 0x867dc497daee2d0fULL, 6696, 6696, 438, 3, 2,
       2211, 8, true, 1496664},
      {GossipAlgorithm::kTears, 0xcf8f218ebfa8a0fdULL, 9561, 9561, 365, 3, 2,
       4071, 6, true, 86049},
      {GossipAlgorithm::kSync, 0xc1eacfb3647354e5ULL, 846, 830, 1411, 3, 2,
       88, 36, true, 6768},
      {GossipAlgorithm::kEarsNoInformedList, 0x824390aada0d8fedULL, 7174,
       5770, 11037, 3, 2, 90, 378, true, 100436},
      {GossipAlgorithm::kLazy, 0x6c1956345313301bULL, 634, 631, 760, 3, 2,
       121, 18, true, 5072},
      {GossipAlgorithm::kRoundRobin, 0x3885198134bf217aULL, 1928, 1794, 2525,
       3, 2, 90, 74, true, 616504},
  };
  for (const Golden& g : goldens) check_golden(base, g);
}

TEST(EnginePerfInvariants, GoldenTracesRandomSubsetBimodal) {
  GossipSpec base;
  base.n = 40;
  base.f = 10;
  base.d = 6;
  base.delta = 5;
  base.seed = 7;
  base.schedule = SchedulePattern::kRandomSubset;
  base.delay = DelayPattern::kBimodal;
  const Golden goldens[] = {
      {GossipAlgorithm::kTrivial, 0x93be27de487a63cbULL, 1560, 1519, 293, 6,
       5, 960, 5, true, 12480},
      {GossipAlgorithm::kEars, 0xb68396c408e77da8ULL, 1342, 1169, 1588, 6, 5,
       46, 89, true, 368390},
      {GossipAlgorithm::kSears, 0x89c6662e3d936eccULL, 5016, 4803, 430, 6, 5,
       1069, 12, true, 1089528},
      {GossipAlgorithm::kTears, 0xdae210b9366a58ceULL, 8025, 7710, 430, 6, 5,
       1853, 13, true, 72225},
      {GossipAlgorithm::kSync, 0xffef3f55b523f35aULL, 632, 575, 931, 6, 5,
       51, 44, true, 5056},
      {GossipAlgorithm::kEarsNoInformedList, 0xa55b22dcc64799c4ULL, 5570,
       4355, 6258, 6, 5, 46, 386, true, 72410},
      {GossipAlgorithm::kLazy, 0x73c1995152cd2b20ULL, 364, 348, 482, 6, 5,
       62, 19, true, 2912},
      {GossipAlgorithm::kRoundRobin, 0xf77c0d5a66c3d853ULL, 1299, 1119,
       1502, 6, 5, 50, 84, true, 352975},
  };
  for (const Golden& g : goldens) check_golden(base, g);
}

TEST(EnginePerfInvariants, ForEachPendingMatchesPendingFor) {
  // The zero-copy iteration must visit exactly the envelopes the copying
  // accessor returns. Visit order differs (wheel buckets vs message id),
  // so compare as id-sorted sets, and check early-stop works.
  GossipSpec spec;
  spec.n = 24;
  spec.f = 6;
  spec.d = 4;
  spec.delta = 3;
  spec.seed = 11;
  spec.algorithm = GossipAlgorithm::kEars;
  spec.schedule = SchedulePattern::kStaggered;
  spec.delay = DelayPattern::kUniform;
  Engine engine = make_gossip_engine(spec);
  engine.run(12);
  bool saw_nonempty = false;
  for (std::size_t p = 0; p < spec.n; ++p) {
    const ProcessId pid = static_cast<ProcessId>(p);
    std::vector<Envelope> copied = engine.pending_for(pid);
    std::vector<std::uint64_t> copied_ids, visited_ids;
    std::vector<Time> copied_deadlines, visited_deadlines;
    for (const Envelope& env : copied) {
      copied_ids.push_back(env.id);
      copied_deadlines.push_back(env.deliver_after);
    }
    engine.for_each_pending(pid, [&](const Envelope& env) {
      EXPECT_EQ(env.to, pid);
      visited_ids.push_back(env.id);
      visited_deadlines.push_back(env.deliver_after);
      return true;
    });
    EXPECT_EQ(visited_ids.size(), engine.pending_count(pid));
    std::sort(copied_ids.begin(), copied_ids.end());
    std::sort(visited_ids.begin(), visited_ids.end());
    std::sort(copied_deadlines.begin(), copied_deadlines.end());
    std::sort(visited_deadlines.begin(), visited_deadlines.end());
    EXPECT_EQ(visited_ids, copied_ids) << "process " << p;
    EXPECT_EQ(visited_deadlines, copied_deadlines) << "process " << p;
    if (!copied.empty()) {
      saw_nonempty = true;
      std::size_t visits = 0;
      engine.for_each_pending(pid, [&](const Envelope&) {
        ++visits;
        return false;  // stop after the first envelope
      });
      EXPECT_EQ(visits, 1u);
    }
  }
  EXPECT_TRUE(saw_nonempty) << "workload left no mail in flight; test is vacuous";
}

}  // namespace
}  // namespace asyncgossip
