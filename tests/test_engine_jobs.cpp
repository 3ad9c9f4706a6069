// Sharded-stepping invariance suite (EngineConfig::jobs): the engine
// promises that every observable of a run — trace hash, every Metrics
// field, the observer event stream, the probe stream — is bit-identical
// for every jobs value. A 32-spec grid mixing algorithms, sizes and seeds
// is run at jobs = 1 (serial), 2 and 8 and compared field by field.
//
// These tests carry the "EngineJobs" prefix so the nightly TSan run picks
// them up (tools/ci/tsan-nightly.sh filters on Rt|Sweep|Flight|EngineJobs):
// under TSan they double as a race check over the worker-phase snapshot
// discipline.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "consensus/cr_gossip.h"
#include "gossip/harness.h"
#include "sim/engine.h"
#include "sim/shard_pool.h"

namespace asyncgossip {
namespace {

/// Record of one observer callback, comparable across runs.
struct ObservedEvent {
  char kind;  // 's'tep, 'd'elivery, 'S'end, 'c'rash
  Time time;
  std::uint64_t a;
  std::uint64_t b;

  bool operator==(const ObservedEvent& o) const {
    return kind == o.kind && time == o.time && a == o.a && b == o.b;
  }
};

class RecordingObserver final : public EngineObserver {
 public:
  void on_step(Time now, ProcessId p) override {
    events.push_back({'s', now, p, 0});
  }
  void on_send(const Envelope& env) override {
    events.push_back({'S', env.send_time, env.id,
                      (static_cast<std::uint64_t>(env.to) << 32) | env.from});
  }
  void on_delivery(const Envelope& env, Time now) override {
    events.push_back({'d', now, env.id, env.to});
  }
  void on_crash(Time now, ProcessId p) override {
    events.push_back({'c', now, p, 0});
  }

  std::vector<ObservedEvent> events;
};

class RecordingSink final : public ProbeSink {
 public:
  void on_phase(Time now, ProcessId p, const char* phase) override {
    probes.emplace_back(now, p, std::string("phase:") + phase);
  }
  void on_state(Time now, ProcessId p, std::uint64_t known,
                std::uint64_t informed) override {
    probes.emplace_back(now, p,
                        "state:" + std::to_string(known) + "/" +
                            std::to_string(informed));
  }

  std::vector<std::tuple<Time, ProcessId, std::string>> probes;
};

struct RunResult {
  std::uint64_t trace_hash;
  std::uint64_t messages_sent, bytes_sent, messages_delivered;
  std::uint64_t local_steps, crashes;
  Time realized_d, realized_delta, last_send_time;
  std::size_t max_in_flight;
  std::vector<std::uint64_t> per_process_sent, per_process_received;
  std::vector<ObservedEvent> events;
  std::vector<std::tuple<Time, ProcessId, std::string>> probes;
};

RunResult run_spec_with_jobs(GossipSpec spec, std::size_t jobs, Time steps) {
  spec.engine_jobs = jobs;
  Engine engine = make_gossip_engine(spec);
  RecordingObserver observer;
  RecordingSink sink;
  engine.add_observer(&observer);
  engine.set_probe_sink(&sink);
  engine.run(steps);
  const Metrics& m = engine.metrics();
  RunResult r;
  r.trace_hash = engine.trace_hash();
  r.messages_sent = m.messages_sent();
  r.bytes_sent = m.bytes_sent();
  r.messages_delivered = m.messages_delivered();
  r.local_steps = m.local_steps();
  r.crashes = m.crashes();
  r.realized_d = m.realized_d();
  r.realized_delta = m.realized_delta();
  r.last_send_time = m.last_send_time();
  r.max_in_flight = m.max_in_flight();
  r.per_process_sent = m.per_process_sent();
  r.per_process_received = m.per_process_received();
  r.events = std::move(observer.events);
  r.probes = std::move(sink.probes);
  return r;
}

void expect_identical(const RunResult& serial, const RunResult& sharded,
                      const std::string& label) {
  EXPECT_EQ(serial.trace_hash, sharded.trace_hash) << label;
  EXPECT_EQ(serial.messages_sent, sharded.messages_sent) << label;
  EXPECT_EQ(serial.bytes_sent, sharded.bytes_sent) << label;
  EXPECT_EQ(serial.messages_delivered, sharded.messages_delivered) << label;
  EXPECT_EQ(serial.local_steps, sharded.local_steps) << label;
  EXPECT_EQ(serial.crashes, sharded.crashes) << label;
  EXPECT_EQ(serial.realized_d, sharded.realized_d) << label;
  EXPECT_EQ(serial.realized_delta, sharded.realized_delta) << label;
  EXPECT_EQ(serial.last_send_time, sharded.last_send_time) << label;
  EXPECT_EQ(serial.max_in_flight, sharded.max_in_flight) << label;
  EXPECT_EQ(serial.per_process_sent, sharded.per_process_sent) << label;
  EXPECT_EQ(serial.per_process_received, sharded.per_process_received)
      << label;
  EXPECT_EQ(serial.events == sharded.events, true)
      << label << ": observer event streams diverge";
  EXPECT_EQ(serial.probes == sharded.probes, true)
      << label << ": probe streams diverge";
}

/// The same 32-spec grid shape the sweep determinism test uses: 4 algorithms
/// x 2 sizes x 4 seeds under a staggered schedule with uniform delays.
std::vector<GossipSpec> grid32() {
  std::vector<GossipSpec> specs;
  const GossipAlgorithm algs[] = {
      GossipAlgorithm::kTrivial, GossipAlgorithm::kEars, GossipAlgorithm::kLazy,
      GossipAlgorithm::kRoundRobin};
  for (GossipAlgorithm alg : algs) {
    for (std::size_t n : {std::size_t{24}, std::size_t{40}}) {
      for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
        GossipSpec spec;
        spec.algorithm = alg;
        spec.n = n;
        spec.f = n / 4;
        spec.d = 3;
        spec.delta = 2;
        spec.seed = seed;
        spec.schedule = SchedulePattern::kStaggered;
        spec.delay = DelayPattern::kUniform;
        specs.push_back(spec);
      }
    }
  }
  EXPECT_EQ(specs.size(), 32u);
  return specs;
}

TEST(EngineJobs, BitIdenticalAcrossWorkerCountsOn32SpecGrid) {
  constexpr Time kSteps = 96;
  for (const GossipSpec& spec : grid32()) {
    const std::string label =
        spec_label(spec) + "/seed:" + std::to_string(spec.seed);
    const RunResult serial = run_spec_with_jobs(spec, 1, kSteps);
    expect_identical(serial, run_spec_with_jobs(spec, 2, kSteps),
                     label + " jobs 1 vs 2");
    expect_identical(serial, run_spec_with_jobs(spec, 8, kSteps),
                     label + " jobs 1 vs 8");
  }
}

TEST(EngineJobs, HostileShapesStayIdentical) {
  // Straggler scheduling + bimodal delays + crashes: maximal due-bucket
  // spans and mid-run mailbox voiding, the cases where the snapshot-step
  // argument has the most to prove.
  for (const std::uint64_t seed : {7ULL, 98765ULL}) {
    GossipSpec spec;
    spec.algorithm = GossipAlgorithm::kTears;
    spec.n = 48;
    spec.f = 12;
    spec.d = 7;
    spec.delta = 5;
    spec.seed = seed;
    spec.schedule = SchedulePattern::kStraggler;
    spec.delay = DelayPattern::kBimodal;
    const std::string label = "tears/seed:" + std::to_string(seed);
    const RunResult serial = run_spec_with_jobs(spec, 1, 160);
    expect_identical(serial, run_spec_with_jobs(spec, 4, 160),
                     label + " jobs 1 vs 4");
  }
}

TEST(EngineJobs, JobsZeroResolvesToHardwareConcurrencyAndStaysIdentical) {
  GossipSpec spec;
  spec.algorithm = GossipAlgorithm::kEars;
  spec.n = 32;
  spec.f = 8;
  spec.d = 3;
  spec.delta = 2;
  spec.schedule = SchedulePattern::kStaggered;
  spec.delay = DelayPattern::kUniform;
  const RunResult serial = run_spec_with_jobs(spec, 1, 96);
  expect_identical(serial, run_spec_with_jobs(spec, 0, 96), "jobs 1 vs 0");
}

TEST(EngineJobs, OutcomeMatchesThroughTheHarness) {
  // End to end through run_gossip_spec: completion time, message counts and
  // checks must not depend on the worker count.
  GossipSpec spec;
  spec.algorithm = GossipAlgorithm::kEars;
  spec.n = 40;
  spec.f = 10;
  spec.d = 3;
  spec.delta = 2;
  spec.schedule = SchedulePattern::kStaggered;
  spec.delay = DelayPattern::kUniform;
  spec.engine_jobs = 1;
  const GossipOutcome serial = run_gossip_spec(spec);
  spec.engine_jobs = 4;
  const GossipOutcome sharded = run_gossip_spec(spec);
  EXPECT_EQ(serial.completed, sharded.completed);
  EXPECT_EQ(serial.completion_time, sharded.completion_time);
  EXPECT_EQ(serial.messages, sharded.messages);
  EXPECT_EQ(serial.bytes, sharded.bytes);
  EXPECT_EQ(serial.gathering_ok, sharded.gathering_ok);
  EXPECT_EQ(serial.majority_ok, sharded.majority_ok);
  EXPECT_EQ(serial.alive, sharded.alive);
}

TEST(EngineJobs, ConsensusPayloadReuseStaysIdentical) {
  // Consensus processes overwrite payloads the engine has released; under
  // sharding the releases happen in the serial merge and the overwrites on
  // worker threads, ordered by the pool's barrier (a race TSan would see).
  register_consensus_algorithms();
  for (const GossipAlgorithm alg :
       {GossipAlgorithm::kCrEars, GossipAlgorithm::kCrSears,
        GossipAlgorithm::kCrTears}) {
    GossipSpec spec;
    spec.algorithm = alg;
    spec.n = 24;
    spec.f = 7;
    spec.d = 3;
    spec.delta = 2;
    spec.seed = 11;
    spec.schedule = SchedulePattern::kStaggered;
    spec.delay = DelayPattern::kUniform;
    const std::string label = to_string(alg);
    const RunResult serial = run_spec_with_jobs(spec, 1, 120);
    EXPECT_GT(serial.messages_sent, 0u) << label;
    expect_identical(serial, run_spec_with_jobs(spec, 4, 120),
                     label + " jobs 1 vs 4");
  }
}

// --- ShardPool unit tests (same TSan net: names keep the EngineJobs prefix)

TEST(EngineJobsPool, RunsEveryIndexOnceAcrossManyGenerations) {
  ShardPool pool(3);
  for (int round = 0; round < 50; ++round) {
    constexpr std::size_t kCount = 67;
    std::vector<std::atomic<int>> hits(kCount);
    pool.run(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kCount; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
  }
}

TEST(EngineJobsPool, ZeroCountReturnsImmediately) {
  ShardPool pool(2);
  pool.run(0, [](std::size_t) { FAIL() << "task ran for an empty batch"; });
}

TEST(EngineJobsPool, LowestIndexExceptionWinsAndPoolSurvives) {
  ShardPool pool(4);
  try {
    pool.run(40, [](std::size_t i) {
      if (i == 9 || i == 23 || i == 31)
        throw std::runtime_error("task " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 9");
  }
  // The pool must stay usable after a failed batch.
  std::atomic<int> total{0};
  pool.run(10, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 10);
}

}  // namespace
}  // namespace asyncgossip
