// Engine microbenchmarks: wall-clock throughput of the simulation engine
// itself, isolated from algorithm-side work.
//
// The gossip algorithms (bench_table1_gossip) spend most of their cycles in
// payload merging, so their wall time says little about the engine hot path
// (scheduling, mailbox delivery, dispatch, metrics, trace hashing). The
// processes here are deliberately trivial — they only emit messages in the
// same *shapes* the real algorithms do — so elapsed time is engine overhead
// and nothing else:
//
//   ears    : every process sends `fanout` messages to pseudo-random targets
//             on every local step (the epidemic steady state), under
//             staggered scheduling and uniform delays in [1, d].
//   tears   : every process sends along its binary-tree edges (parent and
//             children) on every step — TEARS' deterministic tree traffic.
//   trivial : every process floods all n processes once on its first step
//             (the trivial algorithm's n^2 burst), then stays silent.
//
//   counters : steps_per_sec (global simulated steps / wall second),
//              envelopes_per_sec (deliveries / wall second) — both timed
//              by the case itself over its whole iteration loop (engine
//              construction included), since the JSON report sees counter
//              values before Google Benchmark's rate division,
//              steps, envelopes (totals per iteration, for sanity),
//              arena_slab_allocs / arena_slab_reuses — the allocation
//              tripwire: once warm, the slab arena must serve the run from
//              recycled slabs, so allocs must stay near the standing
//              in-flight volume while reuses grow with run length.
//
// The *-large cases run the same shapes at n = 100k (n = 1M for the docs
// table) with d scaled down so a case stays minutes-not-hours; they gate
// ROADMAP item 3 ("engine raw speed at n >= 100k") in CI perf-smoke.
// Engines honor AG_ENGINE_JOBS (default_engine_jobs), so sharded stepping
// can be benched without a rebuild; results are bit-identical either way.
//
// Run `AG_ENGINE_JOBS=1 AG_BENCH_JSON=BENCH_engine.json ./bench_engine` to
// (re)generate the repo's engine perf trajectory; BENCH_engine_seed.json is
// the committed baseline CI gates against. See docs/PERFORMANCE.md.
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "gossip/harness.h"
#include "sim/engine.h"
#include "sim/oblivious.h"

namespace asyncgossip::bench {

AG_BENCH_SUITE("engine");

namespace {

// Sends `fanout` empty-payload messages to pseudo-random targets on every
// local step. No state is merged, so stepping it costs the engine, not the
// algorithm.
class RandomFanoutProcess final : public Process {
 public:
  RandomFanoutProcess(ProcessId id, std::size_t n, std::size_t fanout,
                      std::uint64_t seed)
      : id_(id), n_(n), fanout_(fanout), rng_(seed ^ (0x9E3779B97F4A7C15ULL * (id + 1))) {}

  void step(StepContext& ctx) override {
    for (std::size_t i = 0; i < fanout_; ++i)
      ctx.send(static_cast<ProcessId>(rng_.uniform(n_)), nullptr);
  }

  std::unique_ptr<Process> clone() const override {
    return std::make_unique<RandomFanoutProcess>(*this);
  }

  void reseed(std::uint64_t seed) override { rng_ = Xoshiro256SS(seed); }

 private:
  ProcessId id_;
  std::size_t n_;
  std::size_t fanout_;
  Xoshiro256SS rng_;
};

// Floods all n processes once on the first local step, then stays silent.
class FloodOnceProcess final : public Process {
 public:
  FloodOnceProcess(ProcessId id, std::size_t n) : id_(id), n_(n) {}

  void step(StepContext& ctx) override {
    if (!sent_) {
      for (std::size_t q = 0; q < n_; ++q)
        ctx.send(static_cast<ProcessId>(q), nullptr);
      sent_ = true;
    }
  }

  std::unique_ptr<Process> clone() const override {
    return std::make_unique<FloodOnceProcess>(*this);
  }

  void reseed(std::uint64_t /*seed*/) override {}

 private:
  ProcessId id_;
  std::size_t n_;
  bool sent_ = false;
};

// Sends along the process's binary-tree edges (parent + both children) every
// step: the deterministic low-fanout shape of TEARS' tree phase, whose
// mailboxes are shallow but perfectly correlated (a node's children all hit
// the same destination buckets).
class TreeFanoutProcess final : public Process {
 public:
  TreeFanoutProcess(ProcessId id, std::size_t n) : id_(id), n_(n) {}

  void step(StepContext& ctx) override {
    if (id_ != 0) ctx.send(static_cast<ProcessId>((id_ - 1) / 2), nullptr);
    const std::size_t left = 2 * static_cast<std::size_t>(id_) + 1;
    if (left < n_) ctx.send(static_cast<ProcessId>(left), nullptr);
    if (left + 1 < n_) ctx.send(static_cast<ProcessId>(left + 1), nullptr);
  }

  std::unique_ptr<Process> clone() const override {
    return std::make_unique<TreeFanoutProcess>(*this);
  }

  void reseed(std::uint64_t /*seed*/) override {}

 private:
  ProcessId id_;
  std::size_t n_;
};

enum class Workload { kEarsLike, kTearsLike, kTrivialLike };

Engine make_engine(Workload w, std::size_t n, std::size_t fanout, Time d,
                   Time delta, std::uint64_t seed) {
  std::vector<std::unique_ptr<Process>> procs;
  procs.reserve(n);
  for (std::size_t p = 0; p < n; ++p) {
    if (w == Workload::kEarsLike)
      procs.push_back(std::make_unique<RandomFanoutProcess>(
          static_cast<ProcessId>(p), n, fanout, seed));
    else if (w == Workload::kTearsLike)
      procs.push_back(
          std::make_unique<TreeFanoutProcess>(static_cast<ProcessId>(p), n));
    else
      procs.push_back(
          std::make_unique<FloodOnceProcess>(static_cast<ProcessId>(p), n));
  }
  ObliviousConfig adv;
  adv.n = n;
  adv.d = d;
  adv.delta = delta;
  adv.schedule =
      delta == 1 ? SchedulePattern::kLockStep : SchedulePattern::kStaggered;
  adv.delay = d == 1 ? DelayPattern::kUnitDelay : DelayPattern::kUniform;
  adv.seed = seed ^ 0xAD7E25A27ULL;

  EngineConfig ecfg;
  ecfg.d = d;
  ecfg.delta = delta;
  ecfg.jobs = default_engine_jobs();
  return Engine(std::move(procs), std::make_unique<ObliviousAdversary>(adv),
                ecfg);
}

void run_engine_case(benchmark::State& state, Workload w, const char* name,
                     std::size_t n, std::size_t fanout, Time d, Time delta,
                     Time steps) {
  double total_steps = 0;
  double total_envelopes = 0;
  double total_slab_allocs = 0;
  double total_slab_reuses = 0;
  std::uint64_t seed = 20011;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    Engine engine = make_engine(w, n, fanout, d, delta, seed++);
    engine.run(steps);
    total_steps += static_cast<double>(engine.now());
    total_envelopes += static_cast<double>(engine.metrics().messages_delivered());
    const ArenaStats arena = engine.arena_stats();
    total_slab_allocs += static_cast<double>(arena.slab_allocations);
    total_slab_reuses += static_cast<double>(arena.slab_reuses);
    benchmark::DoNotOptimize(engine.trace_hash());
  }
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  const double iters = static_cast<double>(state.iterations());
  state.counters["steps_per_sec"] = total_steps / wall_s;
  state.counters["envelopes_per_sec"] = total_envelopes / wall_s;
  state.counters["steps"] = total_steps / iters;
  state.counters["envelopes"] = total_envelopes / iters;
  // Allocation tripwire (docs/PERFORMANCE.md): slab growth is bounded by the
  // standing in-flight volume, not the run length — reuses dwarf allocs on
  // any warm run.
  state.counters["arena_slab_allocs"] = total_slab_allocs / iters;
  state.counters["arena_slab_reuses"] = total_slab_reuses / iters;
  record_case(state, std::string(name) + "/n:" + std::to_string(n) +
                         "/d:" + std::to_string(d) +
                         "/delta:" + std::to_string(delta));
}

// The epidemic steady state in the slow-network regime (d >> delta: fast
// processes, laggy links — the asymmetry the paper's model allows): log-ish
// fanout, uniform delays in [1, d], staggered process speeds. Each process
// carries a standing mailbox of ~ fanout * d/4 in-flight envelopes of which
// only a few are due per step, so this measures mailbox management cost.
void BM_EngineEars(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  run_engine_case(state, Workload::kEarsLike, "ears", n, /*fanout=*/8,
                  /*d=*/256, /*delta=*/4, /*steps=*/768);
}

// The n^2 burst: all floods launched within the first delta steps, drained
// within d. Stresses dispatch and bulk delivery rather than steady scan.
void BM_EngineTrivial(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  run_engine_case(state, Workload::kTrivialLike, "trivial", n, /*fanout=*/0,
                  /*d=*/8, /*delta=*/4, /*steps=*/32);
}

// Lock-step unit-delay variant: the d = delta = 1 regime where the old
// mailbox scan had nothing stale to skip — guards against regressions on
// the easy path.
void BM_EngineEarsUnit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  run_engine_case(state, Workload::kEarsLike, "ears-unit", n, /*fanout=*/8,
                  /*d=*/1, /*delta=*/1, /*steps=*/256);
}

// Large-n steady state (ROADMAP item 3): the epidemic shape at n = 100k
// with d scaled to 64 so the standing mailbox volume (~ n * fanout * d / 2
// in-flight envelopes, ~13M at n = 100k) stresses the arena, not the step
// budget. One iteration: at this size cross-iteration variance is far below
// the bench gate's tolerance, and two would double a minutes-scale suite.
void BM_EngineEarsLarge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  run_engine_case(state, Workload::kEarsLike, "ears-large", n, /*fanout=*/4,
                  /*d=*/64, /*delta=*/4, /*steps=*/48);
}

// TEARS' tree traffic at n = 100k: deterministic fanout-3 along binary-tree
// edges, same scaled d.
void BM_EngineTearsLarge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  run_engine_case(state, Workload::kTearsLike, "tears-large", n, /*fanout=*/0,
                  /*d=*/64, /*delta=*/4, /*steps=*/48);
}

BENCHMARK(BM_EngineEars)->Arg(256)->Arg(1024)->Arg(4096)->Iterations(2);
BENCHMARK(BM_EngineTrivial)->Arg(256)->Arg(1024)->Arg(2048)->Iterations(2);
BENCHMARK(BM_EngineEarsUnit)->Arg(256)->Arg(1024)->Iterations(2);
BENCHMARK(BM_EngineEarsLarge)->Arg(100000)->Iterations(1);
BENCHMARK(BM_EngineTearsLarge)->Arg(100000)->Iterations(1);

}  // namespace
}  // namespace asyncgossip::bench
