// Shared helpers for the benchmark harness.
//
// These benchmarks measure *simulation metrics* — global time steps and
// point-to-point message counts, the two complexity measures of the paper —
// not wall-clock time. Each benchmark case therefore runs a fixed small
// number of iterations with distinct seeds and reports the mean metrics as
// user counters; wall time in the report is incidental.
// Machine-readable reports: when the AG_BENCH_JSON environment variable
// names a file, every case recorded via record_case (GossipAccumulator::
// flush does this automatically) is aggregated into an
// "asyncgossip-bench-v1" JSON document written at process exit — e.g.
//   AG_BENCH_JSON=BENCH_table1.json ./bench_table1_gossip
// Each binary declares its suite name once with AG_BENCH_SUITE("table1").
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/parse.h"
#include "gossip/harness.h"
#include "sim/telemetry_export.h"

namespace asyncgossip::bench {

/// Accumulates (case name, user counters) rows and writes them as JSON at
/// static-destruction time — benchmark_main owns main(), so process exit is
/// the only hook every binary shares. The document itself comes from
/// write_bench_json (sim/telemetry_export.h), the same writer `gossiplab
/// sweep --json` uses.
class BenchReport {
 public:
  static BenchReport& instance() {
    static BenchReport report;
    return report;
  }

  void set_suite(const char* name) { suite_ = name; }

  /// Google Benchmark runs a case function once per calibration run, so
  /// one name arrives several times; the last run (the measured one)
  /// replaces the earlier ones in place.
  void add_case(const std::string& name,
                std::vector<std::pair<std::string, double>> counters) {
    for (BenchCaseRow& row : cases_) {
      if (row.name == name) {
        row.counters = std::move(counters);
        return;
      }
    }
    cases_.push_back({name, std::move(counters)});
  }

  ~BenchReport() {
    const char* path = std::getenv("AG_BENCH_JSON");
    if (path == nullptr || path[0] == '\0' || cases_.empty()) return;
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "AG_BENCH_JSON: cannot open %s for writing\n", path);
      return;
    }
    write_bench_json(out, suite_, cases_);
  }

 private:
  std::string suite_ = "bench";
  std::vector<BenchCaseRow> cases_;
};

/// Snapshots a finished case's user counters into the report under `label`
/// (this benchmark version exposes no State::name(), so the caller supplies
/// one — GossipAccumulator::flush derives it from the spec). Call after the
/// counters are final. The snapshot sees raw counter values, before Google
/// Benchmark divides kIsRate counters by time, so a rate must be computed
/// by the case from its own timed loop; a kIsRate counter aborts here.
inline void record_case(const benchmark::State& state,
                        const std::string& label) {
  std::vector<std::pair<std::string, double>> counters;
  counters.reserve(state.counters.size());
  for (const auto& [name, counter] : state.counters) {
    AG_ASSERT_MSG((counter.flags & benchmark::Counter::kIsRate) == 0,
                  "record_case would report a kIsRate counter's raw total");
    counters.emplace_back(name, static_cast<double>(counter.value));
  }
  BenchReport::instance().add_case(label, std::move(counters));
}

// Case labels come from asyncgossip::spec_label (gossip/harness.h) so the
// bench report and `gossiplab sweep` name the same experiment identically.

/// Declares the binary's suite name for the AG_BENCH_JSON report. Place one
/// at namespace scope in each bench_*.cpp.
#define AG_BENCH_SUITE(suite_name)                                       \
  static const int ag_bench_suite_registered_ = [] {                     \
    ::asyncgossip::bench::BenchReport::instance().set_suite(suite_name); \
    return 0;                                                            \
  }()

/// Aggregates gossip outcomes across iterations into counters.
class GossipAccumulator {
 public:
  void add(const GossipOutcome& out) {
    ++runs_;
    messages_ += static_cast<double>(out.messages);
    steps_ += static_cast<double>(out.completion_time);
    gatherings_ += out.gathering_ok ? 1 : 0;
    majorities_ += out.majority_ok ? 1 : 0;
  }

  void flush(benchmark::State& state, double n, double d_plus_delta,
             const std::string& label = "") const {
    if (runs_ == 0) return;
    const double r = static_cast<double>(runs_);
    state.counters["msgs"] = messages_ / r;
    state.counters["steps"] = steps_ / r;
    state.counters["steps_per_dd"] = steps_ / r / d_plus_delta;
    state.counters["msgs_per_n"] = messages_ / r / n;
    state.counters["gather_ok"] = static_cast<double>(gatherings_) / r;
    state.counters["majority_ok"] = static_cast<double>(majorities_) / r;
    if (!label.empty()) record_case(state, label);
  }

 private:
  int runs_ = 0;
  double messages_ = 0;
  double steps_ = 0;
  int gatherings_ = 0;
  int majorities_ = 0;
};

/// Worker count for run_gossip_case: AG_BENCH_JOBS in the environment, or 1
/// (sequential) when unset. Parallelism never changes the reported metrics
/// — iteration seeds are assigned identically on both paths.
inline std::size_t bench_jobs() {
  const char* env = std::getenv("AG_BENCH_JOBS");
  std::size_t jobs = 0;
  if (env == nullptr || !parse_uint(std::string_view(env), &jobs)) return 1;
  return jobs == 0 ? 1 : jobs;
}

/// The standard gossip bench loop: one run per iteration with consecutive
/// seeds starting at `seed_base`, metrics accumulated and flushed under
/// spec_label(spec). With AG_BENCH_JOBS > 1 all iterations run as a single
/// run_gossip_sweep batch on the first pass (the outcomes — and therefore
/// every reported counter — are bit-identical to the sequential path; only
/// wall time changes, which these benches treat as incidental).
inline void run_gossip_case(benchmark::State& state, GossipSpec spec,
                            std::uint64_t seed_base = 10007) {
  const std::size_t jobs = bench_jobs();
  GossipAccumulator acc;
  std::vector<GossipSweepResult> batch;
  std::size_t batch_index = 0;
  std::uint64_t seed = seed_base;
  for (auto _ : state) {
    GossipOutcome out;
    if (jobs > 1) {
      if (batch.empty()) {
        std::vector<GossipSpec> specs(state.max_iterations, spec);
        for (GossipSpec& s : specs) s.seed = seed++;
        batch = run_gossip_sweep(specs, jobs);
      }
      out = batch[batch_index++].outcome;
    } else {
      spec.seed = seed++;
      out = run_gossip_spec(spec);
    }
    if (!out.completed) {
      state.SkipWithError("run did not quiesce within the step budget");
      return;
    }
    acc.add(out);
    benchmark::DoNotOptimize(out.messages);
  }
  acc.flush(state, static_cast<double>(spec.n),
            static_cast<double>(spec.d + spec.delta), spec_label(spec));
}

inline GossipSpec base_spec(GossipAlgorithm alg, std::size_t n, std::size_t f,
                            Time d, Time delta) {
  GossipSpec spec;
  spec.algorithm = alg;
  spec.n = n;
  spec.f = f;
  spec.d = d;
  spec.delta = delta;
  spec.schedule =
      delta == 1 ? SchedulePattern::kLockStep : SchedulePattern::kStaggered;
  spec.delay = d == 1 ? DelayPattern::kUnitDelay : DelayPattern::kUniform;
  return spec;
}

}  // namespace asyncgossip::bench
