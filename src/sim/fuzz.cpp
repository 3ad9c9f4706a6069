#include "sim/fuzz.h"

#include <algorithm>
#include <chrono>

#include "common/assert.h"

namespace asyncgossip {

std::string to_string(const FuzzCase& c) {
  return "alg#" + std::to_string(c.algorithm) + "/n:" + std::to_string(c.n) +
         "/f:" + std::to_string(c.f) + "/d:" + std::to_string(c.d) +
         "/delta:" + std::to_string(c.delta) +
         "/sched:" + to_string(c.schedule) + "/delay:" + to_string(c.delay) +
         "/horizon:" + std::to_string(c.crash_horizon) +
         "/seed:" + std::to_string(c.seed);
}

bool operator==(const FuzzCase& a, const FuzzCase& b) {
  return a.algorithm == b.algorithm && a.n == b.n && a.f == b.f && a.d == b.d &&
         a.delta == b.delta && a.schedule == b.schedule && a.delay == b.delay &&
         a.crash_horizon == b.crash_horizon && a.seed == b.seed;
}

FuzzCase sample_case(const FuzzDomain& domain, Xoshiro256SS& rng) {
  AG_ASSERT_MSG(!domain.ns.empty(), "fuzz domain needs at least one n");
  AG_ASSERT_MSG(!domain.schedules.empty() && !domain.delays.empty(),
                "fuzz domain needs at least one schedule and delay pattern");
  AG_ASSERT_MSG(domain.algorithms >= 1, "fuzz domain needs >= 1 algorithms");
  FuzzCase c;
  c.algorithm = rng.uniform(domain.algorithms);
  c.n = std::max<std::size_t>(2, domain.ns[rng.uniform(domain.ns.size())]);
  const auto f_cap = static_cast<std::size_t>(
      static_cast<double>(c.n) * std::clamp(domain.max_f_fraction, 0.0, 1.0));
  c.f = std::min(rng.uniform(f_cap + 1), c.n - 1);
  c.d = 1 + rng.uniform(std::max<Time>(domain.max_d, 1));
  c.delta = 1 + rng.uniform(std::max<Time>(domain.max_delta, 1));
  c.schedule = domain.schedules[rng.uniform(domain.schedules.size())];
  c.delay = domain.delays[rng.uniform(domain.delays.size())];
  c.crash_horizon = 1 + rng.uniform(std::max<Time>(domain.max_crash_horizon, 1));
  c.seed = rng.next();
  return c;
}

FuzzReport run_fuzz(const FuzzDomain& domain, const FuzzOptions& options,
                    const FuzzOracle& oracle) {
  AG_ASSERT_MSG(static_cast<bool>(oracle), "run_fuzz needs an oracle");
  // aglint:allow(AG-DET-002) the wall-clock budget only bounds *how many*
  // cases run; each case is fully determined by its seed, so cutting the
  // loop short never changes any case's outcome or trace hash (and sim/
  // cannot depend on rt/clock.h — layering).
  const auto start = std::chrono::steady_clock::now();
  const auto out_of_time = [&] {
    if (options.time_budget_ms == 0) return false;
    // aglint:allow(AG-DET-002) see the budget note on `start` above.
    const auto now = std::chrono::steady_clock::now();
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(now - start);
    return static_cast<std::uint64_t>(elapsed.count()) >=
           options.time_budget_ms;
  };

  Xoshiro256SS rng(options.seed ^ 0xF0220000F022ULL);
  FuzzReport report;
  const std::uint64_t max_failures = std::max<std::uint64_t>(
      options.max_failures, 1);
  for (std::uint64_t i = 0; i < options.iterations; ++i) {
    // Sample unconditionally so the i-th case never depends on the time
    // budget: aborted sweeps stay prefixes of longer ones.
    const FuzzCase c = sample_case(domain, rng);
    if (out_of_time()) break;
    FuzzVerdict verdict = oracle(c);
    ++report.cases_run;
    if (!verdict.ok) {
      report.failures.push_back(FuzzFailure{c, std::move(verdict), i});
      if (report.failures.size() >= max_failures) break;
    }
  }
  return report;
}

ViolationReport audit_events(const std::vector<TraceRecorder::Event>& events,
                             const AuditConfig& config, bool finalize) {
  InvariantAuditor auditor(config);
  Time last_time = 0;
  bool any = false;
  for (const TraceRecorder::Event& e : events) {
    replay_event(e, &auditor);
    any = true;
    last_time = std::max(last_time, e.time);
  }
  if (finalize && any) auditor.finalize(last_time + 1);
  return auditor.report();
}

}  // namespace asyncgossip
