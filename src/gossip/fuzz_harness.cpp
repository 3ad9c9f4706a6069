#include "gossip/fuzz_harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "common/assert.h"
#include "common/rng.h"
#include "gossip/completion.h"
#include "gossip/spec_json.h"

namespace asyncgossip {

namespace {

std::string first_line(const std::string& s) {
  const std::size_t nl = s.find('\n');
  return nl == std::string::npos ? s : s.substr(0, nl);
}

/// One line naming the report's first concrete violation (the summary()
/// header alone only carries the count).
std::string first_finding(const ViolationReport& report) {
  if (report.violations().empty()) return first_line(report.summary());
  const Violation& v = report.violations().front();
  return std::string(to_string(v.kind)) + " @ t=" + std::to_string(v.time) +
         ": " + v.detail;
}

}  // namespace

const std::vector<GossipAlgorithm>& fuzz_algorithms() {
  static const std::vector<GossipAlgorithm> palette = {
      GossipAlgorithm::kTrivial,
      GossipAlgorithm::kEars,
      GossipAlgorithm::kSears,
      GossipAlgorithm::kTears,
      GossipAlgorithm::kSync,
      GossipAlgorithm::kEarsNoInformedList,
      GossipAlgorithm::kLazy,
      GossipAlgorithm::kRoundRobin,
  };
  return palette;
}

GossipSpec spec_from_fuzz_case(const FuzzCase& c) {
  const std::vector<GossipAlgorithm>& palette = fuzz_algorithms();
  if (c.algorithm >= palette.size())
    throw ApiError("fuzz case algorithm index " + std::to_string(c.algorithm) +
                   " out of range (palette has " +
                   std::to_string(palette.size()) + ")");
  GossipSpec spec;
  spec.algorithm = palette[c.algorithm];
  spec.n = std::max<std::size_t>(c.n, 2);
  spec.f = std::min(c.f, spec.n - 1);
  spec.d = std::max<Time>(c.d, 1);
  spec.delta = std::max<Time>(c.delta, 1);
  spec.schedule = c.schedule;
  spec.delay = c.delay;
  spec.crash_horizon = std::max<Time>(c.crash_horizon, 1);
  spec.seed = c.seed != 0 ? c.seed : 1;
  // Pin the exact step budget into the spec so the repro artifact replays
  // the same number of steps even for budget-exhaustion failures.
  spec.max_steps = 2 * default_step_budget(spec);
  return spec;
}

std::string gossip_case_label(const FuzzCase& c) {
  const std::vector<GossipAlgorithm>& palette = fuzz_algorithms();
  const std::string generic = to_string(c);
  const std::size_t slash = generic.find('/');
  if (c.algorithm >= palette.size() || slash == std::string::npos)
    return generic;
  return std::string(to_string(palette[c.algorithm])) + generic.substr(slash);
}

bool event_mutator_from_string(const std::string& name, EventMutator* out) {
  using Event = TraceRecorder::Event;
  using Kind = TraceRecorder::EventKind;
  const auto find_first = [](std::vector<Event>& events, Kind kind) {
    return std::find_if(events.begin(), events.end(),
                        [kind](const Event& e) { return e.kind == kind; });
  };
  if (name == "late-delivery") {
    // Drop the first delivery: the receiver keeps stepping while the
    // message sits deliverable, which the auditor flags as kLateDelivery.
    *out = [find_first](std::vector<Event>& events) {
      const auto it = find_first(events, Kind::kDelivery);
      if (it != events.end()) events.erase(it);
    };
  } else if (name == "double-step") {
    // Duplicate the first local step: two steps of one process in the same
    // global time step (kDoubleStep).
    *out = [find_first](std::vector<Event>& events) {
      const auto it = find_first(events, Kind::kStep);
      if (it != events.end()) events.insert(it, *it);
    };
  } else if (name == "phantom-crash") {
    // Insert a crash right after the first step of a process that acts
    // again later: every later action is post-crash activity.
    *out = [find_first](std::vector<Event>& events) {
      const auto it = find_first(events, Kind::kStep);
      if (it == events.end()) return;
      Event crash;
      crash.kind = Kind::kCrash;
      crash.time = it->time;
      crash.process = it->process;
      events.insert(it + 1, crash);
    };
  } else {
    return false;
  }
  return true;
}

FuzzOracle make_gossip_fuzz_oracle(EventMutator mutate) {
  return [mutate](const FuzzCase& c) -> FuzzVerdict {
    FuzzVerdict v;
    const GossipSpec spec = spec_from_fuzz_case(c);

    Engine engine = make_gossip_engine(spec);
    AuditConfig audit_cfg;
    audit_cfg.n = spec.n;
    audit_cfg.d = spec.d;
    audit_cfg.delta = spec.delta;
    audit_cfg.max_crashes = spec.f;
    InvariantAuditor auditor(audit_cfg);
    TraceRecorder trace(1 << 22);
    engine.add_observer(&auditor);
    engine.add_observer(&trace);

    const GossipOutcome outcome = run_gossip(engine, spec.max_steps);
    auditor.finalize(engine.now());
    auditor.cross_check(engine.metrics());
    v.trace_hash = engine.trace_hash();

    const auto fail = [&v](std::string why) {
      v.ok = false;
      v.failure = std::move(why);
    };

    if (!auditor.report().ok()) {
      fail("audit: " + first_finding(auditor.report()));
      return v;
    }

    // Test-only fault injection: re-audit a mutated *copy* of the event
    // stream. The run above was never perturbed, so v.trace_hash is still
    // the honest fingerprint a replay must reproduce. A truncated log
    // cannot be judged (a dropped tail looks like starvation), so skip.
    if (mutate && trace.dropped() == 0) {
      std::vector<TraceRecorder::Event> events = trace.events();
      mutate(events);
      const ViolationReport injected = audit_events(events, audit_cfg);
      if (!injected.ok()) {
        fail("injected-audit: " + first_finding(injected));
        return v;
      }
    }

    if (!outcome.completed) {
      fail("postcondition: completion (no quiescence within " +
           std::to_string(spec.max_steps) + " steps)");
      return v;
    }
    if (gossip_requires_gathering(spec) && !outcome.gathering_ok) {
      fail("postcondition: gathering (a live process misses a correct "
           "process's rumor)");
      return v;
    }
    if (gossip_requires_majority(spec) && !outcome.majority_ok) {
      fail("postcondition: majority (a live process knows <= n/2 rumors)");
      return v;
    }

    // Sanity envelopes — deliberately loose (the statistically tight Table 1
    // check is sim/statcheck.h); these only catch runaway executions.
    const Time time_cap = default_step_budget(spec);
    if (outcome.completion_time > time_cap) {
      fail("envelope: time (completion_time " +
           std::to_string(outcome.completion_time) + " > " +
           std::to_string(time_cap) + ")");
      return v;
    }
    const double n = static_cast<double>(spec.n);
    const double lg = std::log2(n) + 1.0;
    const double message_cap =
        64.0 * n * n * lg * lg * static_cast<double>(spec.d + spec.delta) +
        4096.0;
    if (static_cast<double>(outcome.messages) > message_cap) {
      fail("envelope: messages (" + std::to_string(outcome.messages) + " > " +
           std::to_string(static_cast<std::uint64_t>(message_cap)) + ")");
      return v;
    }
    return v;
  };
}

GossipFuzzResult run_gossip_fuzz(const GossipFuzzOptions& options) {
  GossipFuzzResult result;
  FuzzDomain domain = options.domain;
  domain.algorithms = fuzz_algorithms().size();
  const FuzzOracle oracle = make_gossip_fuzz_oracle(options.mutate);

  result.report = run_fuzz(domain, options.fuzz, oracle);
  if (options.log != nullptr)
    *options.log << "fuzz: " << result.report.cases_run << " case(s) run, "
                 << result.report.failures.size() << " failure(s)\n";
  if (result.report.ok()) return result;

  result.found_failure = true;
  const FuzzFailure& first = result.report.failures.front();
  if (options.log != nullptr)
    *options.log << "failing case (iteration " << first.iteration
                 << "): " << gossip_case_label(first.c) << "\n  "
                 << first.verdict.failure << '\n';

  const ShrinkResult shrunk =
      shrink_case(first.c, first.verdict, oracle, options.shrink);
  result.minimal = shrunk.minimal;
  result.minimal_verdict = shrunk.verdict;
  result.shrink_attempts = shrunk.attempts;
  result.shrink_rounds = shrunk.rounds;
  if (options.log != nullptr)
    *options.log << "shrunk (" << shrunk.attempts << " attempt(s), "
                 << shrunk.rounds
                 << " round(s)): " << gossip_case_label(shrunk.minimal)
                 << "\n  " << shrunk.verdict.failure << '\n';

  if (options.artifact_prefix.empty()) return result;

  ReproArtifact artifact;
  artifact.spec = spec_from_fuzz_case(shrunk.minimal);
  artifact.trace_hash = shrunk.verdict.trace_hash;
  artifact.failure = shrunk.verdict.failure;

  const std::string spec_path = options.artifact_prefix + ".spec.json";
  std::ofstream spec_os(spec_path);
  if (spec_os) {
    write_repro_json(spec_os, artifact);
    result.spec_artifact = spec_path;
    if (options.log != nullptr)
      *options.log << "wrote " << spec_path << '\n';
  }

  // Record the minimal run's full event log as a trace-format-v1 artifact
  // (tools/tracecheck lints it; humans read it).
  Engine engine = make_gossip_engine(artifact.spec);
  TraceRecorder trace(1 << 22);
  engine.add_observer(&trace);
  run_gossip(engine, artifact.spec.max_steps);
  const std::string trace_path = options.artifact_prefix + ".trace";
  std::ofstream trace_os(trace_path);
  if (trace_os) {
    trace.write_trace(trace_os, artifact.spec.n, artifact.spec.d,
                      artifact.spec.delta, artifact.spec.f);
    result.trace_artifact = trace_path;
    if (options.log != nullptr)
      *options.log << "wrote " << trace_path << '\n';
  }
  return result;
}

bool replay_repro(const ReproArtifact& artifact, std::string* detail) {
  const AuditedGossipOutcome run = run_audited_gossip_spec(artifact.spec);
  const bool match = run.trace_hash == artifact.trace_hash;
  if (detail != nullptr) {
    std::string s = "replayed " + spec_label(artifact.spec) +
                    ": trace_hash " + std::to_string(run.trace_hash);
    s += match ? " == pinned"
               : " != pinned " + std::to_string(artifact.trace_hash);
    if (!run.audit.ok())
      s += " [audit: " + first_line(run.audit.summary()) + "]";
    *detail = s;
  }
  return match;
}

namespace {

struct CellBatch {
  GossipAlgorithm algorithm;
  std::size_t n = 0;
  std::size_t f = 0;
  Time d = 1;
  Time delta = 1;
  std::size_t first_spec = 0;  // index of the batch's first trial spec
};

double cell_envelope(GossipAlgorithm algorithm, const std::string& metric,
                     const CellBatch& b) {
  const double n = static_cast<double>(b.n);
  const double lg = std::log2(n) + 1.0;
  const double dd = static_cast<double>(b.d + b.delta);
  if (algorithm == GossipAlgorithm::kEars) {
    if (metric == "time")
      return n / static_cast<double>(b.n - b.f) * lg * lg * dd;
    return n * lg * lg * lg * dd;  // messages
  }
  // TEARS (Table 1): O(d + delta) time, O(n^{7/4} log^2 n) messages.
  if (metric == "time") return dd;
  return std::pow(n, 1.75) * lg * lg;
}

}  // namespace

StatReport run_gossip_statcheck(const GossipStatCheckOptions& options) {
  if (options.ns.empty()) throw ApiError("statcheck needs a non-empty n grid");
  if (options.dds.empty())
    throw ApiError("statcheck needs a non-empty (d, delta) grid");
  if (options.trials == 0) throw ApiError("statcheck needs trials >= 1");

  const std::size_t n_min =
      *std::min_element(options.ns.begin(), options.ns.end());
  const GossipAlgorithm algorithms[] = {GossipAlgorithm::kEars,
                                        GossipAlgorithm::kTears};

  std::vector<GossipSpec> specs;
  std::vector<CellBatch> batches;
  std::size_t batch_index = 0;
  for (const GossipAlgorithm algorithm : algorithms) {
    for (const std::pair<Time, Time>& dd : options.dds) {
      for (const std::size_t n : options.ns) {
        if (n < 2) throw ApiError("statcheck needs n >= 2");
        CellBatch b;
        b.algorithm = algorithm;
        b.n = n;
        b.f = std::min(
            static_cast<std::size_t>(static_cast<double>(n) *
                                     std::clamp(options.f_fraction, 0.0, 1.0)),
            n - 1);
        b.d = dd.first;
        b.delta = dd.second;
        b.first_spec = specs.size();
        for (std::size_t t = 0; t < options.trials; ++t) {
          GossipSpec s;
          s.algorithm = algorithm;
          s.n = b.n;
          s.f = b.f;
          s.d = b.d;
          s.delta = b.delta;
          s.seed = mix64(options.seed ^
                         (batch_index + 1) * 0x9e3779b97f4a7c15ULL ^
                         (t + 1) * 0x100000001b3ULL);
          if (s.seed == 0) s.seed = 1;
          specs.push_back(s);
        }
        batches.push_back(b);
        ++batch_index;
      }
    }
  }

  if (options.log != nullptr)
    *options.log << "statcheck: " << batches.size() << " cell(s) x "
                 << options.trials << " trial(s) = " << specs.size()
                 << " run(s)\n";

  const std::vector<GossipSweepResult> results =
      run_gossip_sweep(specs, options.jobs);

  std::vector<StatCell> cells;
  cells.reserve(batches.size() * 2);
  for (const CellBatch& b : batches) {
    const std::string label = spec_label(specs[b.first_spec]);
    for (const char* metric : {"time", "messages"}) {
      StatCell cell;
      cell.group = std::string(to_string(b.algorithm)) + ':' + metric;
      cell.label = label;
      cell.metric = metric;
      cell.envelope = cell_envelope(b.algorithm, metric, b);
      cell.calibration = b.n == n_min;
      cell.samples.reserve(options.trials);
      for (std::size_t t = 0; t < options.trials; ++t) {
        const GossipOutcome& outcome = results[b.first_spec + t].outcome;
        cell.samples.push_back(
            metric == std::string("time")
                ? static_cast<double>(outcome.completion_time)
                : static_cast<double>(outcome.messages));
      }
      cells.push_back(std::move(cell));
    }
  }

  StatReport report = check_bounds(cells, options.stat);
  if (options.log != nullptr) {
    if (report.ok())
      *options.log << "statcheck: all " << report.cells.size()
                   << " cell(s) within their envelopes\n";
    else
      *options.log << report.summary();
  }
  return report;
}

std::vector<std::pair<std::string, std::string>> statcheck_run_info(
    const GossipStatCheckOptions& options) {
  // Append piecewise (not `"" + std::to_string(...)`): the rvalue-concat
  // form trips GCC 12's -Wrestrict false positive (PR 105329) depending on
  // inlining, and this is clearer anyway.
  std::string ns;
  for (const std::size_t n : options.ns) {
    if (!ns.empty()) ns += ',';
    ns += std::to_string(n);
  }
  std::string dds;
  for (const std::pair<Time, Time>& dd : options.dds) {
    if (!dds.empty()) dds += ',';
    dds += std::to_string(dd.first);
    dds += ':';
    dds += std::to_string(dd.second);
  }
  char frac[32];
  std::snprintf(frac, sizeof frac, "%.12g", options.f_fraction);
  return {
      {"algorithms", "ears,tears"},
      {"ns", ns},
      {"dds", dds},
      {"f_fraction", frac},
      {"trials", std::to_string(options.trials)},
      {"seed", std::to_string(options.seed)},
  };
}

}  // namespace asyncgossip
