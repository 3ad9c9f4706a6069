#include "gossip/harness.h"

#include <cmath>
#include <cstdlib>
#include <string>
#include <string_view>

#include "common/assert.h"
#include "common/parse.h"
#include "gossip/epidemic.h"
#include "sim/sweep.h"
#include "sim/telemetry.h"
#include "gossip/lazy.h"
#include "gossip/roundrobin.h"
#include "gossip/sync_gossip.h"
#include "gossip/tears.h"
#include "gossip/trivial.h"

namespace asyncgossip {

std::size_t default_engine_jobs() {
  const char* env = std::getenv("AG_ENGINE_JOBS");
  std::size_t jobs = 1;
  if (env != nullptr && !parse_uint(std::string_view(env), &jobs))
    return 1;  // unparsable: stay serial
  return jobs;
}

const char* to_string(GossipAlgorithm algorithm) {
  switch (algorithm) {
    case GossipAlgorithm::kTrivial:
      return "trivial";
    case GossipAlgorithm::kEars:
      return "ears";
    case GossipAlgorithm::kSears:
      return "sears";
    case GossipAlgorithm::kTears:
      return "tears";
    case GossipAlgorithm::kSync:
      return "sync";
    case GossipAlgorithm::kEarsNoInformedList:
      return "ears-no-informed-list";
    case GossipAlgorithm::kLazy:
      return "lazy";
    case GossipAlgorithm::kRoundRobin:
      return "round-robin";
    case GossipAlgorithm::kCrEars:
      return "cr-ears";
    case GossipAlgorithm::kCrSears:
      return "cr-sears";
    case GossipAlgorithm::kCrTears:
      return "cr-tears";
  }
  return "?";
}

bool algorithm_from_string(const std::string& name, GossipAlgorithm* out) {
  if (name == "trivial") *out = GossipAlgorithm::kTrivial;
  else if (name == "ears") *out = GossipAlgorithm::kEars;
  else if (name == "sears") *out = GossipAlgorithm::kSears;
  else if (name == "tears") *out = GossipAlgorithm::kTears;
  else if (name == "sync") *out = GossipAlgorithm::kSync;
  else if (name == "ears-no-informed-list")
    *out = GossipAlgorithm::kEarsNoInformedList;
  else if (name == "lazy") *out = GossipAlgorithm::kLazy;
  else if (name == "round-robin") *out = GossipAlgorithm::kRoundRobin;
  else if (name == "cr-ears") *out = GossipAlgorithm::kCrEars;
  else if (name == "cr-sears") *out = GossipAlgorithm::kCrSears;
  else if (name == "cr-tears") *out = GossipAlgorithm::kCrTears;
  else return false;
  return true;
}

bool is_consensus_algorithm(GossipAlgorithm algorithm) {
  return algorithm == GossipAlgorithm::kCrEars ||
         algorithm == GossipAlgorithm::kCrSears ||
         algorithm == GossipAlgorithm::kCrTears;
}

namespace {
ConsensusProcessFactory g_consensus_factory = nullptr;
}  // namespace

void set_consensus_process_factory(ConsensusProcessFactory factory) {
  g_consensus_factory = factory;
}

std::vector<std::unique_ptr<Process>> make_gossip_processes(
    const GossipSpec& spec) {
  AG_ASSERT_MSG(spec.n >= 2, "gossip spec needs n >= 2");
  AG_ASSERT_MSG(spec.f < spec.n, "gossip spec needs f < n");
  if (is_consensus_algorithm(spec.algorithm)) {
    AG_ASSERT_MSG(g_consensus_factory != nullptr,
                  "cr-* algorithms need register_consensus_algorithms() "
                  "(consensus/cr_gossip.h) called first");
    return g_consensus_factory(spec);
  }
  std::vector<std::unique_ptr<Process>> procs;
  procs.reserve(spec.n);
  switch (spec.algorithm) {
    case GossipAlgorithm::kTrivial:
      for (std::size_t p = 0; p < spec.n; ++p)
        procs.push_back(std::make_unique<TrivialGossipProcess>(
            static_cast<ProcessId>(p), spec.n));
      break;
    case GossipAlgorithm::kEars: {
      const EpidemicConfig cfg = make_ears_config(
          spec.n, spec.f, spec.seed, spec.ears_shutdown_constant);
      for (std::size_t p = 0; p < spec.n; ++p)
        procs.push_back(std::make_unique<EpidemicGossipProcess>(
            static_cast<ProcessId>(p), cfg));
      break;
    }
    case GossipAlgorithm::kSears: {
      const EpidemicConfig cfg =
          make_sears_config(spec.n, spec.f, spec.sears_epsilon, spec.seed,
                            spec.sears_fanout_constant);
      for (std::size_t p = 0; p < spec.n; ++p)
        procs.push_back(std::make_unique<EpidemicGossipProcess>(
            static_cast<ProcessId>(p), cfg));
      break;
    }
    case GossipAlgorithm::kTears: {
      TearsConfig cfg;
      cfg.n = spec.n;
      cfg.a_constant = spec.tears_a_constant;
      cfg.kappa_constant = spec.tears_kappa_constant;
      cfg.seed = spec.seed;
      cfg.finalize();
      for (std::size_t p = 0; p < spec.n; ++p)
        procs.push_back(
            std::make_unique<TearsProcess>(static_cast<ProcessId>(p), cfg));
      break;
    }
    case GossipAlgorithm::kSync: {
      const std::uint64_t rounds =
          make_sync_rounds(spec.n, spec.sync_rounds_constant);
      for (std::size_t p = 0; p < spec.n; ++p)
        procs.push_back(std::make_unique<SyncGossipProcess>(
            static_cast<ProcessId>(p), spec.n, rounds, spec.seed));
      break;
    }
    case GossipAlgorithm::kEarsNoInformedList: {
      EpidemicConfig cfg = make_ears_config(spec.n, spec.f, spec.seed,
                                            spec.ears_shutdown_constant);
      cfg.use_informed_list = false;
      cfg.fallback_step_budget =
          spec.fallback_step_budget != 0
              ? spec.fallback_step_budget
              // Conservative default: without the progress control the
              // process cannot tell when dissemination finished, so it must
              // budget for the worst legal schedule it was designed for.
              : 8 * cfg.shutdown_steps;
      for (std::size_t p = 0; p < spec.n; ++p)
        procs.push_back(std::make_unique<EpidemicGossipProcess>(
            static_cast<ProcessId>(p), cfg));
      break;
    }
    case GossipAlgorithm::kLazy:
      for (std::size_t p = 0; p < spec.n; ++p)
        procs.push_back(std::make_unique<LazyGossipProcess>(
            static_cast<ProcessId>(p), spec.n, spec.lazy_fanout, spec.seed));
      break;
    case GossipAlgorithm::kRoundRobin: {
      const EpidemicConfig cfg = make_ears_config(
          spec.n, spec.f, spec.seed, spec.ears_shutdown_constant);
      for (std::size_t p = 0; p < spec.n; ++p)
        procs.push_back(std::make_unique<RoundRobinGossipProcess>(
            static_cast<ProcessId>(p), cfg));
      break;
    }
    case GossipAlgorithm::kCrEars:
    case GossipAlgorithm::kCrSears:
    case GossipAlgorithm::kCrTears:
      break;  // handled above via the registered consensus factory
  }
  return procs;
}

Time default_step_budget(const GossipSpec& spec) {
  const double n = static_cast<double>(spec.n);
  const double lg = std::log2(n) + 1.0;
  const double dd = static_cast<double>(spec.d + spec.delta);
  if (is_consensus_algorithm(spec.algorithm)) {
    // Matches run_consensus_spec's budget: O(1) phases of O(log^2 n (d+δ))
    // gossip each in expectation, padded for the catch-up machinery.
    return static_cast<Time>(2000.0 * lg * lg * dd + 64.0 * n);
  }
  // Generous: the claimed time complexities are at most
  // n/(n-f) * log^2 n * (d + delta) up to constants; budget two orders of
  // magnitude above to make non-termination failures unambiguous.
  const double ratio = n / static_cast<double>(spec.n - spec.f);
  const double budget = 400.0 * ratio * lg * lg * dd + 4096.0;
  return static_cast<Time>(budget);
}

bool gossip_requires_gathering(const GossipSpec& spec) {
  switch (spec.algorithm) {
    case GossipAlgorithm::kTears:  // majority gossip only
    case GossipAlgorithm::kLazy:   // completion only (cascading foil)
    case GossipAlgorithm::kCrEars:   // consensus: judged by decision notes,
    case GossipAlgorithm::kCrSears:  // not rumor spread (cr_gossip.h)
    case GossipAlgorithm::kCrTears:
      return false;
    case GossipAlgorithm::kSync:
      // The synchronous baseline assumes d = delta = 1 a priori (its fixed
      // round budget counts rounds, not time); outside that regime its
      // spread guarantee simply does not apply, so only completion and the
      // model invariants are checked.
      return spec.d == 1 && spec.delta == 1;
    default:
      return true;
  }
}

bool gossip_requires_majority(const GossipSpec& spec) {
  if (spec.algorithm == GossipAlgorithm::kLazy) return false;
  if (is_consensus_algorithm(spec.algorithm)) return false;
  if (spec.algorithm == GossipAlgorithm::kSync)
    return spec.d == 1 && spec.delta == 1;  // same regime caveat as above
  return true;
}

Engine make_gossip_engine(const GossipSpec& spec) {
  ObliviousConfig adv;
  adv.n = spec.n;
  adv.d = spec.d;
  adv.delta = spec.delta;
  adv.schedule = spec.schedule;
  adv.delay = spec.delay;
  adv.crash_plan =
      random_crashes(spec.n, spec.f, spec.crash_horizon, spec.seed ^ 0xF417ULL);
  adv.seed = spec.seed ^ 0xAD7E25A27ULL;

  EngineConfig ecfg;
  ecfg.d = spec.d;
  ecfg.delta = spec.delta;
  ecfg.max_crashes = spec.f;
  ecfg.jobs = spec.engine_jobs;

  return Engine(make_gossip_processes(spec),
                std::make_unique<ObliviousAdversary>(adv), ecfg);
}

TelemetryConfig telemetry_config(const GossipSpec& spec) {
  TelemetryConfig cfg;
  cfg.n = spec.n;
  cfg.d = spec.d;
  cfg.delta = spec.delta;
  return cfg;
}

namespace {

void attach_telemetry(Engine& engine, TelemetryCollector* telemetry) {
  if (telemetry == nullptr) return;
  engine.add_observer(telemetry);
  engine.set_probe_sink(telemetry);
}

void attach_flight(Engine& engine, FlightRing* ring) {
  if (ring != nullptr) engine.set_flight_ring(ring);
}

}  // namespace

namespace {

/// The single-spec run behind run_gossip_spec and run_gossip_sweep:
/// honors spec.audit (throwing on violations) and captures the trace hash.
GossipSweepResult run_spec_result(const GossipSpec& spec) {
  if (spec.audit) {
    AuditedGossipOutcome audited = run_audited_gossip_spec(spec);
    if (!audited.audit.ok())
      throw ModelViolation("audited gossip run violated the model contract: " +
                           audited.audit.summary());
    return {audited.outcome, audited.trace_hash};
  }
  Engine engine = make_gossip_engine(spec);
  attach_telemetry(engine, spec.telemetry);
  attach_flight(engine, spec.flight);
  const Time budget =
      spec.max_steps != 0 ? spec.max_steps : default_step_budget(spec);
  GossipSweepResult result;
  result.outcome = run_gossip(engine, budget);
  if (spec.telemetry != nullptr) spec.telemetry->finalize(engine.now());
  result.trace_hash = engine.trace_hash();
  return result;
}

}  // namespace

GossipOutcome run_gossip_spec(const GossipSpec& spec) {
  return run_spec_result(spec).outcome;
}

std::string spec_label(const GossipSpec& spec) {
  return std::string(to_string(spec.algorithm)) + "/n:" +
         std::to_string(spec.n) + "/f:" + std::to_string(spec.f) +
         "/d:" + std::to_string(spec.d) +
         "/delta:" + std::to_string(spec.delta);
}

std::vector<GossipSweepResult> run_gossip_sweep(
    const std::vector<GossipSpec>& specs, std::size_t jobs) {
  std::vector<GossipSweepResult> results(specs.size());
  const SweepRunner runner(jobs);
  std::vector<std::exception_ptr> errors;
  const std::size_t failed = runner.run_collecting(
      specs.size(),
      [&](std::size_t i) { results[i] = run_spec_result(specs[i]); }, errors);
  if (failed == 0) return results;

  std::size_t lowest = 0;
  while (errors[lowest] == nullptr) ++lowest;
  if (failed == 1) std::rethrow_exception(errors[lowest]);

  // More than one spec failed: still surface the lowest-index exception
  // (reruns stay reproducible), but record how widespread the failure was.
  std::string context = " [sweep: " + std::to_string(failed) + " of " +
                        std::to_string(specs.size()) +
                        " specs failed; also failing:";
  constexpr std::size_t kMaxLabels = 3;
  std::size_t listed = 0;
  for (std::size_t i = lowest + 1; i < specs.size(); ++i) {
    if (errors[i] == nullptr) continue;
    if (listed == kMaxLabels) {
      context += ", ...";
      break;
    }
    context += (listed == 0 ? " " : ", ") + spec_label(specs[i]) +
               "/seed:" + std::to_string(specs[i].seed);
    ++listed;
  }
  context += ']';
  try {
    std::rethrow_exception(errors[lowest]);
  } catch (const ModelViolation& e) {
    throw ModelViolation(e.what() + context);
  } catch (const ApiError& e) {
    throw ApiError(e.what() + context);
  } catch (const std::exception& e) {
    throw std::runtime_error(e.what() + context);
  }
}

AuditedGossipOutcome run_audited_gossip_spec(const GossipSpec& spec) {
  Engine engine = make_gossip_engine(spec);
  AuditConfig audit_cfg;
  audit_cfg.n = spec.n;
  audit_cfg.d = spec.d;
  audit_cfg.delta = spec.delta;
  audit_cfg.max_crashes = spec.f;
  InvariantAuditor auditor(audit_cfg);
  engine.add_observer(&auditor);
  attach_telemetry(engine, spec.telemetry);
  attach_flight(engine, spec.flight);
  const Time budget =
      spec.max_steps != 0 ? spec.max_steps : default_step_budget(spec);
  AuditedGossipOutcome result;
  result.outcome = run_gossip(engine, budget);
  auditor.finalize(engine.now());
  auditor.cross_check(engine.metrics());
  if (spec.telemetry != nullptr) spec.telemetry->finalize(engine.now());
  result.audit = auditor.report();
  result.trace_hash = engine.trace_hash();
  return result;
}

}  // namespace asyncgossip
