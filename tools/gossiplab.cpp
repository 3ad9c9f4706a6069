// gossiplab — command-line experiment runner.
//
// Subcommands:
//   gossip     run one gossip execution, print a summary (or --csv row)
//   sweep      run a gossip algorithm over a list of n values, CSV output
//   consensus  run one consensus execution
//   lowerbound run the Theorem 1 adaptive adversary against an algorithm
//   trace      run a small gossip execution and print its ASCII timeline
//   report     run one gossip execution with telemetry, print the JSON report
//   rt         run one gossip execution on the real-time threaded runtime
//              (wall-clock ticks, optional fault injection), audit the
//              recorded trace offline, print the JSON report; --spans /
//              --stats-interval-ms turn on the flight recorder / live stats
//   spans      convert a recorded flight log to Perfetto-loadable Chrome
//              trace-event JSON and print delivery-latency percentiles
//   fuzz       sample adversary configurations, shrink any failing case to a
//              replayable repro artifact (exit 1 when a failure was found)
//   replay     re-execute a repro artifact, verify its pinned trace hash
//   statcheck  statistical Table 1 bound check (asyncgossip-statcheck-v1 JSON)
//   serve      run the replicated KV service behind a loopback UDP front-end
//              for a fixed duration (docs/SERVING.md)
//   loadgen    drive an open-loop workload at a serve instance (--target udp)
//              or an in-process service (--target inproc, the soak path);
//              exit 1 when the run is incomplete
//   histcheck  check a committed log + observation stream for lost writes,
//              stale reads, and session-order violations
//
// Each subcommand declares its flags once, in a table (tools/flags.h) that
// also generates its --help. Exit status: 0 ok; 1 the run failed (a checked
// property did not hold or the run was incomplete); 2 usage error (unknown,
// repeated, malformed or missing flag, bad choice, value out of range, or
// an input that cannot be read or an output that cannot be written);
// 3 internal error.
//
// Examples:
//   gossiplab gossip --alg ears --n 256 --f 64 --d 4 --delta 3 --seed 1
//   gossiplab sweep --alg tears --n 256,512,1024 --fpct 25
//   gossiplab consensus --exchange tears --n 128 --seed 7
//   gossiplab lowerbound --alg lazy --f 64 --seed 3
//   gossiplab trace --alg ears --n 16 --f 4 --steps 96
//   gossiplab trace --alg ears --n 16 --f 4 --record run.trace
//   gossiplab gossip --alg tears --n 128 --f 32 --audit
//   gossiplab report --algorithm ears --n 64 --f 16
//   gossiplab report --alg tears --n 128 --f 32 --out run.json --spread-csv spread.csv
//   gossiplab rt --algorithm ears --n 32 --f 8 --inject crash --seed 7
//   gossiplab rt --alg tears --n 24 --f 5 --record rt.trace --out rt.json
//   gossiplab rt --alg ears --n 16 --f 4 --spans rt.flight --stats-interval-ms 50
//   gossiplab spans --in rt.flight --out spans.json
//   gossiplab fuzz --iters 200 --seed 7 --out repro
//   gossiplab fuzz --iters 20 --inject late-delivery --out repro
//   gossiplab replay --in repro.spec.json
//   gossiplab statcheck --trials 12 --n 12,16,24,32 --out statcheck.json
//   gossiplab rt --algorithm cr-tears --n 32 --f 15 --inject crash
//   gossiplab serve --port 47123 --duration 10 --algorithm cr-tears
//   gossiplab loadgen --target udp --port 47123 --rate 500 --duration 5
//   gossiplab loadgen --target inproc --requests 1000000 --crashes 2
//       --log svc.log --obs svc.obs
//   gossiplab histcheck --log svc.log --obs svc.obs
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "consensus/canetti_rabin.h"
#include "consensus/cr_gossip.h"
#include "flags.h"
#include "gossip/fuzz_harness.h"
#include "gossip/harness.h"
#include "gossip/spec_json.h"
#include "lowerbound/adaptive.h"
#include "rt/driver.h"
#include "rt/multiproc.h"
#include "sim/span_export.h"
#include "sim/telemetry.h"
#include "sim/telemetry_export.h"
#include "sim/trace.h"
#include "svc/consensus_wire.h"
#include "svc/history.h"
#include "svc/loadgen.h"
#include "svc/server.h"
#include "svc/service.h"

using namespace asyncgossip;
using cli::Flag;
using cli::Given;
using cli::parse_flags;
using cli::usage_error;

namespace {

using Args = std::vector<std::string>;

std::vector<Flag> join(std::vector<Flag> a, std::vector<Flag> b) {
  a.insert(a.end(), std::make_move_iterator(b.begin()),
           std::make_move_iterator(b.end()));
  return a;
}

/// Opens `path` for reading or writing; on failure says so and returns
/// false (the caller exits 2).
template <typename Stream>
bool open_file(const std::string& path, Stream* stream) {
  stream->open(path);
  if (*stream) return true;
  std::fprintf(stderr, "cannot open %s for %s\n", path.c_str(),
               std::is_same_v<Stream, std::ifstream> ? "reading" : "writing");
  return false;
}

/// Checks a JSON document and writes it to `path`, or to stdout when `path`
/// is empty. Returns the exit status: 0, 2 unwritable, 3 invalid JSON.
int write_json(const std::string& doc, const std::string& path,
               const char* what) {
  std::string json_err;
  if (!json_valid(doc, &json_err)) {
    std::fprintf(stderr, "internal error: %s is not valid JSON: %s\n", what,
                 json_err.c_str());
    return 3;
  }
  if (path.empty()) {
    std::fputs(doc.c_str(), stdout);
    return 0;
  }
  std::ofstream os;
  if (!open_file(path, &os)) return 2;
  os << doc;
  std::fprintf(stderr, "wrote %s to %s\n", what, path.c_str());
  return 0;
}

/// The model/algorithm flags of a gossip run, bound to a GossipSpec. The
/// choice flags land in strings until resolve().
struct SpecFlags {
  GossipSpec spec;
  std::string alg, schedule, delay;

  /// The rows, minus `omit` (the flags a subcommand does not read).
  std::vector<Flag> rows(const std::set<std::string>& omit = {}) {
    std::vector<Flag> all = {
        Flag("alg", &alg, "ears", "algorithm")
            .aka("algorithm")
            .one_of({"trivial", "ears", "sears", "tears", "sync",
                     "ears-no-informed-list", "lazy", "round-robin",
                     "cr-ears", "cr-sears", "cr-tears"}),
        Flag("n", &spec.n, "64", "processes").in(1),
        {"f", &spec.f, nullptr, "crash budget (default n/4)"},
        Flag("d", &spec.d, "1", "delivery bound").in(1),
        Flag("delta", &spec.delta, "1", "scheduling bound").in(1),
        {"seed", &spec.seed, "1", "RNG seed"},
        Flag("schedule", &schedule, nullptr,
             "oblivious schedule (default lockstep when delta = 1,\n"
             "else staggered)")
            .one_of({"lockstep", "staggered", "random", "rotating",
                     "straggler"}),
        Flag("delay", &delay, nullptr,
             "message delays (default unit when d = 1, else uniform)")
            .one_of({"unit", "max", "uniform", "bimodal", "targeted"}),
        {"crash-horizon", &spec.crash_horizon, "64",
         "crash times drawn in [0, N)"},
        {"epsilon", &spec.sears_epsilon, "0.5", "SEARS fanout exponent"},
        {"shutdown-c", &spec.ears_shutdown_constant, "4.0",
         "EARS shutdown constant"},
        {"tears-a", &spec.tears_a_constant, "1.0", "TEARS a constant"},
        {"tears-kappa", &spec.tears_kappa_constant, "1.0",
         "TEARS kappa constant"},
        {"lazy-fanout", &spec.lazy_fanout, "2", "lazy-gossip fanout"},
        {"max-steps", &spec.max_steps, "0", "step budget; 0 = automatic"},
        {"engine-jobs", &spec.engine_jobs, nullptr,
         "engine worker threads per run: 1 = serial, 0 =\n"
         "hardware concurrency; results are identical for every\n"
         "value (default AG_ENGINE_JOBS, else 1)"},
        {"audit", &spec.audit, nullptr,
         "attach the invariant auditor; violations abort"},
    };
    std::erase_if(all, [&](const Flag& f) { return omit.count(f.name) != 0; });
    return all;
  }

  /// Converts the choice flags; schedule and delay default from delta, d.
  void resolve() {
    if (!alg.empty()) algorithm_from_string(alg, &spec.algorithm);
    if (schedule.empty()) schedule = spec.delta == 1 ? "lockstep" : "staggered";
    if (delay.empty()) delay = spec.d == 1 ? "unit" : "uniform";
    schedule_from_string(schedule, &spec.schedule);
    delay_from_string(delay, &spec.delay);
  }

  /// resolve(), plus the derived crash budget f = n/4, checked against n.
  GossipSpec finish(const char* cmd, const Given& given) {
    resolve();
    if (given.count("f") == 0) spec.f = spec.n / 4;
    if (spec.f >= spec.n) usage_error(cmd, "--f must be less than --n");
    return spec;
  }
};

void check_majority(const char* cmd, std::size_t n, std::size_t f) {
  if (n < 3 || f >= (n + 1) / 2)
    usage_error(cmd, "need --n >= 3 and --f < n/2 (got n=" +
                         std::to_string(n) + " f=" + std::to_string(f) + ")");
}

void print_gossip_csv_header() {
  std::printf(
      "alg,n,f,d,delta,seed,completed,steps,msgs,bytes,gathering,majority,"
      "alive,realized_d,realized_delta\n");
}

void print_gossip_csv(const GossipSpec& spec, const GossipOutcome& out) {
  std::printf("%s,%zu,%zu,%llu,%llu,%llu,%d,%llu,%llu,%llu,%d,%d,%zu,%llu,%llu\n",
              to_string(spec.algorithm), spec.n, spec.f,
              (unsigned long long)spec.d, (unsigned long long)spec.delta,
              (unsigned long long)spec.seed, (int)out.completed,
              (unsigned long long)out.completion_time,
              (unsigned long long)out.messages, (unsigned long long)out.bytes,
              (int)out.gathering_ok, (int)out.majority_ok, out.alive,
              (unsigned long long)out.realized_d,
              (unsigned long long)out.realized_delta);
}

int cmd_gossip(const Args& args) {
  SpecFlags s;
  bool csv = false;
  const Given given = parse_flags(
      "gossip", "run one gossip execution and print a human summary",
      join({{"csv", &csv, nullptr, "print a CSV header + row instead"}},
           s.rows()),
      args);
  const GossipSpec spec = s.finish("gossip", given);
  const GossipOutcome out = run_gossip_spec(spec);
  if (csv) {
    print_gossip_csv_header();
    print_gossip_csv(spec, out);
  } else {
    std::printf("%s n=%zu f=%zu d=%llu delta=%llu seed=%llu\n",
                to_string(spec.algorithm), spec.n, spec.f,
                (unsigned long long)spec.d, (unsigned long long)spec.delta,
                (unsigned long long)spec.seed);
    std::printf("  completed   %s (detector at step %llu)\n",
                out.completed ? "yes" : "NO",
                (unsigned long long)out.detection_time);
    std::printf("  time        %llu steps (%.2f per d+delta)\n",
                (unsigned long long)out.completion_time,
                (double)out.completion_time / (double)(spec.d + spec.delta));
    std::printf("  messages    %llu (%.1f per process)\n",
                (unsigned long long)out.messages,
                (double)out.messages / (double)spec.n);
    std::printf("  bytes       %llu (%.1f per message)\n",
                (unsigned long long)out.bytes,
                out.messages ? (double)out.bytes / (double)out.messages : 0.0);
    std::printf("  gathering   %s   majority %s   survivors %zu/%zu\n",
                out.gathering_ok ? "ok" : "FAILED",
                out.majority_ok ? "ok" : "FAILED", out.alive, spec.n);
  }
  return out.completed ? 0 : 1;
}

int cmd_sweep(const Args& args) {
  SpecFlags s;
  std::vector<std::uint64_t> ns;
  std::uint64_t fpct = 0;
  std::uint64_t seeds = 0;
  std::uint64_t jobs = 0;
  std::string json_path;
  parse_flags(
      "sweep",
      "run an algorithm over a grid of n values x seeds, CSV to stdout",
      join({Flag("n", &ns, "64,128,256", "population sizes").in(1),
            Flag("fpct", &fpct, "25", "crash budget as % of n").in(0, 99),
            {"seeds", &seeds, "3", "seeds per size: --seed, --seed + 1, ..."},
            {"jobs", &jobs, "1",
             "worker threads; 0 = all hardware threads. Output is\n"
             "identical for every value; only wall time changes"},
            {"json", &json_path, nullptr,
             "also write an asyncgossip-bench-v1 report (suite\n"
             "\"sweep\")"}},
           s.rows({"n", "f"})),
      args);
  s.resolve();

  // Build the whole grid up front so the parallel runner can claim cases
  // freely; rows are printed afterwards in grid order regardless of which
  // worker finished first.
  std::vector<GossipSpec> specs;
  specs.reserve(ns.size() * seeds);
  for (const std::uint64_t n : ns) {
    for (std::uint64_t k = 0; k < seeds; ++k) {
      GossipSpec spec = s.spec;
      spec.n = n;
      spec.f = n * fpct / 100;
      spec.seed = s.spec.seed + k;
      specs.push_back(spec);
    }
  }
  const std::vector<GossipSweepResult> results =
      run_gossip_sweep(specs, static_cast<std::size_t>(jobs));

  print_gossip_csv_header();
  for (std::size_t i = 0; i < specs.size(); ++i)
    print_gossip_csv(specs[i], results[i].outcome);

  if (json_path.empty()) return 0;
  std::vector<BenchCaseRow> rows;
  rows.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const GossipSpec& spec = specs[i];
    const GossipOutcome& out = results[i].outcome;
    BenchCaseRow row;
    row.name = spec_label(spec) + "/seed:" + std::to_string(spec.seed);
    row.counters = {
        {"completed", out.completed ? 1.0 : 0.0},
        {"steps", static_cast<double>(out.completion_time)},
        {"msgs", static_cast<double>(out.messages)},
        {"bytes", static_cast<double>(out.bytes)},
        {"gather_ok", out.gathering_ok ? 1.0 : 0.0},
        {"majority_ok", out.majority_ok ? 1.0 : 0.0},
        {"alive", static_cast<double>(out.alive)},
        {"realized_d", static_cast<double>(out.realized_d)},
        {"realized_delta", static_cast<double>(out.realized_delta)},
    };
    rows.push_back(std::move(row));
  }
  std::ostringstream doc;
  write_bench_json(doc, "sweep", rows);
  return write_json(doc.str(), json_path, "sweep report");
}

int cmd_consensus(const Args& args) {
  SpecFlags s;
  std::string exchange, inputs;
  const Given given = parse_flags(
      "consensus", "run one Canetti-Rabin consensus execution",
      join({Flag("exchange", &exchange, "tears", "gossip exchange")
                .one_of({"all-to-all", "cr", "ears", "sears", "tears"}),
            {"f", &s.spec.f, nullptr, "crash budget, < n/2 (default n/2 - 1)"},
            Flag("inputs", &inputs, "random", "input pattern")
                .one_of({"random", "zero", "one", "half"})},
           s.rows({"alg", "f", "crash-horizon", "shutdown-c", "lazy-fanout",
                   "max-steps", "engine-jobs", "audit"})),
      args);
  s.resolve();
  if (given.count("f") == 0) s.spec.f = s.spec.n / 2 - 1;
  check_majority("consensus", s.spec.n, s.spec.f);
  ConsensusSpec spec;
  spec.config.n = s.spec.n;
  spec.config.f = s.spec.f;
  spec.config.exchange = exchange == "ears"    ? ExchangeKind::kEars
                         : exchange == "sears" ? ExchangeKind::kSears
                         : exchange == "tears" ? ExchangeKind::kTears
                                               : ExchangeKind::kAllToAll;
  spec.config.sears_epsilon = s.spec.sears_epsilon;
  spec.config.tears_a_constant = s.spec.tears_a_constant;
  spec.config.tears_kappa_constant = s.spec.tears_kappa_constant;
  spec.config.seed = s.spec.seed;
  spec.d = s.spec.d;
  spec.delta = s.spec.delta;
  spec.schedule = s.spec.schedule;
  spec.delay = s.spec.delay;
  spec.seed = spec.config.seed;
  spec.inputs = inputs == "zero"   ? InputPattern::kAllZero
                : inputs == "one"  ? InputPattern::kAllOne
                : inputs == "half" ? InputPattern::kHalfHalf
                                   : InputPattern::kRandom;
  const ConsensusOutcome out = run_consensus_spec(spec);
  std::printf("CR-%s n=%zu f=%zu inputs=%s\n",
              to_string(spec.config.exchange), spec.config.n, spec.config.f,
              inputs.c_str());
  std::printf("  decided     %s -> %d (phase %u)\n",
              out.all_decided ? "yes" : "NO", (int)out.decided_value,
              out.decision_phase);
  std::printf("  agreement   %s   validity %s   core violations %llu\n",
              out.agreement ? "ok" : "VIOLATED",
              out.validity ? "ok" : "VIOLATED",
              (unsigned long long)out.core_violations);
  std::printf("  time        %llu steps to decision, quiet at %llu\n",
              (unsigned long long)out.decision_time,
              (unsigned long long)out.quiet_time);
  std::printf("  messages    %llu to decision, %llu total, %llu bytes\n",
              (unsigned long long)out.messages_at_decision,
              (unsigned long long)out.total_messages,
              (unsigned long long)out.total_bytes);
  return out.all_decided && out.agreement && out.validity ? 0 : 1;
}

int cmd_lowerbound(const Args& args) {
  SpecFlags s;
  const Given given = parse_flags(
      "lowerbound",
      "run the Theorem 1 adaptive adversary against an algorithm (the\n"
      "adversary replaces the schedule, the delays and the crashes)",
      join(s.rows({"n", "f", "d", "delta", "schedule", "delay",
                   "crash-horizon", "shutdown-c", "max-steps", "engine-jobs",
                   "audit"}),
           {{"n", &s.spec.n, nullptr, "processes (default 4f)"},
            {"f", &s.spec.f, nullptr,
             "tolerance; the construction uses min(f, n/4), which\n"
             "must be >= 8 (default n/4, or 16 without --n)"},
            {"shutdown-c", &s.spec.ears_shutdown_constant, "2.0",
             "EARS shutdown constant"}}),
      args);
  if (given.count("n") == 0)
    s.spec.n = 4 * (given.count("f") != 0 ? s.spec.f : 16);
  LowerBoundConfig cfg;
  cfg.spec = s.finish("lowerbound", given);
  cfg.f = cfg.spec.f;
  if (std::min(cfg.f, cfg.spec.n / 4) < 8)
    usage_error("lowerbound", "--f: the construction needs min(f, n/4) >= 8");
  const LowerBoundReport r = run_lower_bound(cfg);
  std::printf("lower bound vs %s: n=%zu f_eff=%zu -> %s\n",
              to_string(cfg.spec.algorithm), r.n, r.f_eff,
              to_string(r.outcome));
  std::printf("  phase1 end t=%llu, promiscuous %zu/%zu\n",
              (unsigned long long)r.phase1_end, r.promiscuous_count,
              r.s2_size);
  if (r.outcome == LowerBoundCase::kCase1Messages)
    std::printf("  case1 window messages %llu (f^2 = %zu)\n",
                (unsigned long long)r.case1_window_messages,
                r.f_eff * r.f_eff);
  if (r.outcome == LowerBoundCase::kCase2Time)
    std::printf("  case2 pair (%u,%u), window to t=%llu, communicated=%d\n",
                r.pair_p, r.pair_q, (unsigned long long)r.case2_window_end,
                (int)r.pair_communicated);
  std::printf("  totals: %llu msgs, completion %llu, gathering %s, "
              "construction %s\n",
              (unsigned long long)r.total_messages,
              (unsigned long long)r.completion_time,
              r.gathering_ok ? "ok" : "never",
              r.construction_ok ? "ok" : "failed");
  return 0;
}

int cmd_trace(const Args& args) {
  SpecFlags s;
  std::uint64_t steps = 0;
  std::string record;
  const Given given = parse_flags(
      "trace", "run a small gossip execution and print its ASCII timeline",
      join({{"steps", &steps, "96", "step budget"},
            {"record", &record, nullptr,
             "write the event trace to PATH instead"}},
           s.rows({"max-steps", "audit"})),
      args);
  const GossipSpec spec = s.finish("trace", given);
  Engine engine = make_gossip_engine(spec);
  TraceRecorder trace;
  engine.set_observer(&trace);
  engine.run_until(gossip_quiet, steps);
  if (!record.empty()) {
    std::ofstream out;
    if (!open_file(record, &out)) return 2;
    trace.write_trace(out, spec.n, spec.d, spec.delta, spec.f);
    std::printf("recorded %zu events to %s (check with: tracecheck %s)\n",
                trace.events().size(), record.c_str(), record.c_str());
    return 0;
  }
  std::printf("%s n=%zu f=%zu — timeline (o step, s send, d deliver, "
              "b both, X crash):\n\n",
              to_string(spec.algorithm), spec.n, spec.f);
  std::printf("%s\n", trace.render_timeline(spec.n, 32,
                                            (std::size_t)engine.now()).c_str());
  const Summary lat = trace.latency_summary();
  std::printf("events: %llu steps, %llu sends, %llu deliveries, %llu crashes\n",
              (unsigned long long)trace.steps(),
              (unsigned long long)trace.sends(),
              (unsigned long long)trace.deliveries(),
              (unsigned long long)trace.crashes());
  std::printf("delivery latency: mean %.2f, max %.0f\n", lat.mean, lat.max);
  return 0;
}

int cmd_report(const Args& args) {
  SpecFlags s;
  std::string out_path, spread_path;
  const Given given = parse_flags(
      "report",
      "run one gossip execution with telemetry attached and print the\n"
      "asyncgossip-telemetry-v1 JSON report (schema: docs/OBSERVABILITY.md)",
      join({{"out", &out_path, nullptr, "write the JSON report to PATH"},
            {"spread-csv", &spread_path, nullptr,
             "also write the spread time-series as CSV"}},
           s.rows()),
      args);
  GossipSpec spec = s.finish("report", given);
  TelemetryCollector telemetry(telemetry_config(spec));
  spec.telemetry = &telemetry;
  const GossipOutcome out = run_gossip_spec(spec);

  TelemetryExportInfo info;
  info.run = {{"tool", "gossiplab report"},
              {"algorithm", to_string(spec.algorithm)},
              {"schedule", to_string(spec.schedule)},
              {"delay", to_string(spec.delay)}};
  info.summary = {
      {"n", (double)spec.n},
      {"f", (double)spec.f},
      {"d", (double)spec.d},
      {"delta", (double)spec.delta},
      {"seed", (double)spec.seed},
      {"completed", out.completed ? 1.0 : 0.0},
      {"completion_time", (double)out.completion_time},
      {"detection_time", (double)out.detection_time},
      {"steps_per_d_plus_delta",
       (double)out.completion_time / (double)(spec.d + spec.delta)},
      {"messages", (double)out.messages},
      {"bytes", (double)out.bytes},
      {"gathering_ok", out.gathering_ok ? 1.0 : 0.0},
      {"majority_ok", out.majority_ok ? 1.0 : 0.0},
      {"alive", (double)out.alive},
  };

  std::ostringstream doc;
  write_telemetry_json(doc, telemetry, info);
  if (const int rc = write_json(doc.str(), out_path, "telemetry report"))
    return rc;
  if (!spread_path.empty()) {
    std::ofstream os;
    if (!open_file(spread_path, &os)) return 2;
    write_spread_csv(os, telemetry);
    std::fprintf(stderr, "wrote spread time-series to %s\n",
                 spread_path.c_str());
  }
  return out.completed ? 0 : 1;
}

int cmd_rt(const Args& args) {
  SpecFlags s;
  RtConfig config;
  std::string inject, transport, record, out_path, spans, stats_out, trace_out;
  std::uint64_t worker = 0;
  std::uint64_t coord_port = 0;
  // The flags that define the run; a multi-process run forwards them to
  // every worker it re-execs.
  const std::vector<Flag> run_flags = join(
      s.rows({"d", "delta", "schedule", "delay", "audit", "engine-jobs"}),
      {Flag("d", &s.spec.d, "4", "delivery-bound target").in(1),
       Flag("delta", &s.spec.delta, "2", "scheduling-bound target").in(1),
       Flag("inject", &inject, "none", "fault injection")
           .one_of({"none", "crash", "stall", "drop", "all"}),
       Flag("tick-us", &config.tick_us, "200",
            "wall-clock microseconds per model tick")
           .in(1),
       Flag("wire-drop", &config.wire_faults.drop_probability, "0",
            "seeded datagram drop probability at the socket\n"
            "boundary (UDP transports only)")
           .in(0, 1),
       Flag("wire-dup", &config.wire_faults.duplicate_probability, "0",
            "seeded datagram duplication probability (UDP only)")
           .in(0, 1),
       Flag("wire-reorder", &config.wire_faults.reorder_probability, "0",
            "seeded datagram reorder probability (UDP only)")
           .in(0, 1),
       {"wire-seed", &config.wire_faults.seed, nullptr,
        "fault-shim seed (default --seed)"}});
  const Given given = parse_flags(
      "rt",
      "run one gossip execution on the real-time threaded runtime (one\n"
      "thread per process, wall-clock ticks; see docs/RUNTIME.md), audit\n"
      "the recorded trace offline, and print the asyncgossip-telemetry-v1\n"
      "JSON report. --d and --delta are targets (the delay-draw range and\n"
      "the pacing aim; real transports jitter, hence d = 4); the report\n"
      "carries the bounds the execution realized",
      join(run_flags,
           {Flag("transport", &transport, "inproc",
                 "inproc: threads; udp: one OS process per gossip\n"
                 "process over loopback datagrams; udp-threads: threads\n"
                 "over the UDP transport")
                .one_of({"inproc", "udp", "udp-threads"}),
            {"record", &record, nullptr,
             "write the trace-format-v1 event log to PATH"},
            {"out", &out_path, nullptr, "write the JSON report to PATH"},
            {"spans", &spans, nullptr,
             "enable the flight recorder and write the raw flight\n"
             "log (asyncgossip flight v1) to PATH; convert with\n"
             "`gossiplab spans`; not with --transport udp"},
            Flag("stats-interval-ms", &config.stats_interval_ms, nullptr,
                 "emit live asyncgossip-stats-v1 NDJSON snapshots\n"
                 "every N ms; not with --transport udp")
                .in(1),
            {"stats-out", &stats_out, nullptr,
             "stats destination (default stderr); needs\n"
             "--stats-interval-ms"},
            {"worker", &worker, nullptr,
             "worker mode: run gossip process N of a multi-process\n"
             "run (set by the coordinator, as are the next two)"},
            Flag("coord-port", &coord_port, nullptr,
                 "worker mode: the coordinator's UDP port")
                .in(0, 65535),
            {"trace-out", &trace_out, nullptr,
             "worker mode: where the worker writes its trace"}}),
      args);
  config.spec = s.finish("rt", given);
  if (given.count("wire-seed") == 0) config.wire_faults.seed = config.spec.seed;
  rt_inject_from_string(inject, &config.inject);
  // udp: one OS process per gossip process (rt/multiproc.h).
  const bool multiproc = transport == "udp";
  if (transport != "inproc") config.transport = RtTransportKind::kUdp;

  // Worker mode: this invocation IS one gossip process of a multi-process
  // run (re-exec'd by the coordinator — UDP by definition, so the
  // wire-fault validation below does not apply); run it and exit.
  if (given.count("worker") != 0)
    return run_rt_udp_worker(config, static_cast<ProcessId>(worker),
                             static_cast<std::uint16_t>(coord_port),
                             trace_out);
  if (config.wire_faults.any() &&
      config.transport == RtTransportKind::kInProcess)
    usage_error("rt", "--wire-* faults need --transport udp or udp-threads");
  if (given.count("coord-port") != 0 || given.count("trace-out") != 0)
    usage_error("rt",
                "--coord-port/--trace-out are worker-mode flags (set by the "
                "coordinator)");
  if (multiproc && (!spans.empty() || config.stats_interval_ms > 0))
    usage_error("rt",
                "--spans/--stats-interval-ms are not supported with "
                "--transport udp (multi-process)");
  if (!stats_out.empty() && config.stats_interval_ms == 0)
    usage_error("rt", "--stats-out requires --stats-interval-ms");
  config.flight = !spans.empty();
  std::ofstream stats_file;
  if (config.stats_interval_ms > 0) {
    config.stats_out = &std::cerr;
    if (!stats_out.empty()) {
      if (!open_file(stats_out, &stats_file)) return 2;
      config.stats_out = &stats_file;
    }
  }

  RtRunResult res;
  MultiprocResult mp;  // owns phase_pool backing res.probes when multiproc
  if (multiproc) {
    MultiprocConfig mc;
    mc.rt = config;
    mc.worker_args = cli::flag_args(run_flags);
    mc.worker_args.insert(mc.worker_args.begin(), "rt");
    mp = run_realtime_udp(mc);
    for (const std::string& err : mp.errors)
      std::fprintf(stderr, "rt multiproc: %s\n", err.c_str());
    res = std::move(mp.run);
  } else {
    res = run_realtime(config);
  }
  if (res.events_dropped != 0)
    std::fprintf(stderr, "warning: %zu records dropped (trace is a prefix)\n",
                 res.events_dropped);

  if (!record.empty()) {
    std::ofstream os;
    if (!open_file(record, &os)) return 2;
    write_rt_trace(os, config, res);
    std::fprintf(stderr, "wrote event log to %s\n", record.c_str());
  }

  if (!spans.empty()) {
    std::ofstream os;
    if (!open_file(spans, &os)) return 2;
    write_flight_log(os, rt_flight_header(config, res), res.flight);
    std::fprintf(stderr,
                 "wrote flight log to %s (%llu records, %llu dropped)\n",
                 spans.c_str(), (unsigned long long)res.flight.size(),
                 (unsigned long long)res.flight_dropped);
  }

  const ViolationReport audit = audit_rt_run(config, res);
  if (!audit.ok())
    std::fprintf(stderr, "audit found %llu violation(s):\n%s",
                 (unsigned long long)audit.total(), audit.summary().c_str());

  TelemetryCollector telemetry(rt_telemetry_config(config, res));
  feed_telemetry(res, &telemetry);

  const RtOutcome& out = res.outcome;
  // The sync baseline's spread guarantee only applies at d = delta = 1,
  // which a wall-clock execution essentially never realizes — evaluate the
  // contract against the realized bounds, like the fuzz oracle does
  // against the configured ones.
  GossipSpec realized = config.spec;
  realized.d = out.realized_d;
  realized.delta = out.realized_delta;
  const bool gathering_required = gossip_requires_gathering(realized);
  const bool majority_required = gossip_requires_majority(realized);

  // cr-* runs: gathering/majority are exempt above; the run is instead
  // judged by the consensus verdict aggregated from per-process notes
  // (threaded: collected post-join; udp: carried in worker files).
  const bool is_consensus = is_consensus_algorithm(config.spec.algorithm);
  ConsensusVerdict verdict;
  if (is_consensus) verdict = judge_consensus_notes(res.notes, res.crashed);

  TelemetryExportInfo info;
  info.run = {{"tool", "gossiplab rt"},
              {"runtime", multiproc ? "realtime-multiproc" : "realtime-threads"},
              {"transport", transport.c_str()},
              {"algorithm", to_string(config.spec.algorithm)},
              {"inject", to_string(config.inject)}};
  info.summary = {
      {"n", (double)config.spec.n},
      {"f", (double)config.spec.f},
      {"d_target", (double)config.spec.d},
      {"delta_target", (double)config.spec.delta},
      {"seed", (double)config.spec.seed},
      {"tick_us", (double)config.tick_us},
      {"completed", out.completed ? 1.0 : 0.0},
      {"completion_time", (double)out.completion_time},
      {"end_time", (double)out.end_time},
      {"steps", (double)out.steps},
      {"messages", (double)out.messages},
      {"bytes", (double)out.bytes},
      {"deliveries", (double)out.deliveries},
      {"realized_d", (double)out.realized_d},
      {"realized_delta", (double)out.realized_delta},
      {"gathering_ok", out.gathering_ok ? 1.0 : 0.0},
      {"majority_ok", out.majority_ok ? 1.0 : 0.0},
      {"alive", (double)out.alive},
      {"crashes", (double)out.crashes},
      {"audit_violations", (double)audit.total()},
      {"wall_ms", out.wall_ms},
      {"recorder_enabled", config.flight ? 1.0 : 0.0},
      {"recorder_records", (double)res.flight.size()},
      {"recorder_pushed", (double)res.flight_pushed},
      {"recorder_dropped", (double)res.flight_dropped},
      {"recorder_overhead_ms", res.recorder_overhead_ms},
  };
  if (is_consensus) {
    info.summary.insert(
        info.summary.end(),
        {
            {"consensus_all_decided", verdict.all_decided ? 1.0 : 0.0},
            {"consensus_agreement", verdict.agreement ? 1.0 : 0.0},
            {"consensus_validity", verdict.validity ? 1.0 : 0.0},
            {"consensus_decided_value", (double)verdict.decided_value},
            {"consensus_decision_phase", (double)verdict.decision_phase},
            {"consensus_decided_count", (double)verdict.decided_count},
            {"consensus_survivors", (double)verdict.survivors},
            {"consensus_core_violations", (double)verdict.core_violations},
            {"consensus_reannouncements", (double)verdict.reannouncements},
        });
  }

  std::ostringstream doc;
  write_telemetry_json(doc, telemetry, info);
  if (const int rc = write_json(doc.str(), out_path, "telemetry report"))
    return rc;

  const bool ok = out.completed && audit.ok() &&
                  (!gathering_required || out.gathering_ok) &&
                  (!majority_required || out.majority_ok) &&
                  (!is_consensus || verdict.ok());
  if (is_consensus)
    std::fprintf(stderr, "consensus: %s\n", verdict.summary().c_str());
  if (!ok)
    std::fprintf(stderr,
                 "rt run failed: completed=%d audit_ok=%d gathering=%d/%d "
                 "majority=%d/%d consensus=%d/%d\n",
                 (int)out.completed, (int)audit.ok(), (int)out.gathering_ok,
                 (int)gathering_required, (int)out.majority_ok,
                 (int)majority_required, (int)(!is_consensus || verdict.ok()),
                 (int)is_consensus);
  return ok ? 0 : 1;
}

int cmd_spans(const Args& args) {
  std::string in_path, out_path;
  parse_flags(
      "spans",
      "convert a flight log recorded by `gossiplab rt --spans` into Chrome\n"
      "trace-event JSON (asyncgossip-spans-v1; open in ui.perfetto.dev) and\n"
      "print the per-message delivery wall-latency percentiles next to the\n"
      "realized d+delta budget",
      {Flag("in", &in_path, nullptr, "flight log to read").needed(),
       {"out", &out_path, nullptr,
        "write the Chrome trace-event JSON to PATH"}},
      args);
  std::ifstream is;
  if (!open_file(in_path, &is)) return 2;
  FlightLogHeader header;
  std::vector<FlightRecord> records;
  std::string parse_err;
  if (!read_flight_log(is, &header, &records, &parse_err)) {
    std::fprintf(stderr, "%s: not a flight log: %s\n", in_path.c_str(),
                 parse_err.c_str());
    return 2;
  }

  if (!out_path.empty()) {
    std::ostringstream doc;
    write_chrome_trace(doc, header, records);
    if (const int rc =
            write_json(doc.str(), out_path, "Chrome trace-event JSON"))
      return rc;
  }

  const SpanSummary s = summarize_spans(records);
  std::printf("spans: %zu sends, %zu delivers, %zu paired",
              s.sends, s.delivers, s.paired);
  if (header.dropped != 0)
    std::printf(" (%llu ring records dropped — sample, not a full record)",
                (unsigned long long)header.dropped);
  std::printf("\n");
  const double budget_ms =
      (double)(header.realized_d + header.realized_delta) *
      (double)header.tick_us / 1000.0;
  std::printf(
      "delivery wall latency: p50 %.3f ms  p95 %.3f ms  p99 %.3f ms  "
      "max %.3f ms\n",
      s.p50_us / 1000.0, s.p95_us / 1000.0, s.p99_us / 1000.0,
      s.max_us / 1000.0);
  std::printf(
      "realized d+delta budget: %llu ticks @ %llu us = %.3f ms\n",
      (unsigned long long)(header.realized_d + header.realized_delta),
      (unsigned long long)header.tick_us, budget_ms);
  for (const ZoneTotal& z : s.zones)
    std::printf("zone %-13s %8llu calls  %10.3f ms total\n", z.name.c_str(),
                (unsigned long long)z.count, z.total_ms);
  return 0;
}

int cmd_fuzz(const Args& args) {
  GossipFuzzOptions opt;
  std::string inject;
  parse_flags(
      "fuzz",
      "sample oblivious-adversary configurations across every algorithm,\n"
      "run each under the invariant auditor + gossip postconditions, and\n"
      "shrink the first failing case to a replayable repro artifact\n"
      "exit status: 0 no failure found, 1 failure found and shrunk",
      {{"iters", &opt.fuzz.iterations, "200", "cases to sample"},
       {"seed", &opt.fuzz.seed, "1", "fuzz stream seed"},
       {"budget-ms", &opt.fuzz.time_budget_ms, "0",
        "wall-clock budget; 0 = unlimited"},
       {"out", &opt.artifact_prefix, "fuzz-repro",
        "artifact prefix; a failure writes PATH.spec.json and\n"
        "PATH.trace"},
       Flag("inject", &inject, nullptr,
            "test-only fault injection into an offline copy of the\n"
            "event stream")
           .one_of({"late-delivery", "double-step", "phantom-crash"})},
      args);
  if (!inject.empty()) event_mutator_from_string(inject, &opt.mutate);
  std::ostringstream log;
  opt.log = &log;
  const GossipFuzzResult result = run_gossip_fuzz(opt);
  std::fputs(log.str().c_str(), stdout);
  if (!result.found_failure) return 0;
  std::printf("replay with: gossiplab replay --in %s\n",
              result.spec_artifact.empty() ? "<artifact>"
                                           : result.spec_artifact.c_str());
  return 1;
}

int cmd_replay(const Args& args) {
  std::string path;
  parse_flags(
      "replay",
      "re-execute an asyncgossip-repro-v1 artifact (gossiplab fuzz output)\n"
      "and verify the engine trace hash against the pinned fingerprint\n"
      "exit status: 0 hash matches, 1 mismatch, 2 unreadable artifact",
      {Flag("in", &path, nullptr, "artifact to replay (ARTIFACT.spec.json)")
           .needed()},
      args);
  std::ifstream is;
  if (!open_file(path, &is)) return 2;
  ReproArtifact artifact;
  std::string error;
  if (!read_repro_json(is, &artifact, &error)) {
    std::fprintf(stderr, "replay: %s: %s\n", path.c_str(), error.c_str());
    return 2;
  }
  if (!artifact.failure.empty())
    std::printf("pinned failure: %s\n", artifact.failure.c_str());
  std::string detail;
  const bool match = replay_repro(artifact, &detail);
  std::printf("%s\n", detail.c_str());
  return match ? 0 : 1;
}

int cmd_statcheck(const Args& args) {
  GossipStatCheckOptions opt;
  std::uint64_t fpct = 0;
  std::string out_path;
  parse_flags(
      "statcheck",
      "statistical check of the paper's Table 1 envelopes for EARS and\n"
      "TEARS: per-cell trial batches, one-sided quantile tests, constant\n"
      "fitted on the smallest-n calibration column\n"
      "exit status: 0 all cells pass, 1 a cell failed, 3 internal error",
      {{"trials", &opt.trials, "12", "seeds per cell"},
       {"seed", &opt.seed, "1", "base seed"},
       {"jobs", &opt.jobs, "0", "worker threads; 0 = all hardware threads"},
       Flag("n", &opt.ns, "12,16,24,32", "population grid").in(1),
       Flag("fpct", &fpct, "25", "crash budget as % of n").in(0, 99),
       Flag("quantile", &opt.stat.quantile, "0.9", "order statistic, > 0")
           .in(0, 1),
       Flag("slack", &opt.stat.slack, "3.0", "calibration slack factor, > 0")
           .in(0),
       {"out", &out_path, nullptr,
        "write asyncgossip-statcheck-v1 JSON to PATH instead\n"
        "of stdout"}},
      args);
  if (opt.stat.quantile == 0.0 || opt.stat.slack == 0.0)
    usage_error("statcheck", "--quantile and --slack must be > 0");
  opt.f_fraction = static_cast<double>(fpct) / 100.0;
  std::ostringstream log;
  opt.log = &log;
  const StatReport report = run_gossip_statcheck(opt);
  std::fputs(log.str().c_str(), stderr);

  auto run_info = statcheck_run_info(opt);
  run_info.insert(run_info.begin(), {"tool", "gossiplab statcheck"});
  std::ostringstream doc;
  write_statcheck_json(doc, report, run_info);
  if (const int rc = write_json(doc.str(), out_path, "statcheck report"))
    return rc;
  return report.ok() ? 0 : 1;
}

/// The replica-group flags of the service's consensus commit path (serve,
/// and loadgen's inproc target), bound to a KvServiceConfig.
struct GroupFlags {
  svc::KvServiceConfig cfg;
  std::string alg, log_path;
  std::ofstream log_file;

  std::vector<Flag> rows() {
    return {
        Flag("alg", &alg, "cr-tears", "consensus algorithm of the commit path")
            .aka("algorithm")
            .one_of({"cr-ears", "cr-sears", "cr-tears"}),
        {"n", &cfg.group.n, "8", "replicas"},
        {"f", &cfg.group.f, nullptr,
         "tolerated crashes, < n/2 (default (n-1)/2)"},
        Flag("d", &cfg.group.d, "2", "per-slot delivery bound").in(1),
        Flag("delta", &cfg.group.delta, "2", "per-slot scheduling bound").in(1),
        {"seed", &cfg.group.seed, "1",
         "group seed: fault plan + per-slot engines"},
        Flag("batch", &cfg.batch_limit, "512",
             "max commands per consensus slot")
            .in(1),
        {"crashes", &cfg.group.inject_crashes, "0",
         "fault plan: replicas to crash over the run; may\n"
         "exceed --f to exercise honest unavailability"},
        {"crash-horizon", &cfg.group.crash_horizon_slots, "64",
         "crash slots drawn in [1, N]"},
        Flag("stall-p", &cfg.group.stall_probability, "0",
             "per-slot stall probability (d inflated 4x)")
            .in(0, 1),
        {"log", &log_path, nullptr,
         "stream the committed log (svc-log-v1) to PATH"},
    };
  }

  /// Resolves the algorithm and the derived f, checks for a majority and
  /// opens the --log file; false when it cannot be opened.
  bool finish(const char* cmd, const Given& given) {
    algorithm_from_string(alg, &cfg.group.algorithm);
    if (given.count("f") == 0) cfg.group.f = (cfg.group.n - 1) / 2;
    check_majority(cmd, cfg.group.n, cfg.group.f);
    if (log_path.empty()) return true;
    cfg.log_out = &log_file;
    return open_file(log_path, &log_file);
  }
};

/// Appends the service's slot/commit counters to a bench-v1 counter list.
void append_service_counters(const svc::KvServiceStats& stats,
                             std::vector<std::pair<std::string, double>>* c) {
  c->insert(c->end(),
            {
                {"committed", (double)stats.committed},
                {"slots", (double)stats.slots},
                {"slots_unavailable", (double)stats.slots_unavailable},
                {"slots_stalled", (double)stats.slots_stalled},
                {"consensus_messages", (double)stats.consensus_messages},
                {"consensus_bytes", (double)stats.consensus_bytes},
                {"consensus_ticks", (double)stats.consensus_ticks},
                {"max_batch", (double)stats.max_batch},
            });
}

int write_bench_report(const std::string& path, const char* suite,
                       BenchCaseRow row) {
  if (path.empty()) return 0;
  std::ostringstream doc;
  write_bench_json(doc, suite, {std::move(row)});
  return write_json(doc.str(), path, (std::string(suite) + " report").c_str());
}

int cmd_serve(const Args& args) {
  GroupFlags g;
  std::uint64_t port = 0;
  double duration = 0.0;
  std::string json_path;
  const Given given = parse_flags(
      "serve",
      "run the replicated KV service behind a loopback UDP front-end for a\n"
      "fixed duration, then print the serving counters (docs/SERVING.md)",
      join({Flag("port", &port, nullptr,
                 "UDP port on 127.0.0.1; 0 = ephemeral, the bound port\n"
                 "is printed on stdout")
                .in(0, 65535)
                .needed(),
            {"duration", &duration, "10", "seconds to serve, > 0"},
            {"json", &json_path, nullptr,
             "write an asyncgossip-bench-v1 report (suite \"serve\")"}},
           g.rows()),
      args);
  if (!(duration > 0.0)) usage_error("serve", "--duration must be > 0");
  if (!g.finish("serve", given)) return 2;
  svc::KvService service(g.cfg);
  svc::UdpKvServer server(&service, static_cast<std::uint16_t>(port));
  if (!server.ok()) {
    std::fprintf(stderr, "gossiplab serve: cannot bind 127.0.0.1:%llu\n",
                 (unsigned long long)port);
    return 1;
  }
  const svc::ReplicaGroupConfig& group = g.cfg.group;
  std::printf("serving on 127.0.0.1:%u (%s n=%zu f=%zu seed=%llu)\n",
              (unsigned)server.port(), to_string(group.algorithm), group.n,
              group.f, (unsigned long long)group.seed);
  std::fflush(stdout);
  std::this_thread::sleep_for(std::chrono::duration<double>(duration));
  server.stop();
  service.stop();
  const svc::KvServiceStats stats = service.stats();
  std::printf("served %llu requests (%llu malformed datagrams dropped)\n",
              (unsigned long long)server.requests(),
              (unsigned long long)server.malformed());
  std::printf(
      "  committed   %llu over %llu slots (%llu unavailable, %llu stalled, "
      "max batch %llu)\n",
      (unsigned long long)stats.committed, (unsigned long long)stats.slots,
      (unsigned long long)stats.slots_unavailable,
      (unsigned long long)stats.slots_stalled,
      (unsigned long long)stats.max_batch);
  std::printf("  consensus   %llu msgs, %llu bytes, %llu ticks\n",
              (unsigned long long)stats.consensus_messages,
              (unsigned long long)stats.consensus_bytes,
              (unsigned long long)stats.consensus_ticks);
  BenchCaseRow row;
  row.name = std::string("serve/") + to_string(group.algorithm) +
             "/n:" + std::to_string(group.n) +
             "/seed:" + std::to_string(group.seed);
  row.counters = {{"requests", (double)server.requests()},
                  {"malformed", (double)server.malformed()},
                  {"unavailable", (double)stats.unavailable}};
  append_service_counters(stats, &row.counters);
  return write_bench_report(json_path, "serve", std::move(row));
}

int cmd_loadgen(const Args& args) {
  GroupFlags g;
  svc::LoadgenConfig lc;
  std::string target, obs_path, json_path;
  std::uint64_t port = 0;
  double duration = 0.0;
  const Given given = parse_flags(
      "loadgen",
      "drive an open-loop workload (request k due at k/rate seconds; never\n"
      "paced by responses) and report commit-latency percentiles and\n"
      "throughput; exit 1 when any request went unacked or unavailable.\n"
      "The replica-group flags (--alg to --log) apply to --target inproc",
      join({Flag("target", &target, nullptr,
                 "inproc: own service in-process (the >= 1M soak\n"
                 "path); udp: a running `gossiplab serve`")
                .one_of({"inproc", "udp"})
                .needed(),
            Flag("port", &port, nullptr,
                 "UDP target port on 127.0.0.1 (needed by --target udp)")
                .in(1, 65535),
            Flag("rate", &lc.rate, "0", "requests/second; 0 = unpaced").in(0),
            {"duration", &duration, nullptr,
             "with --rate: issue for X seconds (requests = rate *\n"
             "duration)"},
            {"requests", &lc.requests, nullptr,
             "total requests (instead of --rate + --duration)"},
            Flag("keys", &lc.keys, "1024", "key space size").in(1),
            // Tokens are capped at 4096 printable bytes and a request
            // datagram must fit the 8 KiB receive buffer with headroom for
            // the other fields.
            Flag("value-bytes", &lc.value_bytes, "16", "value payload size")
                .in(1, 4000),
            Flag("clients", &lc.clients, "4", "logical clients").in(1),
            Flag("get-frac", &lc.get_fraction, "0.4", "share of gets")
                .in(0, 1),
            Flag("cas-frac", &lc.cas_fraction, "0.1",
                 "share of compare-and-sets; the rest are puts")
                .in(0, 1),
            {"obs", &obs_path, nullptr,
             "stream observations (svc-obs-v1) to PATH for\n"
             "`gossiplab histcheck`"},
            Flag("drain-timeout", &lc.drain_timeout_s, "5",
                 "udp: grace in seconds for trailing responses")
                .in(0),
            {"json", &json_path, nullptr,
             "write an asyncgossip-bench-v1 report (suite\n"
             "\"loadgen\")"}},
           g.rows()),
      args);
  if (given.count("requests") == 0)
    lc.requests = static_cast<std::uint64_t>(lc.rate * duration);
  if (lc.requests == 0)
    usage_error("loadgen", "need --requests K, or --rate R with --duration S");
  if (lc.get_fraction + lc.cas_fraction > 1.0)
    usage_error("loadgen", "--get-frac + --cas-frac must be <= 1");
  if (target == "udp" && given.count("port") == 0)
    usage_error("loadgen", "--target udp needs --port");
  lc.seed = g.cfg.group.seed;
  std::ofstream obs_file;
  if (!obs_path.empty()) {
    if (!open_file(obs_path, &obs_file)) return 2;
    lc.obs_out = &obs_file;
  }

  svc::LoadgenReport report;
  svc::KvServiceStats stats;
  bool have_stats = false;
  if (target == "udp") {
    lc.udp_port = static_cast<std::uint16_t>(port);
    report = svc::run_loadgen(lc);
  } else {
    if (!g.finish("loadgen", given)) return 2;
    svc::KvService service(g.cfg);
    lc.inproc = &service;
    report = svc::run_loadgen(lc);
    service.stop();
    stats = service.stats();
    have_stats = true;
  }

  std::printf("loadgen %s: %llu attempted, %llu acked, %llu unavailable, "
              "%llu unacked -> %s\n",
              target.c_str(), (unsigned long long)report.attempted,
              (unsigned long long)report.acked,
              (unsigned long long)report.unavailable,
              (unsigned long long)report.unacked,
              report.complete ? "complete" : "INCOMPLETE");
  std::printf(
      "  commit latency  p50 %.3f ms  p95 %.3f ms  p99 %.3f ms  max %.3f ms\n",
      (double)report.p50_us / 1000.0, (double)report.p95_us / 1000.0,
      (double)report.p99_us / 1000.0, (double)report.max_us / 1000.0);
  std::printf("  throughput      %.1f acked/s over %.1f ms\n",
              report.achieved_rate, report.wall_ms);
  if (have_stats)
    std::printf(
        "  service         %llu slots (%llu unavailable, %llu stalled), "
        "max batch %llu\n",
        (unsigned long long)stats.slots,
        (unsigned long long)stats.slots_unavailable,
        (unsigned long long)stats.slots_stalled,
        (unsigned long long)stats.max_batch);

  BenchCaseRow row;
  row.name = "loadgen/" + target + "/seed:" + std::to_string(lc.seed);
  row.counters = {
      {"attempted", (double)report.attempted},
      {"acked", (double)report.acked},
      {"unavailable", (double)report.unavailable},
      {"unacked", (double)report.unacked},
      {"complete", report.complete ? 1.0 : 0.0},
      {"p50_us", (double)report.p50_us},
      {"p95_us", (double)report.p95_us},
      {"p99_us", (double)report.p99_us},
      {"max_us", (double)report.max_us},
      {"achieved_rate", report.achieved_rate},
      {"wall_ms", report.wall_ms},
  };
  if (have_stats) append_service_counters(stats, &row.counters);
  if (const int rc = write_bench_report(json_path, "loadgen", std::move(row)))
    return rc;
  return report.complete ? 0 : 1;
}

int cmd_histcheck(const Args& args) {
  std::string log_path, obs_path;
  parse_flags(
      "histcheck",
      "check a committed log (svc-log-v1) against a client observation\n"
      "stream (svc-obs-v1): dense sequencing, replay-consistent results\n"
      "(no stale reads / lost CAS), acked observations present in the log\n"
      "field-for-field, per-client session order, and no trace of\n"
      "unavailable-acked requests\n"
      "exit status: 0 history checks out, 1 violation found, 2 unreadable",
      {Flag("log", &log_path, nullptr, "committed log (serve/loadgen --log)")
           .needed(),
       Flag("obs", &obs_path, nullptr, "observation stream (loadgen --obs)")
           .needed()},
      args);
  std::ifstream log_is, obs_is;
  if (!open_file(log_path, &log_is) || !open_file(obs_path, &obs_is))
    return 2;
  std::vector<svc::CommittedEntry> log;
  std::vector<svc::Observation> observations;
  std::string error;
  if (!svc::read_log(log_is, &log, &error)) {
    std::fprintf(stderr, "%s: %s\n", log_path.c_str(), error.c_str());
    return 2;
  }
  if (!svc::read_observations(obs_is, &observations, &error)) {
    std::fprintf(stderr, "%s: %s\n", obs_path.c_str(), error.c_str());
    return 2;
  }
  const svc::HistoryReport report = svc::check_history(log, observations);
  std::printf("histcheck: %zu log entries, %zu observations (%zu acked "
              "cross-checked, %zu unavailable)\n",
              report.entries, report.observations, report.acked,
              report.unavailable);
  if (!report.ok) {
    std::printf("FAILED: %s\n", report.error.c_str());
    return 1;
  }
  std::printf("ok: committed history is consistent\n");
  return 0;
}

struct Subcommand {
  const char* name;
  int (*run)(const Args&);
};

constexpr Subcommand kSubcommands[] = {
    {"gossip", cmd_gossip},       {"sweep", cmd_sweep},
    {"consensus", cmd_consensus}, {"lowerbound", cmd_lowerbound},
    {"trace", cmd_trace},         {"report", cmd_report},
    {"rt", cmd_rt},               {"spans", cmd_spans},
    {"fuzz", cmd_fuzz},           {"replay", cmd_replay},
    {"statcheck", cmd_statcheck}, {"serve", cmd_serve},
    {"loadgen", cmd_loadgen},     {"histcheck", cmd_histcheck},
};

void usage() {
  std::string names;
  for (const Subcommand& c : kSubcommands)
    names += (names.empty() ? "" : "|") + std::string(c.name);
  std::fprintf(stderr,
               "usage: gossiplab <%s> [--flag value ...]\n"
               "run `gossiplab <subcommand> --help` for flags, or see the\n"
               "tools/gossiplab.cpp header for examples\n",
               names.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "help") {
    usage();
    return 0;
  }
  // Install the cr-* consensus palette entries and the ConsensusPayload wire
  // codec up front: multi-process `rt --transport udp` workers re-exec this
  // binary, so registration here covers coordinator and workers alike.
  register_consensus_algorithms();
  svc::register_consensus_wire();
  try {
    for (const Subcommand& c : kSubcommands)
      if (cmd == c.name) return c.run(Args(argv + 2, argv + argc));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gossiplab: %s\n", e.what());
    return 3;
  }
  std::fprintf(stderr, "unknown subcommand: %s\n", cmd.c_str());
  usage();
  return 2;
}
