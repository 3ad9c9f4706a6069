// Workload sim-table1: a fixed list of Table 1 gossip specs, run serially
// on one thread through the simulator's public seam (make_gossip_engine +
// run_gossip).
//
// The specs and their seeds are pinned, so every run does identical work:
// the paper's two measures (messages, time steps) repeat exactly and each
// run's trace hash is checked against the pinned table below. --seed only
// permutes the order the specs run in. --seconds sets how many passes over
// the list a run makes; each timing is the lowest over the passes
// (README.md, "Noise").
//
// The traced run adds, per spec, one undecorated run with spans around
// make_gossip_engine and run_gossip (the sim layer) and one run whose
// processes are wrapped in TimedGossipProcess (the gossip layer's step
// time). Both must reproduce the pinned trace hash.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "gossip/harness.h"
#include "gossip/rumor.h"
#include "sim/oblivious.h"

namespace perfbench {
namespace {

using asyncgossip::DelayPattern;
using asyncgossip::Engine;
using asyncgossip::GossipAlgorithm;
using asyncgossip::GossipOutcome;
using asyncgossip::GossipProcess;
using asyncgossip::GossipSpec;
using asyncgossip::Process;
using asyncgossip::SchedulePattern;
using asyncgossip::Time;

/// One Table 1 row shape; each runs once per seed in kSeeds.
struct Row {
  GossipAlgorithm algorithm;
  std::size_t n;
  Time d;
  Time delta;
  SchedulePattern schedule;
};

// Lock-step d = delta = 1 rows and slow-network d >> delta rows, with n per
// algorithm sized so each algorithm takes a comparable share of a pass
// (about 20 ms each on a 4-core x86 VM; a pass is ~75 ms). EARS and SEARS
// are bound by their Theta(n^2)-bit informed-list merges, tears and trivial
// by the engine. The sizes are small on purpose: a pass must be short
// against the host's speed swings (see README.md, "Noise"), and small
// working sets stay in the per-core caches.
constexpr Row kRows[] = {
    {GossipAlgorithm::kEars, 64, 1, 1, SchedulePattern::kLockStep},
    {GossipAlgorithm::kEars, 56, 16, 4, SchedulePattern::kStaggered},
    {GossipAlgorithm::kSears, 48, 1, 1, SchedulePattern::kLockStep},
    {GossipAlgorithm::kSears, 40, 16, 4, SchedulePattern::kStaggered},
    {GossipAlgorithm::kTears, 160, 1, 1, SchedulePattern::kLockStep},
    {GossipAlgorithm::kTears, 72, 16, 4, SchedulePattern::kStaggered},
    {GossipAlgorithm::kTrivial, 256, 1, 1, SchedulePattern::kLockStep},
    {GossipAlgorithm::kTrivial, 192, 16, 4, SchedulePattern::kStaggered},
};
constexpr std::uint64_t kSeeds[] = {101, 202};
constexpr std::size_t kSpecs = std::size(kRows) * std::size(kSeeds);

/// Nominal pass time on the reference box: --seconds / this = passes.
constexpr double kNominalPassSeconds = 0.1;

/// Pinned results of spec i of the canonical list (row-major over kRows x
/// kSeeds). Regenerate with `perfbench --print-pins` when an intended
/// algorithm or engine change moves them.
struct Pin {
  std::uint64_t trace_hash;
  std::uint64_t messages;
  std::uint64_t time_steps;
};
constexpr Pin kPins[kSpecs] = {
#include "sim_table1_pins.inc"
};

GossipSpec make_spec(const Row& row, std::uint64_t seed) {
  GossipSpec spec;
  spec.algorithm = row.algorithm;
  spec.n = row.n;
  spec.f = row.n / 4;
  spec.d = row.d;
  spec.delta = row.delta;
  spec.schedule = row.schedule;
  spec.delay = DelayPattern::kUniform;
  spec.seed = seed;
  spec.sears_epsilon = 0.5;
  spec.engine_jobs = 1;  // pinned: never inherit AG_ENGINE_JOBS
  return spec;
}

struct Entry {
  std::size_t index;  // position in the canonical list (kPins)
  GossipSpec spec;
};

/// The canonical list: row-major over kRows x kSeeds, the order of kPins.
std::vector<Entry> canonical_list() {
  std::vector<Entry> list;
  for (const Row& row : kRows)
    for (const std::uint64_t s : kSeeds)
      list.push_back({list.size(), make_spec(row, s)});
  return list;
}

/// The canonical list in a seed-derived order.
std::vector<Entry> spec_list(std::uint64_t seed) {
  std::vector<Entry> list = canonical_list();
  asyncgossip::Xoshiro256SS rng(seed ^ 0x7AB1E1ULL);
  for (std::size_t i = list.size(); i > 1; --i)
    std::swap(list[i - 1], list[rng.uniform(i)]);
  return list;
}

Time budget(const GossipSpec& spec) {
  return spec.max_steps != 0 ? spec.max_steps
                             : asyncgossip::default_step_budget(spec);
}

/// Gossip-layer step timer shared by the decorated processes of one run.
struct StepTimer {
  std::uint64_t ns = 0;
  std::uint64_t steps = 0;
};

/// Decorator that times step() and passes everything else through to the
/// wrapped process, so a decorated run is the same execution.
class TimedGossipProcess final : public GossipProcess {
 public:
  TimedGossipProcess(std::unique_ptr<Process> inner, StepTimer* timer)
      : inner_(std::move(inner)),
        gossip_(dynamic_cast<GossipProcess*>(inner_.get())),
        timer_(timer) {}

  void step(asyncgossip::StepContext& ctx) override {
    const std::uint64_t t0 = now_ns();
    inner_->step(ctx);
    timer_->ns += now_ns() - t0;
    ++timer_->steps;
  }
  std::unique_ptr<Process> clone() const override {
    return std::make_unique<TimedGossipProcess>(inner_->clone(), timer_);
  }
  void reseed(std::uint64_t seed) override { inner_->reseed(seed); }
  const asyncgossip::DynamicBitset& rumors() const override {
    return gossip_->rumors();
  }
  bool quiescent() const override { return gossip_->quiescent(); }
  std::uint64_t local_steps() const override { return gossip_->local_steps(); }
  std::string final_note() const override { return gossip_->final_note(); }

 private:
  std::unique_ptr<Process> inner_;
  GossipProcess* gossip_;
  StepTimer* timer_;
};

/// make_gossip_engine with every process wrapped in TimedGossipProcess.
/// The adversary is built exactly as gossip/harness.cpp builds it; the
/// pinned trace hash check catches any drift between the two.
Engine make_decorated_engine(const GossipSpec& spec, StepTimer* timer) {
  std::vector<std::unique_ptr<Process>> procs;
  for (auto& p : asyncgossip::make_gossip_processes(spec))
    procs.push_back(std::make_unique<TimedGossipProcess>(std::move(p), timer));
  asyncgossip::ObliviousConfig adv;
  adv.n = spec.n;
  adv.d = spec.d;
  adv.delta = spec.delta;
  adv.schedule = spec.schedule;
  adv.delay = spec.delay;
  adv.crash_plan = asyncgossip::random_crashes(
      spec.n, spec.f, spec.crash_horizon, spec.seed ^ 0xF417ULL);
  adv.seed = spec.seed ^ 0xAD7E25A27ULL;
  asyncgossip::EngineConfig ecfg;
  ecfg.d = spec.d;
  ecfg.delta = spec.delta;
  ecfg.max_crashes = spec.f;
  ecfg.jobs = spec.engine_jobs;
  return Engine(std::move(procs),
                std::make_unique<asyncgossip::ObliviousAdversary>(adv), ecfg);
}

/// Checks one run against its contract and its pin; records any failure.
/// Returns true when the run passed.
bool check_run(const Entry& e, const GossipOutcome& out, std::uint64_t hash,
               const char* what, Report& rep) {
  const std::string label = asyncgossip::spec_label(e.spec) + "/seed:" +
                            std::to_string(e.spec.seed) + " (" + what + ")";
  const Pin& pin = kPins[e.index];
  std::string why;
  if (!out.completed) why = "did not complete";
  else if (asyncgossip::gossip_requires_gathering(e.spec) && !out.gathering_ok)
    why = "broke its gathering contract";
  else if (asyncgossip::gossip_requires_majority(e.spec) && !out.majority_ok)
    why = "broke its majority contract";
  else if (hash != pin.trace_hash) why = "trace hash differs from the pin";
  else if (out.messages != pin.messages) why = "messages differ from the pin";
  else if (out.completion_time != pin.time_steps)
    why = "time steps differ from the pin";
  if (why.empty()) return true;
  rep.fail(label + ": " + why);
  return false;
}

struct PassTotals {
  double seconds = 0;
  std::uint64_t messages = 0;
  std::uint64_t time_steps = 0;
  std::vector<double> run_ms;  // per spec, in run order
};

/// One untraced pass over the list.
PassTotals run_pass(const std::vector<Entry>& list, Report& rep) {
  PassTotals totals;
  const std::uint64_t pass_start = now_ns();
  for (const Entry& e : list) {
    const std::uint64_t t0 = now_ns();
    Engine engine = asyncgossip::make_gossip_engine(e.spec);
    const GossipOutcome out = asyncgossip::run_gossip(engine, budget(e.spec));
    totals.run_ms.push_back(ns_to_ms(static_cast<double>(now_ns() - t0)));
    ++rep.attempted;
    check_run(e, out, engine.trace_hash(), "untraced", rep);
    totals.messages += out.messages;
    totals.time_steps += out.completion_time;
  }
  totals.seconds = static_cast<double>(now_ns() - pass_start) / 1e9;
  return totals;
}

/// One traced pass: per spec an undecorated run with sim-layer spans, then
/// a decorated run timing the gossip layer. Returns the pass span id.
std::uint32_t run_traced_pass(const std::vector<Entry>& list, Report& rep,
                              Tracer& tracer) {
  const std::uint32_t pass = tracer.begin("sim.pass");
  for (const Entry& e : list) {
    const std::string alg = asyncgossip::to_string(e.spec.algorithm);
    const std::uint32_t build = tracer.begin("sim.build", pass, alg);
    Engine engine = asyncgossip::make_gossip_engine(e.spec);
    tracer.end(build);
    const std::uint32_t run = tracer.begin("sim.run", pass, alg);
    const GossipOutcome out = asyncgossip::run_gossip(engine, budget(e.spec));
    tracer.end(run);
    const asyncgossip::ArenaStats arena = engine.arena_stats();
    tracer.attr(run, "envelopes",
                static_cast<double>(engine.metrics().messages_sent()));
    tracer.attr(run, "local_steps",
                static_cast<double>(engine.metrics().local_steps()));
    tracer.attr(run, "slab_allocs", static_cast<double>(arena.slab_allocations));
    tracer.attr(run, "slab_reuses", static_cast<double>(arena.slab_reuses));
    tracer.attr(run, "payload_pool_peak",
                static_cast<double>(arena.payload_pool_peak));
    ++rep.attempted;
    check_run(e, out, engine.trace_hash(), "traced", rep);

    StepTimer timer;
    const std::uint32_t dec = tracer.begin("gossip.run", pass, alg);
    Engine decorated = make_decorated_engine(e.spec, &timer);
    const GossipOutcome dout =
        asyncgossip::run_gossip(decorated, budget(e.spec));
    tracer.end(dec);
    tracer.attr(dec, "step_ns", static_cast<double>(timer.ns));
    tracer.attr(dec, "steps", static_cast<double>(timer.steps));
    ++rep.attempted;
    if (check_run(e, dout, decorated.trace_hash(), "decorated", rep) &&
        timer.steps != decorated.metrics().local_steps())
      rep.fail("decorator saw " + std::to_string(timer.steps) +
               " steps, engine counted " +
               std::to_string(decorated.metrics().local_steps()));
  }
  tracer.end(pass);
  return pass;
}

/// Warm-up, part of set-up: one pass over the list, results discarded.
void warm_up(const std::vector<Entry>& list) {
  for (const Entry& e : list) {
    Engine engine = asyncgossip::make_gossip_engine(e.spec);
    asyncgossip::run_gossip(engine, budget(e.spec));
  }
}

std::size_t pass_count(const Options& opts) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(opts.seconds) /
                                      kNominalPassSeconds +
                                  0.5));
}

void report_totals(const std::vector<PassTotals>& passes, Report& rep) {
  for (const PassTotals& p : passes)
    if (p.messages != passes.front().messages ||
        p.time_steps != passes.front().time_steps)
      rep.fail("pass totals differ between passes");
  rep.exact.emplace_back("messages", passes.front().messages);
  rep.exact.emplace_back("time_steps", passes.front().time_steps);
}

/// Per-pass sum of a span attribute (or, for key == nullptr, of the span
/// durations in ms) over the children of `pass` named `name`.
double pass_sum(const Tracer& tracer, std::uint32_t pass, const char* name,
                const char* key, const std::string& label = {}) {
  double sum = 0;
  for (const Span* s : tracer.find(name, label))
    if (s->parent == pass) sum += key == nullptr ? s->ms() : s->attr(key);
  return sum;
}

}  // namespace

Report run_sim_table1(const Options& opts, std::uint64_t process_start_ns,
                      Tracer& tracer) {
  Report rep;
  std::vector<double> setup_s;
  const auto setup = [&] {
    std::vector<Entry> l = spec_list(opts.seed);
    warm_up(l);
    return l;
  };
  const std::vector<Entry> list =
      timed_setup(process_start_ns, &setup_s, setup);
  const std::size_t passes = pass_count(opts);

  if (!opts.trace) {
    // Timings per pass (and per set-up); each is reported as its lowest
    // over the run (README.md, "Noise").
    std::vector<PassTotals> totals;
    std::vector<double> pass_s, p50, p99;
    for (std::size_t p = 0; p < passes; ++p) {
      totals.push_back(run_pass(list, rep));
      pass_s.push_back(totals.back().seconds);
      p50.push_back(quantile(totals.back().run_ms, 0.50));
      p99.push_back(quantile(totals.back().run_ms, 0.99));
      for (std::size_t s = setups_after(p, passes); s > 0; --s)
        timed_setup(now_ns(), &setup_s, setup);
    }
    report_totals(totals, rep);
    const double sweep_s = *std::min_element(pass_s.begin(), pass_s.end());
    report_setup(setup_s, rep);
    rep.metric("sweep_s", sweep_s, "s");
    rep.metric("messages", static_cast<double>(totals.front().messages),
               "count");
    rep.metric("time_steps", static_cast<double>(totals.front().time_steps),
               "count");
    rep.metric("commits_per_s", static_cast<double>(list.size()) / sweep_s,
               "1/s");
    rep.metric("p50_ms", *std::min_element(p50.begin(), p50.end()), "ms");
    rep.metric("p99_ms", *std::min_element(p99.begin(), p99.end()), "ms");
    return rep;
  }

  // Traced run: half the passes untraced (the overhead baseline), half
  // traced; every per-layer number is the median over the traced passes.
  const std::size_t half = std::max<std::size_t>(1, passes / 2);
  std::vector<PassTotals> totals;
  std::vector<double> plain_pass_ms, traced_pass_ms;
  for (std::size_t p = 0; p < half; ++p) {
    totals.push_back(run_pass(list, rep));
    plain_pass_ms.push_back(totals.back().seconds * 1e3);
  }
  report_totals(totals, rep);
  std::map<std::string, std::vector<double>> per_pass;
  const char* const algs[] = {"ears", "sears", "tears", "trivial"};
  for (std::size_t p = 0; p < half; ++p) {
    const std::uint32_t pass = run_traced_pass(list, rep, tracer);
    const double run = pass_sum(tracer, pass, "sim.run", nullptr);
    const double step_ms = pass_sum(tracer, pass, "gossip.run", "step_ns") / 1e6;
    const double envelopes = pass_sum(tracer, pass, "sim.run", "envelopes");
    per_pass["sim.build_ms"].push_back(
        pass_sum(tracer, pass, "sim.build", nullptr));
    per_pass["sim.run_ms"].push_back(run);
    for (const char* alg : algs)
      per_pass[std::string("sim.run_ms.") + alg].push_back(
          pass_sum(tracer, pass, "sim.run", nullptr, alg));
    per_pass["sim.self_ms"].push_back(run - step_ms);
    per_pass["sim.ns_per_envelope"].push_back(run * 1e6 / envelopes);
    per_pass["sim.envelopes"].push_back(envelopes);
    for (const char* key : {"local_steps", "slab_allocs", "slab_reuses"})
      per_pass[std::string("sim.") + key].push_back(
          pass_sum(tracer, pass, "sim.run", key));
    double pool_peak = 0;
    for (const Span* s : tracer.find("sim.run"))
      if (s->parent == pass)
        pool_peak = std::max(pool_peak, s->attr("payload_pool_peak"));
    per_pass["sim.payload_pool_peak"].push_back(pool_peak);
    per_pass["gossip.step_ms"].push_back(step_ms);
    per_pass["gossip.steps"].push_back(
        pass_sum(tracer, pass, "gossip.run", "steps"));
    traced_pass_ms.push_back(pass_sum(tracer, pass, "gossip.run", nullptr));
  }
  for (const auto& [name, values] : per_pass)
    rep.metric(name, median(values), "");
  // Overhead: the fastest decorated pass against the fastest untraced one.
  rep.metric("trace.overhead_pct",
             100.0 * (*std::min_element(traced_pass_ms.begin(),
                                        traced_pass_ms.end()) /
                          *std::min_element(plain_pass_ms.begin(),
                                            plain_pass_ms.end()) -
                      1.0),
             "%");
  return rep;
}

int print_sim_table1_pins() {
  std::printf("// Generated by `perfbench --print-pins`: trace hash, messages, "
              "time steps.\n");
  for (const Entry& e : canonical_list()) {
    const std::uint64_t t0 = now_ns();
    Engine engine = asyncgossip::make_gossip_engine(e.spec);
    const GossipOutcome out = asyncgossip::run_gossip(engine, budget(e.spec));
    std::fprintf(stderr, "%8.1f ms  %s\n",
                 ns_to_ms(static_cast<double>(now_ns() - t0)),
                 asyncgossip::spec_label(e.spec).c_str());
    std::printf("{0x%016llxULL, %llu, %llu},  // %s/seed:%llu%s\n",
                static_cast<unsigned long long>(engine.trace_hash()),
                static_cast<unsigned long long>(out.messages),
                static_cast<unsigned long long>(out.completion_time),
                asyncgossip::spec_label(e.spec).c_str(),
                static_cast<unsigned long long>(e.spec.seed),
                out.completed ? "" : " INCOMPLETE");
  }
  return 0;
}

}  // namespace perfbench
