// Workloads svc-closed and svc-open: the replicated KV service (n = 8,
// f = 3, cr-tears, batch_limit 512) driven in-process through
// KvService::submit, with the benchmark's own load generator (the gen
// layer).
//
// svc-closed: 1024 logical clients, one request outstanding each, zero
// think time. A single priming request's callback submits the first
// window; after that every submission happens on the commit thread in
// callback order, so the batch sequence (and with the pinned group seed,
// every consensus count) is identical in every run. --seconds sets the
// number of fixed-size repetitions; each timing is the lowest over them
// (README.md, "Noise").
//
// svc-open: 2 replicas crashed from the first slot, a seeded open-loop
// schedule at 5k requests/s for --seconds seconds. The generator spins to
// each due time and every latency is timed from the due time, so a late
// generator shows as latency and in gen.late_*. p50 is the fastest 0.125-s
// window's, p99 the median 0.25-s window's.
//
// Every run rebuilds the committed log from the observations (in-process,
// every request is acked, so observations sorted by seq are the log) and
// runs svc::check_history on it. The traced run replays the run's slot
// sequence through a fresh ReplicaGroup (slot i is a pure function of
// (config, i)) and the committed log through a fresh KvStore.
#include <time.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"
#include "consensus/cr_gossip.h"
#include "svc/history.h"
#include "svc/kv.h"
#include "svc/loadgen.h"
#include "svc/service.h"

namespace perfbench {
namespace {

namespace svc = asyncgossip::svc;

/// Pinned: with the group seed fixed, slot i's consensus run depends only
/// on i, so svc-closed's consensus counts repeat exactly for every --seed.
constexpr std::uint64_t kGroupSeed = 1;
constexpr std::size_t kClosedClients = 1024;
constexpr std::uint64_t kClosedRequestsPerRep = 25000;
/// Repetitions per --seconds (one repetition takes ~12 ms of service time
/// on a 4-core x86 VM). Small repetitions keep the working set in cache;
/// see README.md, "Noise".
constexpr double kClosedRepsPerSecond = 40.0;
/// Requests/s. At 20k/s the commit thread is ~70% busy, with ~1.3 commands
/// per slot, and queueing turns the host's speed swings into a p99 that
/// spread by 0.33 over 10 runs. At 5k/s a request mostly waits for one slot.
constexpr double kOpenRate = 5000.0;
/// svc-open latency windows, in requests: p50 comes from the fastest
/// 0.125-s window, p99 from the median 0.25-s window (12 samples beyond).
constexpr auto kOpenP50Window = static_cast<std::size_t>(kOpenRate / 8);
constexpr auto kOpenP99Window = static_cast<std::size_t>(kOpenRate / 4);
constexpr std::uint64_t kWarmupRequests = 100000;
/// A run that has not answered every request by then has failed.
constexpr std::uint64_t kAnswerTimeoutNs = 60'000'000'000ULL;

svc::KvServiceConfig service_config(bool crashes) {
  svc::KvServiceConfig cfg;
  cfg.group.n = 8;
  cfg.group.f = 3;
  cfg.group.algorithm = asyncgossip::GossipAlgorithm::kCrTears;
  cfg.group.seed = kGroupSeed;
  if (crashes) {
    cfg.group.inject_crashes = 2;      // <= f: the group stays available
    cfg.group.crash_horizon_slots = 1;  // both crashed from slot 1 on
  }
  cfg.batch_limit = 512;
  return cfg;
}

/// The request stream: a pure function of the seed (svc::loadgen_command).
std::vector<svc::Command> make_commands(std::uint64_t seed,
                                        std::uint64_t count) {
  svc::LoadgenConfig lc;
  lc.seed = seed;
  lc.clients = kClosedClients;
  lc.keys = 1024;
  lc.value_bytes = 8;
  std::vector<svc::Command> cmds;
  cmds.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i)
    cmds.push_back(svc::loadgen_command(lc, i));
  return cmds;
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Per-request record of one run, indexed by request number. Written by the
/// generator (submit side) and the commit thread (callbacks); read after
/// Generator::wait returned.
struct Requests {
  explicit Requests(std::size_t n)
      : results(n), submit_ns(n), done_ns(n), late_ns(n), answered(n) {}
  std::vector<svc::CommandResult> results;
  std::vector<std::uint64_t> submit_ns;
  std::vector<std::uint64_t> done_ns;
  /// How late the generator submitted the request: against its due time
  /// (open loop) or against the callback that triggered it (closed loop).
  std::vector<std::uint64_t> late_ns;
  std::vector<std::uint8_t> answered;

  /// Readies the record for another run over the same requests.
  void reset() {
    std::fill(done_ns.begin(), done_ns.end(), 0);
    std::fill(answered.begin(), answered.end(), 0);
  }
};

/// Submits requests into a KvService and records their answers. In closed
/// mode each answer submits the next request on the commit thread; the
/// first answer submits the whole client window.
class Generator {
 public:
  Generator(svc::KvService& service, const std::vector<svc::Command>& cmds,
         Requests& req, std::size_t clients)
      : service_(service), cmds_(cmds), req_(req), clients_(clients) {}
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Closed loop: submits request 0; its callback opens the window.
  void prime() {
    next_ = 1;
    req_.submit_ns[0] = now_ns();
    submit(0);
  }

  /// Open loop: submits request i at `due_ns` (spinning, not sleeping, so
  /// timer slack stays out of the latency).
  void submit_at(std::uint64_t i, std::uint64_t due_ns) {
    std::uint64_t t = now_ns();
    while (t < due_ns) t = now_ns();
    req_.submit_ns[i] = t;
    req_.late_ns[i] = t - due_ns;
    submit(i);
  }

  /// Blocks until every request is answered; false on timeout.
  bool wait() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::nanoseconds(kAnswerTimeoutNs),
                        [&] { return finished_; });
  }

  /// Stops closed-loop follow-ups (before stopping a failed run's service).
  void halt() { halted_.store(true); }

  /// CPU time the commit thread had used when the last answer arrived.
  std::uint64_t commit_cpu_ns() const { return commit_cpu_ns_; }

 private:
  void submit(std::uint64_t i) {
    service_.submit(cmds_[i],
                    [this, i](const svc::Command&,
                              const svc::CommandResult& result,
                              std::uint64_t) { on_done(i, result); });
  }

  void on_done(std::uint64_t i, const svc::CommandResult& result) {
    const std::uint64_t t = now_ns();
    req_.done_ns[i] = t;
    req_.results[i] = result;
    req_.answered[i] = 1;
    if (clients_ != 0 && !halted_.load(std::memory_order_relaxed)) {
      const std::size_t follow = i == 0 ? clients_ : 1;
      for (std::size_t k = 0; k < follow && next_ < cmds_.size(); ++k) {
        const std::uint64_t j = next_++;
        req_.submit_ns[j] = now_ns();
        req_.late_ns[j] = req_.submit_ns[j] - t;
        submit(j);
      }
    }
    if (++answered_ == cmds_.size()) {
      commit_cpu_ns_ = thread_cpu_ns();
      std::lock_guard<std::mutex> lock(mu_);
      finished_ = true;
      cv_.notify_all();
    }
  }

  svc::KvService& service_;
  const std::vector<svc::Command>& cmds_;
  Requests& req_;
  const std::size_t clients_;  // 0 = open loop
  std::uint64_t next_ = 0;     // closed loop: commit thread after prime()
  std::uint64_t answered_ = 0;       // commit thread only
  std::uint64_t commit_cpu_ns_ = 0;  // read after wait()
  std::mutex mu_;
  std::condition_variable cv_;
  bool finished_ = false;
  std::atomic<bool> halted_{false};
};

/// One service run's outputs.
struct RunResult {
  double wall_s = 0;  // first submit to last answer
  svc::KvServiceStats stats;
  std::uint64_t commit_cpu_ns = 0;
  std::vector<svc::CommittedEntry> log;
};

/// Checks every answer, rebuilds the committed log from the observations
/// (sorted by seq) and runs svc::check_history on it.
std::vector<svc::CommittedEntry> check_requests(
    const std::vector<svc::Command>& cmds, const Requests& req,
    Report& rep) {
  std::vector<svc::Observation> obs;
  obs.reserve(cmds.size());
  std::uint64_t unacked = 0, unavailable = 0;
  for (std::size_t i = 0; i < cmds.size(); ++i) {
    if (!req.answered[i]) ++unacked;
    else if (req.results[i].unavailable) ++unavailable;
    else obs.push_back({cmds[i], req.results[i]});
  }
  if (unacked != 0)
    rep.fail(std::to_string(unacked) + " requests unacked", unacked);
  if (unavailable != 0)
    rep.fail(std::to_string(unavailable) + " requests unavailable",
             unavailable);
  std::sort(obs.begin(), obs.end(),
            [](const svc::Observation& a, const svc::Observation& b) {
              return a.result.seq < b.result.seq;
            });
  std::vector<svc::CommittedEntry> log;
  log.reserve(obs.size());
  for (const svc::Observation& o : obs)
    log.push_back({o.result.seq, o.cmd, o.result.ok, o.result.found,
                   o.result.value});
  const svc::HistoryReport h = svc::check_history(log, obs);
  if (!h.ok) rep.fail("history check: " + h.error, obs.size());
  return log;
}

/// Runs the given commands through a fresh service, closed-loop with
/// `clients` clients, or open-loop at kOpenRate when clients == 0.
RunResult run_service(const svc::KvServiceConfig& cfg,
                      const std::vector<svc::Command>& cmds,
                      std::size_t clients, Requests& req, Report& rep) {
  RunResult out;
  svc::KvService service(cfg);
  Generator gen(service, cmds, req, clients);
  std::uint64_t start = 0;
  if (clients != 0) {
    start = now_ns();
    gen.prime();
  } else {
    start = now_ns() + 1'000'000;  // first request due 1 ms from now
    for (std::uint64_t i = 0; i < cmds.size(); ++i)
      gen.submit_at(i, start + static_cast<std::uint64_t>(
                                      static_cast<double>(i) * 1e9 /
                                      kOpenRate));
  }
  if (!gen.wait()) {
    gen.halt();
    rep.fail("timed out waiting for answers", 0);  // counted as unacked
  }
  const std::uint64_t last =
      *std::max_element(req.done_ns.begin(), req.done_ns.end());
  service.stop();  // joins the commit thread: no callback outlives `gen`
  out.wall_s = static_cast<double>(last - start) / 1e9;
  out.stats = service.stats();
  out.commit_cpu_ns = gen.commit_cpu_ns();
  rep.attempted += cmds.size();
  out.log = check_requests(cmds, req, rep);
  return out;
}

std::vector<double> latencies_ms(const Requests& req, std::size_t from,
                                 std::size_t to,
                                 const std::vector<std::uint64_t>& origin) {
  std::vector<double> v;
  v.reserve(to - from);
  for (std::size_t i = from; i < to; ++i)
    v.push_back(ns_to_ms(static_cast<double>(req.done_ns[i] - origin[i])));
  return v;
}

/// Warm-up, part of set-up: kWarmupRequests of the workload's requests,
/// closed-loop on throwaway services, results discarded.
void warm_up(const svc::KvServiceConfig& cfg,
             const std::vector<svc::Command>& cmds) {
  const std::vector<svc::Command> head(
      cmds.begin(),
      cmds.begin() + static_cast<std::ptrdiff_t>(
                         std::min<std::uint64_t>(kWarmupRequests, cmds.size())));
  Requests req(head.size());
  Report scratch;
  for (std::uint64_t done = 0; done < kWarmupRequests; done += head.size()) {
    req.reset();
    run_service(cfg, head, kClosedClients, req, scratch);
  }
}

/// Per-layer numbers common to both svc workloads: the consensus replay,
/// the apply replay and the batch decomposition of one measured run. The
/// run's slot sequence is replayed `replays` times through a fresh
/// ReplicaGroup (svc-closed's repetitions all run the same few slots).
void report_layers(const svc::KvServiceConfig& cfg, const RunResult& run,
                   std::size_t replays, Report& rep, Tracer& tracer) {
  const std::uint64_t slots = run.stats.slots;
  std::uint64_t replay_cpu_ns = 0;
  for (std::size_t r = 0; r < replays; ++r) {
    const std::uint32_t replay = tracer.begin("consensus.replay");
    svc::ReplicaGroup group(cfg.group);
    const std::uint64_t cpu0 = thread_cpu_ns();
    std::uint64_t messages = 0;
    asyncgossip::Time ticks = 0;
    for (std::uint64_t s = 0; s < slots; ++s) {
      const std::uint32_t id = tracer.begin("consensus.slot", replay);
      const svc::CommitOutcome o = group.commit_slot();
      tracer.end(id);
      messages += o.messages;
      ticks += o.decision_time;
    }
    replay_cpu_ns += thread_cpu_ns() - cpu0;
    tracer.end(replay);
    if (messages != run.stats.consensus_messages ||
        ticks != run.stats.consensus_ticks)
      rep.fail("consensus replay differs from the live run");
  }
  replay_cpu_ns /= replays;
  std::vector<double> slot_us;
  for (const Span* s : tracer.find("consensus.slot"))
    slot_us.push_back(s->ms() * 1e3);

  const std::uint32_t apply = tracer.begin("svc.apply");
  const std::uint64_t apply_cpu0 = thread_cpu_ns();
  svc::KvStore store;
  for (const svc::CommittedEntry& e : run.log) store.apply(e.cmd);
  const std::uint64_t apply_cpu_ns = thread_cpu_ns() - apply_cpu0;
  tracer.end(apply);
  tracer.attr(apply, "commands", static_cast<double>(run.log.size()));
  const double apply_us = tracer.find("svc.apply").back()->ms() * 1e3 /
                          static_cast<double>(slots);

  // The batch decomposition uses thread CPU time on all three sides: the
  // commit thread idles between batches in svc-open, so its wall time per
  // slot would count waiting for requests as overhead.
  const auto per_slot_us = [&](std::uint64_t ns) {
    return static_cast<double>(ns) / 1e3 / static_cast<double>(slots);
  };
  rep.metric("consensus.slot_us.p50", quantile(slot_us, 0.50), "us");
  rep.metric("consensus.slot_us.p99", quantile(slot_us, 0.99), "us");
  rep.metric("consensus.msgs_per_slot",
             static_cast<double>(run.stats.consensus_messages) /
                 static_cast<double>(slots),
             "count");
  rep.metric("consensus.ticks_per_slot",
             static_cast<double>(run.stats.consensus_ticks) /
                 static_cast<double>(slots),
             "count");
  rep.metric("svc.slots", static_cast<double>(slots), "count");
  rep.metric("svc.cmds_per_slot",
             static_cast<double>(run.stats.committed) /
                 static_cast<double>(slots),
             "count");
  rep.metric("svc.apply_us", apply_us, "us");
  rep.metric("svc.batch_overhead_us",
             per_slot_us(run.commit_cpu_ns) - per_slot_us(replay_cpu_ns) -
                 per_slot_us(apply_cpu_ns),
             "us");
}

void report_gen(const Requests& req, Report& rep) {
  std::vector<double> late;
  late.reserve(req.late_ns.size());
  for (const std::uint64_t ns : req.late_ns)
    late.push_back(ns_to_ms(static_cast<double>(ns)));
  rep.metric("gen.late_p99_ms", quantile(late, 0.99), "ms");
  rep.metric("gen.late_max_ms", *std::max_element(late.begin(), late.end()),
             "ms");
}

/// svc-closed repetitions; a traced run spends half untraced, half traced.
std::size_t closed_reps(const Options& opts) {
  const auto reps = static_cast<std::size_t>(
      static_cast<double>(opts.seconds) * kClosedRepsPerSecond + 0.5);
  return std::max<std::size_t>(1, opts.trace ? reps / 2 : reps);
}

}  // namespace

Report run_svc_closed(const Options& opts, std::uint64_t process_start_ns,
                      Tracer& tracer) {
  Report rep;
  const svc::KvServiceConfig cfg = service_config(false);
  std::vector<double> setup_s;
  const auto setup = [&] {
    std::vector<svc::Command> c =
        make_commands(opts.seed, kClosedRequestsPerRep);
    warm_up(cfg, c);
    return c;
  };
  const std::vector<svc::Command> cmds =
      timed_setup(process_start_ns, &setup_s, setup);

  // One repetition: a fresh service, the fixed request list, closed loop.
  std::vector<double> wall_s, rate, p50, p99;
  std::vector<std::uint64_t> slots, messages, ticks;
  RunResult last;
  Requests req(cmds.size());
  auto rep_once = [&](std::uint32_t parent) {
    const std::uint32_t span = tracer.begin("svc.run", parent);
    req.reset();
    last = run_service(cfg, cmds, kClosedClients, req, rep);
    tracer.end(span);
    const std::vector<double> lat = latencies_ms(req, 0, cmds.size(),
                                                 req.submit_ns);
    wall_s.push_back(last.wall_s);
    rate.push_back(static_cast<double>(last.stats.committed) / last.wall_s);
    p50.push_back(quantile(lat, 0.50));
    p99.push_back(quantile(lat, 0.99));
    slots.push_back(last.stats.slots);
    messages.push_back(last.stats.consensus_messages);
    ticks.push_back(last.stats.consensus_ticks);
  };
  auto check_counts = [&] {
    for (std::size_t i = 1; i < slots.size(); ++i)
      if (slots[i] != slots[0] || messages[i] != messages[0] ||
          ticks[i] != ticks[0])
        rep.fail("consensus counts differ between repetitions");
    rep.exact.emplace_back("svc.slots", slots.front());
    rep.exact.emplace_back("messages", messages.front());
    rep.exact.emplace_back("time_steps", ticks.front());
  };

  const std::size_t reps = closed_reps(opts);
  for (std::size_t r = 0; r < reps; ++r) {
    rep_once(0);
    if (!opts.trace)
      for (std::size_t s = setups_after(r, reps); s > 0; --s)
        timed_setup(now_ns(), &setup_s, setup);
  }
  if (!opts.trace) {
    check_counts();
    // Each timing is the lowest over the repetitions (or set-ups), except
    // p99, the median repetition's: the lowest would hide a tail that shows
    // in some repetitions only (README.md, "Noise").
    report_setup(setup_s, rep);
    rep.metric("sweep_s", *std::min_element(wall_s.begin(), wall_s.end()), "s");
    rep.metric("messages",
               static_cast<double>(messages.front()) /
                   static_cast<double>(slots.front()),
               "count");
    rep.metric("time_steps",
               static_cast<double>(ticks.front()) /
                   static_cast<double>(slots.front()),
               "count");
    rep.metric("commits_per_s", *std::max_element(rate.begin(), rate.end()),
               "1/s");
    rep.metric("p50_ms", *std::min_element(p50.begin(), p50.end()), "ms");
    rep.metric("p99_ms", median(p99), "ms");
    std::fprintf(stderr, "P99DBG %.5f %.5f %.5f %.5f\n",
                 *std::min_element(p99.begin(), p99.end()),
                 quantile(p99, 0.1), quantile(p99, 0.25), median(p99));
    return rep;
  }

  // Traced run: the repetitions above were the untraced overhead baseline;
  // as many again inside spans, then the replays of the last repetition.
  const double plain_wall = *std::min_element(wall_s.begin(), wall_s.end());
  wall_s.clear();
  const std::uint32_t traced = tracer.begin("svc.traced");
  for (std::size_t r = 0; r < reps; ++r) rep_once(traced);
  tracer.end(traced);
  check_counts();
  report_layers(cfg, last, reps, rep, tracer);
  report_gen(req, rep);
  rep.metric("trace.overhead_pct",
             100.0 * (*std::min_element(wall_s.begin(), wall_s.end()) /
                          plain_wall -
                      1.0),
             "%");
  return rep;
}

Report run_svc_open(const Options& opts, std::uint64_t process_start_ns,
                    Tracer& tracer) {
  Report rep;
  const svc::KvServiceConfig cfg = service_config(true);
  // A traced run measures half the schedule untraced, half traced.
  const std::uint64_t seconds =
      opts.trace ? std::max<std::uint64_t>(1, opts.seconds / 2) : opts.seconds;
  const auto count =
      static_cast<std::uint64_t>(kOpenRate * static_cast<double>(seconds));
  std::vector<double> setup_s;
  const auto setup = [&] {
    std::vector<svc::Command> c = make_commands(opts.seed, count);
    warm_up(cfg, c);
    return c;
  };
  const std::vector<svc::Command> cmds =
      timed_setup(process_start_ns, &setup_s, setup);

  // Latency is timed from each request's due time: submit_ns - late_ns.
  auto measure = [&](Requests& req, RunResult* run, double* p50, double* p99) {
    *run = run_service(cfg, cmds, 0, req, rep);
    std::vector<std::uint64_t> due(cmds.size());
    for (std::size_t i = 0; i < cmds.size(); ++i)
      due[i] = req.submit_ns[i] - req.late_ns[i];
    const auto per_window = [&](std::size_t size, double q) {
      std::vector<double> out;
      for (std::size_t from = 0; from < cmds.size(); from += size)
        out.push_back(quantile(
            latencies_ms(req, from, std::min(cmds.size(), from + size), due),
            q));
      return out;
    };
    const std::vector<double> w50 = per_window(kOpenP50Window, 0.50);
    *p50 = *std::min_element(w50.begin(), w50.end());
    *p99 = median(per_window(kOpenP99Window, 0.99));
  };

  Requests req(cmds.size());
  RunResult run;
  double p50 = 0, p99 = 0;
  measure(req, &run, &p50, &p99);
  if (!opts.trace) {
    // The schedule is the run's one measured repetition, so the other
    // set-ups follow it.
    for (std::size_t s = setups_after(0, 1); s > 0; --s)
      timed_setup(now_ns(), &setup_s, setup);
    report_setup(setup_s, rep);
    rep.metric("sweep_s", run.wall_s, "s");
    rep.metric("messages",
               static_cast<double>(run.stats.consensus_messages) /
                   static_cast<double>(run.stats.slots),
               "count");
    rep.metric("time_steps",
               static_cast<double>(run.stats.consensus_ticks) /
                   static_cast<double>(run.stats.slots),
               "count");
    rep.metric("commits_per_s",
               static_cast<double>(run.stats.committed) / run.wall_s, "1/s");
    rep.metric("p50_ms", p50, "ms");
    rep.metric("p99_ms", p99, "ms");
    return rep;
  }

  const double plain_p50 = p50;
  req.reset();
  const std::uint32_t traced = tracer.begin("svc.run");
  measure(req, &run, &p50, &p99);
  tracer.end(traced);
  report_layers(cfg, run, 1, rep, tracer);
  report_gen(req, rep);
  rep.metric("trace.overhead_pct", 100.0 * (p50 / plain_p50 - 1.0), "%");
  return rep;
}

}  // namespace perfbench
