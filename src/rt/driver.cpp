#include "rt/driver.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <thread>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/bitset.h"
#include "common/flight_recorder.h"
#include "common/thread_annotations.h"
#include "gossip/completion.h"
#include "gossip/rumor.h"
#include "rt/clock.h"
#include "rt/merge.h"
#include "rt/step.h"
#include "rt/transport.h"
#include "sim/fuzz.h"
#include "sim/telemetry.h"

namespace asyncgossip {

namespace {

/// Shared run status the completion monitor polls. One mutex for all of it:
/// the hot path takes it a handful of times per step, and steps are paced
/// in hundreds of microseconds, so contention is irrelevant next to
/// correctness (the quiet predicate must see one consistent snapshot).
/// Guarded members are initialized in the constructor, where the analysis
/// knows the object is not yet shared; afterwards every access is
/// statically required to hold `mu` (-Wthread-safety under clang).
struct SharedState {
  explicit SharedState(std::size_t n)
      : stepping(n, 0), quiescent(n, 0), crashed(n, 0), step_counts(n, 0) {}

  Mutex mu;
  std::vector<std::uint8_t> stepping AG_GUARDED_BY(mu);
  std::vector<std::uint8_t> quiescent AG_GUARDED_BY(mu);
  std::vector<std::uint8_t> crashed AG_GUARDED_BY(mu);
  std::size_t undelivered AG_GUARDED_BY(mu) = 0;
  // Live-stats counters (read by the snapshot thread; incremented inside
  // locked sections the workers already take, so the stats cost nothing
  // extra on the hot path).
  std::vector<std::uint64_t> step_counts AG_GUARDED_BY(mu);
  std::uint64_t sends AG_GUARDED_BY(mu) = 0;
  std::uint64_t deliveries AG_GUARDED_BY(mu) = 0;
};

}  // namespace

const char* to_string(RtTransportKind kind) {
  switch (kind) {
    case RtTransportKind::kInProcess:
      return "inproc";
    case RtTransportKind::kUdp:
      return "udp";
  }
  return "?";
}

bool rt_transport_from_string(const std::string& name, RtTransportKind* out) {
  if (name == "inproc") {
    *out = RtTransportKind::kInProcess;
    return true;
  }
  if (name == "udp") {
    *out = RtTransportKind::kUdp;
    return true;
  }
  return false;
}

RtRunResult run_realtime(const RtConfig& config) {
  const GossipSpec& spec = config.spec;
  AG_ASSERT_MSG(spec.n > 0, "rt run needs at least one process");
  AG_ASSERT_MSG(spec.f < spec.n, "crash budget must leave a live process");

  const auto n = spec.n;
  const Time budget =
      spec.max_steps != 0 ? spec.max_steps : default_step_budget(spec);

  auto processes = make_gossip_processes(spec);
  std::unique_ptr<Transport> transport_owner;
  if (config.transport == RtTransportKind::kUdp) {
    UdpTransportConfig tc;
    tc.n = n;
    tc.faults = config.wire_faults;
    transport_owner = std::make_unique<UdpTransport>(std::move(tc));
  } else {
    transport_owner = std::make_unique<InProcessTransport>(n);
  }
  Transport& transport = *transport_owner;
  const FaultInjector faults(
      make_fault_plan(config.inject, n, spec.f, spec.crash_horizon, spec.seed),
      spec.d, spec.delta);

  std::vector<RtProcessLog> logs(n);
  SharedState state(n);
  std::atomic<bool> done{false};
  const TickClock clock(config.tick_us);
  const Stopwatch wall;
  FlightRecorder recorder(config.flight ? n : 0, config.flight_capacity);

  const auto worker = [&](ProcessId p) {
    auto* gp = dynamic_cast<GossipProcess*>(processes[p].get());
    AG_ASSERT_MSG(gp != nullptr, "rt runtime requires GossipProcess instances");
    FlightRing* const ring = config.flight ? recorder.ring(p) : nullptr;
    // Raising `undelivered` before the submits keeps the quiet predicate
    // sound: a receiver may drain (and count down) a message at once.
    RtStepper stepper(config, p, *gp, faults, transport, &logs[p], ring,
                      [&](std::size_t sending) {
                        const MutexLock lock(&state.mu);
                        state.undelivered += sending;
                        state.sends += sending;
                      });

    while (!done.load(std::memory_order_acquire)) {
      const Time target = stepper.next_target();
      {
        const FlightZone zone(ring, FlightZoneId::kPacingSleep, p, target);
        clock.sleep_until_tick(target);
      }
      {
        const MutexLock lock(&state.mu);
        state.stepping[p] = 1;
        ++state.step_counts[p];
      }
      const RtStepResult r = stepper.step(clock.now_tick());
      const MutexLock lock(&state.mu);
      state.undelivered -= r.delivered + r.refused + r.discarded;
      state.deliveries += r.delivered;
      state.stepping[p] = 0;
      if (r.crashed) {
        state.crashed[p] = 1;
        return;
      }
      state.quiescent[p] = gp->quiescent() ? 1 : 0;
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (ProcessId p = 0; p < n; ++p) threads.emplace_back(worker, p);

  // Live-stats snapshot thread: one "asyncgossip-stats-v1" NDJSON line per
  // interval plus a final one at shutdown, so even sub-interval runs emit a
  // snapshot. This thread is the stream's only writer; everything it reads
  // is either under state.mu or a relaxed atomic gauge.
  std::thread stats_thread;
  if (config.stats_interval_ms > 0 && config.stats_out != nullptr) {
    stats_thread = std::thread([&] {
      std::ostream& out = *config.stats_out;
      double last_ms = 0.0;
      double last_emit_ms = 0.0;
      std::uint64_t last_sends = 0;
      const auto emit = [&] {
        std::size_t in_flight = 0;
        std::uint64_t sends = 0;
        std::uint64_t deliveries = 0;
        std::size_t crashed = 0;
        std::vector<std::uint64_t> steps;
        {
          const MutexLock lock(&state.mu);
          in_flight = state.undelivered;
          sends = state.sends;
          deliveries = state.deliveries;
          steps = state.step_counts;
          for (ProcessId p = 0; p < n; ++p) crashed += state.crashed[p] != 0;
        }
        const double now_ms = wall.elapsed_ms();
        const double dt_s = (now_ms - last_ms) / 1000.0;
        const double rate =
            dt_s > 0.0 ? static_cast<double>(sends - last_sends) / dt_s : 0.0;
        last_ms = now_ms;
        last_sends = sends;
        std::uint64_t steps_total = 0;
        for (std::uint64_t s : steps) steps_total += s;
        out << "{\"schema\": \"asyncgossip-stats-v1\", \"wall_ms\": "
            << now_ms << ", \"tick\": " << clock.now_tick()
            << ", \"in_flight\": " << in_flight
            << ", \"steps\": " << steps_total << ", \"sends\": " << sends
            << ", \"deliveries\": " << deliveries
            << ", \"envelopes_per_sec\": " << rate
            << ", \"crashed\": " << crashed << ", \"recorder_pushed\": "
            << recorder.pushed_total() << ", \"recorder_dropped\": "
            << recorder.dropped_total() << ", \"per_process_steps\": [";
        for (ProcessId p = 0; p < n; ++p)
          out << (p == 0 ? "" : ", ") << steps[p];
        out << "]}\n";
        out.flush();
      };
      const double interval_ms =
          static_cast<double>(config.stats_interval_ms);
      while (!done.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (wall.elapsed_ms() - last_emit_ms >= interval_ms) {
          last_emit_ms = wall.elapsed_ms();
          emit();
        }
      }
      emit();
    });
  }

  // Completion monitor: the quiet predicate [network drained AND every
  // process crashed-or-quiescent AND nobody mid-step] is stable — only a
  // stepping process can create messages, quiescent processes send nothing
  // absent receipts, and there are none left to receive.
  bool completed = false;
  while (true) {
    std::this_thread::sleep_for(std::chrono::microseconds(config.tick_us));
    // Socket-transport upkeep from the monitor thread: retransmit unacked
    // frames (including on behalf of crashed workers, whose threads have
    // returned) and pump closed inboxes so in-flight envelopes settle.
    transport.service(clock.now_tick());
    const std::size_t reaped = transport.reap_discarded();
    if (reaped != 0) {
      const MutexLock lock(&state.mu);
      state.undelivered -= reaped;
    }
    {
      const MutexLock lock(&state.mu);
      bool quiet = state.undelivered == 0;
      for (ProcessId p = 0; quiet && p < n; ++p) {
        if (state.crashed[p]) continue;
        if (state.stepping[p] || !state.quiescent[p]) quiet = false;
      }
      completed = quiet;
    }
    if (completed || clock.now_tick() >= budget) break;
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  if (stats_thread.joinable()) stats_thread.join();
  const double wall_ms = wall.elapsed_ms();

  // join() established happens-before with every worker, but the static
  // analysis (rightly) cannot see that: snapshot the guarded state once,
  // under the lock, and do all post-run accounting from the copy.
  std::vector<std::uint8_t> crashed_final;
  {
    const MutexLock lock(&state.mu);
    crashed_final = state.crashed;
  }

  // --- merge the per-thread records into one time-ordered trace ----------
  RtRunResult result;
  result.outcome.completed = completed;
  result.outcome.wall_ms = wall_ms;
  if (config.flight) {
    // Post-run recorder cost: drain + wall-clock merge of the rings. The
    // workers have joined, so the consumer side runs uncontended.
    const Stopwatch drain_watch;
    recorder.drain(&result.flight);
    result.flight_pushed = recorder.pushed_total();
    result.flight_dropped = recorder.dropped_total();
    result.recorder_overhead_ms = drain_watch.elapsed_ms();
  }
  // Merge, renumbering, realized bounds and outcome counters: shared with
  // the multi-process driver (rt/merge.h).
  merge_rt_logs(n, std::move(logs), crashed_final, &result);
  RtOutcome& oc = result.outcome;

  // --- gossip property checks (from the locked post-join snapshot) -------
  std::vector<const DynamicBitset*> rumors(n, nullptr);
  for (ProcessId p = 0; p < n; ++p)
    if (crashed_final[p] == 0)
      rumors[p] = &dynamic_cast<const GossipProcess&>(*processes[p]).rumors();
  const GossipVerdict verdict = judge_rumors(rumors);
  oc.gathering_ok = verdict.gathering_ok;
  oc.majority_ok = verdict.majority_ok;
  result.notes.resize(n);
  result.crashed.resize(n);
  for (ProcessId p = 0; p < n; ++p) {
    const auto& gp = dynamic_cast<const GossipProcess&>(*processes[p]);
    result.notes[p] = gp.final_note();
    result.crashed[p] = crashed_final[p] != 0;
  }
  return result;
}

TelemetryConfig rt_telemetry_config(const RtConfig& config,
                                    const RtRunResult& result) {
  TelemetryConfig tc;
  tc.n = config.spec.n;
  tc.d = result.outcome.realized_d;
  tc.delta = result.outcome.realized_delta;
  return tc;
}

void feed_telemetry(const RtRunResult& result, TelemetryCollector* collector) {
  std::size_t ei = 0;
  std::size_t pi = 0;
  while (ei < result.events.size() || pi < result.probes.size()) {
    // Probes fire mid-step, before the step's sends; at equal ticks they
    // go first so a crashing process's last report lands before its crash.
    const bool take_probe =
        pi < result.probes.size() &&
        (ei >= result.events.size() ||
         result.probes[pi].time <= result.events[ei].time);
    if (take_probe) {
      const RtProbeRecord& r = result.probes[pi++];
      if (r.is_phase)
        collector->on_phase(r.time, r.process, r.phase);
      else
        collector->on_state(r.time, r.process, r.rumors_known,
                            r.rumors_fully_informed);
    } else {
      replay_event(result.events[ei++], collector);
    }
  }
  collector->finalize(result.outcome.end_time);
}

void write_rt_trace(std::ostream& os, const RtConfig& config,
                    const RtRunResult& result) {
  write_trace_v1(os, result.events, config.spec.n, result.outcome.realized_d,
                 result.outcome.realized_delta, config.spec.f,
                 result.events_dropped);
}

FlightLogHeader rt_flight_header(const RtConfig& config,
                                 const RtRunResult& result) {
  FlightLogHeader h;
  h.n = config.spec.n;
  h.tick_us = config.tick_us;
  h.realized_d = result.outcome.realized_d;
  h.realized_delta = result.outcome.realized_delta;
  h.dropped = result.flight_dropped;
  return h;
}

ViolationReport audit_rt_run(const RtConfig& config,
                             const RtRunResult& result) {
  AuditConfig ac;
  ac.n = config.spec.n;
  ac.d = result.outcome.realized_d;
  ac.delta = result.outcome.realized_delta;
  ac.max_crashes = config.spec.f;
  return audit_events(result.events, ac, /*finalize=*/true);
}

}  // namespace asyncgossip
