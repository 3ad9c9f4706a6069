// RealtimeDriver: runs the gossip algorithms, unmodified, over real threads.
//
// One thread per process runs the shared real-time step (rt/step.h)
// against an InProcessTransport (rt/transport.h), paced by a TickClock
// (rt/clock.h) so model time is real time; the thread adds only the
// completion monitor's accounting and the optional flight ring. The
// algorithms see the exact StepContext interface the simulator hands them
// — same code, byte for byte — while delivery order and scheduling
// interleaving come from the OS instead of an adversary object. The
// multi-process driver (rt/multiproc.h) runs the same step, so raw message
// ids (pid << 40 | k) and the recording cap are the same in both.
//
// The central design decision: the paper's bounds d and delta are
// *realized per execution* and unknown to the algorithms (Section 2 —
// partial synchrony in the unknown-bounds sense of Dwork-Lynch-Stockmeyer).
// A wall-clock run cannot promise a delivery or scheduling bound up front
// (the OS may preempt any thread indefinitely), but it does not need to:
// the driver records every event, then reports the bounds the execution
// actually exhibited. spec.d / spec.delta act as *targets* — delay draws
// are uniform on [1, d] ticks plus fault spikes, step pacing aims at gaps
// in [1, delta] ticks — and the recorded trace carries the realized
// maxima, under which it is a conforming execution by construction:
// tracecheck and the InvariantAuditor accept it with zero tolerance, same
// as a simulator trace (tests/test_rt.cpp holds this for every algorithm,
// with and without injected faults).
//
// What stays guaranteed vs. the simulator, and what becomes best-effort,
// is laid out in docs/RUNTIME.md.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/flight_recorder.h"
#include "gossip/harness.h"
#include "rt/fault.h"
#include "rt/udp_transport.h"
#include "sim/audit.h"
#include "sim/span_export.h"
#include "sim/trace.h"

namespace asyncgossip {

class TelemetryCollector;
struct TelemetryConfig;

/// Which Transport implementation the threaded driver runs over.
/// kInProcess is the mutex-guarded inbox; kUdp hosts all n endpoints of a
/// UdpTransport in-process (loopback sockets), which is how the fault shim
/// and the conformance suite exercise real datagrams deterministically.
/// The separate-OS-process deployment is rt/multiproc.h.
enum class RtTransportKind : std::uint8_t { kInProcess, kUdp };

const char* to_string(RtTransportKind kind);
bool rt_transport_from_string(const std::string& name, RtTransportKind* out);

struct RtConfig {
  /// Algorithm, n, f, seed and knobs. d and delta are the *target* bounds
  /// (delay-draw range and pacing aim), not promises; the run reports what
  /// it realized. spec.max_steps (0 = automatic) bounds the run in ticks.
  GossipSpec spec;
  /// Wall-clock length of one model tick.
  std::uint64_t tick_us = 200;
  RtInject inject = RtInject::kNone;
  /// Transport backend (see RtTransportKind above).
  RtTransportKind transport = RtTransportKind::kInProcess;
  /// Seeded loss/duplication/reordering at the socket boundary; only
  /// meaningful with the kUdp backend. The realized bounds absorb every
  /// retransmit delay, so faulted runs still audit clean.
  UdpWireFaults wire_faults;
  /// Cap on recorded events plus probe reports, split evenly: each process
  /// keeps at most max_events / spec.n records, in either driver. Overflow
  /// is counted in RtRunResult::events_dropped (and leaves the trace a
  /// prefix of the run, unauditable).
  std::size_t max_events = 1 << 20;
  /// Flight recorder (common/flight_recorder.h): when true, every worker
  /// thread records causal send→deliver spans and profiling zones into its
  /// own lock-free ring; the merged records land in RtRunResult::flight.
  /// Off by default — the disabled cost is one branch per site.
  bool flight = false;
  /// Per-thread ring capacity in records (rounded up to a power of two).
  /// A full ring overwrites its oldest records; losses are counted in
  /// RtRunResult::flight_dropped, never silent.
  std::size_t flight_capacity = 1 << 14;
  /// Live stats: when > 0 a snapshot thread emits one
  /// "asyncgossip-stats-v1" NDJSON line to *stats_out every interval (plus
  /// a final line at shutdown). stats_out must be non-null to enable and
  /// must outlive the run; the snapshot thread is its only writer.
  std::uint64_t stats_interval_ms = 0;
  std::ostream* stats_out = nullptr;
};

/// End-of-run summary, mirroring GossipOutcome where the fields coincide.
struct RtOutcome {
  /// Quiet state (network drained, every process crashed-or-quiescent)
  /// reached within the tick budget.
  bool completed = false;
  /// Tick of the last message send + 1 (0 if nothing was sent).
  Time completion_time = 0;
  /// One past the last recorded event tick: the trace horizon, as passed
  /// to InvariantAuditor::finalize.
  Time end_time = 0;
  std::uint64_t steps = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t deliveries = 0;
  /// The bounds this execution actually exhibited (see file comment).
  Time realized_d = 1;
  Time realized_delta = 1;
  std::size_t alive = 0;
  std::size_t crashes = 0;
  bool gathering_ok = false;
  bool majority_ok = false;
  double wall_ms = 0.0;
};

/// One StepContext probe report captured during the run.
struct RtProbeRecord {
  bool is_phase = false;
  Time time = 0;
  ProcessId process = kNoProcess;
  const char* phase = nullptr;  // static literal per the probe contract
  std::uint64_t rumors_known = 0;
  std::uint64_t rumors_fully_informed = 0;
};

struct RtRunResult {
  RtOutcome outcome;
  /// Merged event log: time-ordered, message ids renumbered to be strictly
  /// monotone in send order — a valid trace-format-v1 stream.
  std::vector<TraceRecorder::Event> events;
  /// Probe reports, time-ordered.
  std::vector<RtProbeRecord> probes;
  std::size_t events_dropped = 0;
  /// Flight records merged wall-clock-ordered across all rings (empty
  /// unless config.flight).
  std::vector<FlightRecord> flight;
  /// Total records the workers pushed into the rings.
  std::uint64_t flight_pushed = 0;
  /// Records lost to ring overwriting (exact, counted during the drain).
  std::uint64_t flight_dropped = 0;
  /// Wall time spent draining and merging the rings after the run ended —
  /// the recorder's post-run cost. The in-run cost is what the bench gate's
  /// recorder-on vs recorder-off case bounds (tools/bench_gate.py).
  double recorder_overhead_ms = 0.0;
  /// Per-process final notes (GossipProcess::final_note), size n. Empty
  /// strings for algorithms without one; consensus runs carry their
  /// decision verdict here (consensus/cr_gossip.h parses them).
  std::vector<std::string> notes;
  /// Post-join crash snapshot, size n — which processes the injector
  /// crashed. Pairs with `notes` for verdicts that must skip crashed
  /// processes.
  std::vector<bool> crashed;
};

/// Executes the run and returns the merged record. Thread count is
/// spec.n + 1 (one per process plus the completion monitor).
RtRunResult run_realtime(const RtConfig& config);

/// TelemetryConfig sized for the run's *realized* bounds, so the latency
/// histogram provably has no overflow bucket hits on a conforming record.
TelemetryConfig rt_telemetry_config(const RtConfig& config,
                                    const RtRunResult& result);

/// Replays the recorded events and probes, time-ordered, into `collector`
/// (same data path as a live simulator run) and finalize()s it.
void feed_telemetry(const RtRunResult& result, TelemetryCollector* collector);

/// Writes the trace-format-v1 artifact; the model line carries the
/// realized bounds, under which the record is a conforming execution.
void write_rt_trace(std::ostream& os, const RtConfig& config,
                    const RtRunResult& result);

/// Offline audit of the record with the realized bounds — the same checker
/// tools/tracecheck applies to the written artifact.
ViolationReport audit_rt_run(const RtConfig& config, const RtRunResult& result);

/// Flight-log header for the run (sim/span_export.h): the realized bounds
/// plus the run's tick length, so `gossiplab spans` can put wall latencies
/// next to the realized d+delta budget.
FlightLogHeader rt_flight_header(const RtConfig& config,
                                 const RtRunResult& result);

}  // namespace asyncgossip
