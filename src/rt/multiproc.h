// Multi-process real-time driver: one OS process per gossip process.
//
// `gossiplab rt --transport udp` re-execs its own binary n times; each
// worker hosts exactly one UdpTransport endpoint and runs the shared step
// (rt/step.h) that the threaded driver's workers run — same rng
// derivation, same fault plan (make_fault_plan is pure in its inputs, so
// every worker computes the identical crash schedule locally), same
// StepContext, same per-process recording cap — so all eight algorithms
// run unmodified across process boundaries. The worker adds only its
// status counters and the servicing of its endpoint after a crash.
//
// Coordination runs over the same loopback sockets as the data plane,
// with dedicated control frames (rt/wire.h). The protocol tolerates
// datagram loss by repetition; every phase transition is confirmed by a
// frame from the other side:
//
//   worker                         coordinator
//   ------                         -----------
//   Hello{pid}  (repeat)  ------>  learns pid -> data port (src addr)
//               <------  PeerTable + Start  (repeat, once all n joined)
//   step loop; Status{counters} (periodic)  ------>
//               ... coordinator declares the run quiet when two
//                   consecutive status sweeps agree: every worker
//                   quiescent-or-crashed, sends == deliveries +
//                   discarded, and the counter vectors unchanged ...
//               <------  Shutdown (repeat)
//   writes trace file, Bye{pid}  ------>  waitpid, parse, merge
//
// Each worker writes its record as a trace-format-v1 event stream plus
// `#`-prefixed metadata lines (counters, final rumor set, probe reports);
// the coordinator parses the files and feeds merge_rt_logs (rt/merge.h) —
// the same merge, renumbering and realized-bounds computation the
// threaded driver uses, so the merged artifact obeys the same auditor
// contract. Raw message ids come from the shared step (pid << 40 | local
// counter): unique across processes, not dense — exactly what the merge's
// renumbering accepts.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rt/driver.h"

namespace asyncgossip {

struct MultiprocConfig {
  /// Run parameters; rt.transport is ignored (this driver is UDP by
  /// definition) and rt.flight / rt.stats_* are unsupported here.
  RtConfig rt;
  /// Path of the binary to re-exec as workers; empty = /proc/self/exe.
  std::string exe_path;
  /// Argument vector tail reproducing the run spec (flag round-trip built
  /// by the CLI); the coordinator appends --worker / --coord-port /
  /// --trace-out per worker.
  std::vector<std::string> worker_args;
  /// Directory for worker trace files; empty = a fresh temp directory,
  /// removed after the merge unless keep_files.
  std::string work_dir;
  bool keep_files = false;
};

struct MultiprocResult {
  RtRunResult run;
  /// All n workers spawned, joined the handshake, and exited zero.
  bool workers_ok = false;
  /// One line per protocol failure (spawn error, handshake timeout,
  /// missing trace file, nonzero exit), for the CLI to print.
  std::vector<std::string> errors;
  /// Backing store for RtProbeRecord::phase pointers parsed from worker
  /// files (the record type carries `const char*` per the probe contract).
  std::vector<std::unique_ptr<std::string>> phase_pool;
};

/// Coordinator: spawns the workers, drives the handshake and quiet
/// detection, merges the worker records. Blocks until the run settles or
/// times out; outcome.completed reflects quiet detection AND clean worker
/// exits.
MultiprocResult run_realtime_udp(const MultiprocConfig& config);

/// Worker entry point (dispatched by the CLI on --worker). Runs gossip
/// process `worker` of config.spec over a single-endpoint UdpTransport,
/// writes the trace file, returns the process exit code (0 = clean).
int run_rt_udp_worker(const RtConfig& config, ProcessId worker,
                      std::uint16_t coord_port, const std::string& trace_out);

}  // namespace asyncgossip
