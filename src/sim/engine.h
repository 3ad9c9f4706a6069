// The discrete-time simulation engine for the paper's system model.
//
// Model recap (Section "System Model" of the paper): time proceeds in
// discrete steps; at every step the adversary picks an arbitrary subset of
// processes to take a local step and may crash processes (at most f in
// total). In each local step a process receives a subset of its pending
// messages, computes, and sends messages. For a given execution, d is the
// maximum delivery time and delta the maximum scheduling gap. The engine
// *enforces* both bounds: a pending message older than d is force-delivered
// at the receiver's next step, and a live process is force-scheduled when
// its delta deadline arrives. In strict mode the engine instead throws
// ModelViolation if the adversary's raw decision would breach a bound,
// which the test suite uses to validate adversary implementations.
//
// Mailbox representation (the hot path): in-flight messages live in a
// per-destination timing wheel — a ring of W = d + delta + 1 buckets where
// a message with delivery deadline t sits in bucket t % W. When a process
// steps at time `now`, exactly the buckets for slot times (last step, now]
// are due, and *everything* in them is deliverable. W is sized so that due
// and future messages can never share a bucket: pending deadlines span at
// most (last step, now + d] and the engine's delta enforcement keeps
// now - last step <= delta, so the span is < W (see docs/PERFORMANCE.md
// for the proof sketch). Since the data-oriented core, a bucket is an
// 8-byte slab-chain header into the EnvelopeArena, which stores each
// envelope as one packed 32-byte record (sim/envelope_arena.h), and
// payloads are interned in its PayloadPool, so steady-state send/deliver
// allocates nothing and moves no shared_ptr.
// Buckets hold envelopes in send order and due buckets are merged back
// into global send order by message id, which keeps delivery order — and
// therefore trace_hash and all Metrics — bit-identical to the historical
// single-deque-per-destination implementation.
//
// Sharded stepping (EngineConfig::jobs > 1): one step's schedule is
// partitioned across a persistent worker pool. Each due process is stepped
// against the frozen pre-step snapshot — legal because a message sent at
// `now` has deliver_after >= now + 1, which is never a due slot for any
// process stepping at `now`, and crashes apply only at step start — with
// all results captured in per-slot buffers. A serial merge then replays
// every side effect (metrics, observers, probes, flight spans, trace hash,
// message-id assignment, wheel inserts) in exact schedule order, so the
// execution is bit-identical to the serial engine for every jobs value.
// The one caveat: an *adaptive* adversary whose message_delay inspects the
// pending mailboxes of other processes mid-step would observe merge-order
// state; the oblivious adversaries every harness run uses never look, and
// the lower-bound drivers run with jobs = 1 (the default).
#pragma once

#include <memory>
#include <vector>

#include "common/assert.h"
#include "common/flight_recorder.h"
#include "common/function_ref.h"
#include "sim/adversary.h"
#include "sim/envelope_arena.h"
#include "sim/message.h"
#include "sim/metrics.h"
#include "sim/observer.h"
#include "sim/probe.h"
#include "sim/process.h"
#include "sim/shard_pool.h"
#include "sim/types.h"

namespace asyncgossip {

struct EngineConfig {
  /// Delivery bound d >= 1 enforced for this execution.
  Time d = 1;
  /// Scheduling bound delta >= 1 enforced for this execution.
  Time delta = 1;
  /// Crash budget f (0 <= f < n enforced at construction).
  std::size_t max_crashes = 0;
  /// If true, adversary decisions that would violate d/delta/f raise
  /// ModelViolation instead of being corrected.
  bool strict = false;
  /// Worker threads for sharded intra-run stepping: 1 = serial (default),
  /// 0 = hardware concurrency, k = exactly k. Execution output (trace
  /// hash, Metrics, telemetry, flight spans) is bit-identical for every
  /// value; see the sharding notes above.
  std::size_t jobs = 1;
};

class Engine {
 public:
  Engine(std::vector<std::unique_ptr<Process>> processes,
         std::unique_ptr<Adversary> adversary, EngineConfig config);

  /// Starts a new execution at time 0 under `config`: drops every message
  /// in flight and resets time, crashes, mailboxes, metrics, message ids
  /// and the trace hash, exactly as construction does (the constructor
  /// calls this). Buffers, the envelope arena's slabs and the worker pool
  /// are kept, so a run on a restarted engine allocates little. The
  /// processes and the adversary are not touched: the owner restarts them
  /// first (ConsensusProcess::restart, ObliviousAdversary::restart).
  /// Observers, the probe sink and the flight ring stay attached.
  void restart(const EngineConfig& config);

  /// Advances exactly `steps` global time steps.
  void run(Time steps);

  /// Runs until `done(*this)` returns true (checked after every step) or
  /// `max_steps` elapse. Returns true iff the predicate fired.
  bool run_until(FunctionRef<bool(const Engine&)> done, Time max_steps);

  // --- observers ----------------------------------------------------------
  std::size_t n() const { return processes_.size(); }
  Time now() const { return now_; }
  const EngineConfig& config() const { return config_; }
  const Metrics& metrics() const { return metrics_; }
  bool crashed(ProcessId p) const { return crashed_[p]; }
  std::size_t alive_count() const { return alive_count_; }
  std::size_t crashes_so_far() const { return crashes_; }
  const Process& process(ProcessId p) const { return *processes_[p]; }

  /// Typed accessor for algorithm-specific inspection in tests/benches.
  template <typename T>
  const T& process_as(ProcessId p) const {
    const T* t = checked_cast<T>(processes_[p].get());
    AG_ASSERT_MSG(t != nullptr, "process type mismatch");
    return *t;
  }

  std::size_t in_flight_count() const { return in_flight_total_; }
  bool network_empty() const { return in_flight_total_ == 0; }
  /// In-flight messages destined to p, in send order, with owning payload
  /// references (callers may retain them past the next step). Materializes
  /// a copy via the same k-way chain merge the delivery path uses; prefer
  /// for_each_pending / pending_count when a copy is not needed.
  std::vector<Envelope> pending_for(ProcessId p) const;
  std::size_t pending_count(ProcessId p) const { return pending_count_[p]; }
  /// Visits every in-flight message destined to p without copying. `fn`
  /// returns true to keep iterating, false to stop early. The Envelope is
  /// a borrowed view valid only during the callback. Visit order is
  /// deterministic for a fixed execution but is *not* send order (messages
  /// come out wheel-bucket by wheel-bucket); use pending_for when order
  /// matters.
  void for_each_pending(ProcessId p,
                        FunctionRef<bool(const Envelope&)> fn) const;
  std::uint64_t local_steps_of(ProcessId p) const { return local_steps_[p]; }
  std::unique_ptr<Process> fork_process(ProcessId p) const {
    return processes_[p]->clone();
  }

  /// FNV-1a hash over the full delivery/send trace; equal seeds must yield
  /// equal hashes (determinism test).
  std::uint64_t trace_hash() const { return trace_hash_; }

  /// Arena/payload-pool counters (sim/envelope_arena.h): the bench suite
  /// reports slab_allocations as its allocation tripwire — once the arena
  /// reaches the execution's standing in-flight volume it must stop
  /// growing. The counters run on across restart().
  ArenaStats arena_stats() const {
    ArenaStats st = arena_.stats();
    st.payloads_interned = payloads_.interned_total();
    st.payload_pool_live = payloads_.live();
    st.payload_pool_peak = payloads_.peak();
    return st;
  }

  /// Replaces all attached observers with `observer` (nullptr detaches
  /// everything). Observation is strictly read-only and never alters the
  /// execution.
  void set_observer(EngineObserver* observer) {
    observers_.clear();
    if (observer != nullptr) observers_.push_back(observer);
  }

  /// Attaches an additional passive observer alongside any already present
  /// (the auditor and the telemetry collector routinely coexist). Events
  /// fan out to observers in attachment order.
  void add_observer(EngineObserver* observer) {
    if (observer != nullptr) observers_.push_back(observer);
  }

  /// Attaches the sink that receives StepContext::probe_* reports from
  /// algorithm code (nullptr detaches). Like observers, sinks are strictly
  /// read-only with respect to the execution.
  void set_probe_sink(ProbeSink* sink) { probe_sink_ = sink; }

  /// Attaches a flight-recorder ring (common/flight_recorder.h): causal
  /// send/deliver spans plus hot-path profiling zones are recorded into it
  /// (nullptr detaches — the default; disabled cost is one branch per
  /// site). Recording never perturbs the execution: trace_hash, Metrics and
  /// telemetry are bit-identical with the ring attached or not. With
  /// jobs > 1, spans are still recorded (serially, at the merge) but the
  /// per-step profiling zones are skipped inside worker threads — the ring
  /// is single-producer.
  void set_flight_ring(FlightRing* ring) { flight_ = ring; }

 private:
  class RecordingProbeSink;

  /// One probe_* call captured during a worker-phase step, replayed into
  /// the real sink at the merge. `phase` is the static string literal of a
  /// probe_phase call, or nullptr for a probe_state record.
  struct ProbeRecord {
    const char* phase = nullptr;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
  };

  /// Per-scheduled-process capture buffers for one step. Reused across
  /// steps (capacity persists); contents are valid between run_slot and
  /// merge_slot only.
  struct SlotResult {
    std::vector<Envelope> delivered;
    std::vector<EnvelopeArena::Bucket> drained;
    std::vector<EnvelopeArena::Cursor> cursors;
    std::vector<StepContext::Outgoing> outbox;
    std::vector<ProbeRecord> probes;
  };

  void advance_one_step();
  void apply_crashes(const std::vector<ProcessId>& crash_list);
  /// Fills schedule_scratch_ with the corrected schedule and returns it.
  const std::vector<ProcessId>& effective_schedule(
      const std::vector<ProcessId>& proposed);
  /// Snapshot phase for one scheduled process: drains p's due buckets into
  /// send-order delivery views, runs the process step, and captures every
  /// output in `slot`. Mutates only p-owned state (p's bucket headers, the
  /// process object) — safe to run concurrently for distinct p. `ring` is
  /// the flight ring for profiling zones, or nullptr when running on a
  /// worker thread (zones are engine-thread-only).
  void run_slot(ProcessId p, SlotResult& slot, FlightRing* ring);
  /// Serial phase for one scheduled process: replays metrics, observers,
  /// probes, flight records and the trace hash in schedule order, assigns
  /// message ids, inserts sends into the wheel and recycles drained slabs.
  void merge_slot(ProcessId p, SlotResult& slot);
  /// Turns a step's outbox into arena entries in the destination wheel
  /// buckets. Safe under simultaneous-step semantics: a message sent at
  /// `now` has deliver_after >= now + 1, which is never a due slot
  /// (<= now) for any process stepping at `now`, so nothing can be relayed
  /// within the step it was sent; and crashes apply only at step start, so
  /// crashed_ is stable across the whole step. Consumes the payloads but
  /// leaves `out` itself to the caller for reuse.
  void dispatch_sends(ProcessId from, std::vector<StepContext::Outgoing>& out);
  void hash_mix(std::uint64_t v);
  /// Drops the pool reference of every entry in `b`'s chain and returns
  /// its slabs to the arena free list.
  void release_chain(EnvelopeArena::Bucket& b);

  EnvelopeArena::Bucket& bucket(ProcessId p, Time slot_time) {
    return wheel_[p * wheel_width_ + static_cast<std::size_t>(
                                         slot_time % wheel_width_)];
  }
  const EnvelopeArena::Bucket& bucket(ProcessId p, Time slot_time) const {
    return wheel_[p * wheel_width_ + static_cast<std::size_t>(
                                         slot_time % wheel_width_)];
  }

  EngineConfig config_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::unique_ptr<Adversary> adversary_;
  Metrics metrics_;

  Time now_ = 0;
  std::vector<bool> crashed_;
  std::size_t alive_count_ = 0;
  std::size_t crashes_ = 0;

  // Timing-wheel mailboxes: wheel_[p * wheel_width_ + t % wheel_width_] is
  // the slab chain of messages destined to p whose delivery deadline is t,
  // in send order. pending_count_[p] tracks p's total across its buckets.
  std::size_t wheel_width_ = 0;
  std::vector<EnvelopeArena::Bucket> wheel_;
  EnvelopeArena arena_;
  PayloadPool payloads_;
  std::vector<std::size_t> pending_count_;

  std::size_t in_flight_total_ = 0;
  std::vector<Time> last_step_time_;
  std::vector<bool> stepped_once_;
  std::vector<std::uint64_t> local_steps_;
  MessageId next_message_id_ = 0;
  static constexpr std::uint64_t kTraceHashSeed = 0xcbf29ce484222325ULL;
  std::uint64_t trace_hash_ = kTraceHashSeed;
  std::vector<EngineObserver*> observers_;
  ProbeSink* probe_sink_ = nullptr;
  FlightRing* flight_ = nullptr;

  // Sharded stepping (see file comment). jobs_ is the resolved worker
  // count; the pool spins up lazily on the first parallel step.
  std::size_t jobs_ = 1;
  std::unique_ptr<ShardPool> pool_;
  std::vector<SlotResult> slots_;

  // Reusable per-step scratch buffers (hot path: no steady-state
  // allocation). Contents are only valid between fill and use within one
  // advance_one_step; capacity persists across steps.
  StepDecision decision_;
  std::vector<std::uint8_t> want_scratch_;
  std::vector<ProcessId> schedule_scratch_;
};

}  // namespace asyncgossip
