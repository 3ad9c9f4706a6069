// The process abstraction: an asynchronous, crash-prone state machine.
//
// A local step follows the paper's model exactly: the process (1) receives
// some subset of the messages sent to it (chosen by the adversary within the
// delivery bound d), (2) performs local computation, and (3) sends zero or
// more messages. Processes never see global time; they can only count their
// own local steps.
//
// Processes must be deep-copyable via clone(): the Theorem 1 adaptive
// adversary forks a process (state *and* RNG) to sample the distribution of
// its future sends without disturbing the real execution.
#pragma once

#include <memory>
#include <vector>

#include "sim/message.h"
#include "sim/probe.h"
#include "sim/types.h"

namespace asyncgossip {

/// Handed to a process for the duration of one local step.
class StepContext {
 public:
  struct Outgoing {
    ProcessId to;
    PayloadPtr payload;
  };

  StepContext(ProcessId self, std::size_t n, std::uint64_t local_step,
              const std::vector<Envelope>& received)
      : self_(self), n_(n), local_step_(local_step), received_(received),
        outbox_(&own_outbox_) {}

  /// Engine-side overload: sends go into `outbox`, a caller-owned buffer
  /// that must arrive empty and outlive the context. Lets the engine reuse
  /// one buffer across proc-steps instead of allocating per step. In such
  /// an outbox a fan-out is stored as a run (see send), which the engine's
  /// dispatch understands.
  StepContext(ProcessId self, std::size_t n, std::uint64_t local_step,
              const std::vector<Envelope>& received,
              std::vector<Outgoing>& outbox)
      : self_(self), n_(n), local_step_(local_step), received_(received),
        outbox_(&outbox), fanout_runs_(true) {}

  StepContext(const StepContext&) = delete;
  StepContext& operator=(const StepContext&) = delete;

  ProcessId self() const { return self_; }
  std::size_t n() const { return n_; }

  /// How many local steps this process has taken before this one. This is
  /// the only "clock" a process may consult.
  std::uint64_t local_step() const { return local_step_; }

  /// Messages delivered at the start of this step.
  const std::vector<Envelope>& received() const { return received_; }

  /// Queues a point-to-point message; the engine takes ownership of the
  /// batch when the step ends. Sending to self is allowed and is counted.
  ///
  /// In an engine outbox, a send of the payload the previous entry already
  /// carries (a fan-out loop) stores a non-owning alias: the run's first
  /// entry keeps the payload alive for as long as the outbox holds the
  /// run, so the other destinations skip the atomic reference count.
  void send(ProcessId to, PayloadPtr&& payload) {
    if (!extend_run(to, payload.get()))
      outbox_->push_back(Outgoing{to, std::move(payload)});
  }
  void send(ProcessId to, const PayloadPtr& payload) {
    if (!extend_run(to, payload.get()))
      outbox_->push_back(Outgoing{to, payload});
  }
  /// A payload variable of any payload type (what fan-out loops pass).
  template <typename T>
  void send(ProcessId to, std::shared_ptr<T>& payload) {
    if (!extend_run(to, payload.get()))
      outbox_->push_back(Outgoing{to, payload});
  }

  /// Engine-side accessor; algorithm code has no reason to call this.
  std::vector<Outgoing>& outbox() { return *outbox_; }

  /// True when the simulation engine runs this step. The engine takes and
  /// drops every payload reference on its own thread (under --engine-jobs
  /// only in the serial merge, which the shard pool orders before and
  /// after each worker phase), and borrowed views live only while it holds
  /// a reference. So a payload the process kept and whose use_count() is 1
  /// is no longer read by anyone, and the process may overwrite it for a
  /// later send. The rt runtimes hand payloads to other threads, where a
  /// count of one proves nothing; there this stays false.
  bool payload_reuse_safe() const { return payload_reuse_safe_; }
  /// Engine-side: declares the guarantee above for this step.
  void allow_payload_reuse() { payload_reuse_safe_ = true; }

  // --- instrumentation probes (sim/probe.h) -------------------------------
  // No-ops unless the engine attached a sink; probing never affects the
  // execution, so algorithms keep these calls in permanently. The global
  // time forwarded to the sink stays invisible to the process itself.

  /// Announces a phase transition (pass a static string literal).
  void probe_phase(const char* phase) {
    if (probe_ != nullptr) probe_->on_phase(probe_now_, self_, phase);
  }

  /// Reports |V(p)| and the number of fully-informed rumors (0 when the
  /// algorithm keeps no informed list).
  void probe_state(std::uint64_t rumors_known,
                   std::uint64_t rumors_fully_informed) {
    if (probe_ != nullptr)
      probe_->on_state(probe_now_, self_, rumors_known, rumors_fully_informed);
  }

  /// Engine-side wiring of the probe sink; algorithm code never calls this.
  void attach_probe(ProbeSink* sink, Time now) {
    probe_ = sink;
    probe_now_ = now;
  }

 private:
  /// Appends a non-owning alias (the aliasing constructor over an empty
  /// owner) when `payload` continues the outbox's last run (see send).
  bool extend_run(ProcessId to, const Payload* payload) {
    if (!fanout_runs_ || payload == nullptr || outbox_->empty() ||
        outbox_->back().payload.get() != payload)
      return false;
    outbox_->push_back(Outgoing{to, PayloadPtr(PayloadPtr(), payload)});
    return true;
  }

  ProcessId self_;
  std::size_t n_;
  std::uint64_t local_step_;
  const std::vector<Envelope>& received_;
  std::vector<Outgoing> own_outbox_;
  std::vector<Outgoing>* outbox_;
  ProbeSink* probe_ = nullptr;
  Time probe_now_ = 0;
  bool fanout_runs_ = false;
  bool payload_reuse_safe_ = false;
};

class Process {
 public:
  virtual ~Process() = default;

  /// Executes one local step (receive / compute / send).
  virtual void step(StepContext& ctx) = 0;

  /// Deep copy, including RNG state: the clone's future behaviour under the
  /// same deliveries is identical in distribution *and* realization.
  virtual std::unique_ptr<Process> clone() const = 0;

  /// Replaces the process's random stream with a fresh one derived from
  /// `seed`, leaving all other state intact. The adaptive adversary of
  /// Theorem 1 clones a process and reseeds each clone to Monte-Carlo
  /// sample the *distribution* of the process's future sends — exactly the
  /// quantity the proof's promiscuity test is defined over (the adversary
  /// may know the algorithm and its state, but not its future coin flips).
  virtual void reseed(std::uint64_t seed) = 0;
};

}  // namespace asyncgossip
