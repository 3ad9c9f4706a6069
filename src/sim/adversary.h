// Adversary interface: the entity that controls scheduling, crashes and
// message delays.
//
// The paper distinguishes two adversary classes:
//  * an *oblivious* adversary fixes the schedule and failure pattern in
//    advance — see ObliviousAdversary in sim/oblivious.h, which never
//    receives an EngineView and therefore cannot react to the algorithm;
//  * an *adaptive* adversary reacts to the execution, including the
//    processes' random choices — it receives a full EngineView and may fork
//    process state to probe distributions (see src/lowerbound).
#pragma once

#include <memory>
#include <vector>

#include "common/function_ref.h"
#include "sim/message.h"
#include "sim/metrics.h"
#include "sim/process.h"
#include "sim/types.h"

namespace asyncgossip {

class Engine;

/// Read access to the full execution state, granted to adaptive adversaries
/// (and to analysis/monitor code). Obliviousness is enforced structurally:
/// oblivious adversaries never see this type.
class EngineView {
 public:
  explicit EngineView(const Engine& engine) : engine_(&engine) {}

  std::size_t n() const;
  Time now() const;
  bool crashed(ProcessId p) const;
  std::size_t alive_count() const;
  std::size_t crash_budget_left() const;
  const Process& process(ProcessId p) const;
  const Metrics& metrics() const;
  std::size_t in_flight_count() const;
  /// In-flight messages destined to p, in send order. Materializes a copy;
  /// prefer for_each_pending / pending_count when a copy is not needed.
  std::vector<Envelope> pending_for(ProcessId p) const;
  /// Number of in-flight messages destined to p.
  std::size_t pending_count(ProcessId p) const;
  /// Visits every in-flight message destined to p without copying. `fn`
  /// returns true to keep iterating, false to stop early. Visit order is
  /// deterministic for a fixed execution but is not send order.
  void for_each_pending(ProcessId p,
                        FunctionRef<bool(const Envelope&)> fn) const;
  /// Local step count taken by p so far.
  std::uint64_t local_steps_of(ProcessId p) const;
  /// Deep copy of a process (state + RNG): the adaptive adversary's
  /// world-forking primitive.
  std::unique_ptr<Process> fork_process(ProcessId p) const;

 private:
  const Engine* engine_;
};

/// Per-time-step adversarial decision.
struct StepDecision {
  /// Processes that crash at the start of this step (before stepping).
  /// The engine enforces the global budget of at most f crashes.
  std::vector<ProcessId> crash;
  /// Processes scheduled to take a local step. The engine additionally
  /// force-schedules any live process whose delta deadline has arrived, so
  /// the model contract holds regardless of the adversary.
  std::vector<ProcessId> schedule;
};

class Adversary {
 public:
  virtual ~Adversary() = default;

  /// Called once at the start of every global time step.
  virtual StepDecision decide(Time now, const EngineView& view) = 0;

  /// What the engine calls: decide()'s result written into `out`, a
  /// decision the engine reuses across steps. Overriding it to refill
  /// `out` in place keeps the step loop from allocating.
  virtual void decide_into(Time now, const EngineView& view,
                           StepDecision& out) {
    out = decide(now, view);
  }

  /// Called when a message is sent; returns the delay (in steps) before the
  /// message becomes deliverable. The engine clamps the result into
  /// [1, d], so no adversary can violate the execution's delivery bound.
  virtual Time message_delay(const Envelope& env, const EngineView& view) = 0;
};

}  // namespace asyncgossip
