// One real-time local step, shared by both rt drivers.
//
// The model has one kind of local step: a process receives a subset of its
// pending messages, computes, and sends; a process that crashes mid-step
// sends only a prefix of that step's messages. RtStepper is that step over
// a Transport, written once: the threaded driver (rt/driver.h) runs one per
// worker thread, the multi-process driver (rt/multiproc.h) one per worker
// process, and each keeps only its own accounting around it. In order, a
// step drains and records the step and its deliveries, runs the algorithm
// (recording its probe reports), keeps a uniform prefix of the outbox on a
// planned crash step (rng.uniform(size + 1) sends), submits each kept send
// with id pid << 40 | k and delay 1 + U[d] + the fault plan's extra delay,
// records the transport's stamp (now + delay if the destination crashed),
// flushes, and records the crash.
//
// Each process records into its own RtProcessLog, capped at its share of
// RtConfig::max_events (max_events / n events plus probe reports), so the
// cap needs no cross-thread state and means the same in both drivers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/flight_recorder.h"
#include "common/rng.h"
#include "rt/driver.h"
#include "rt/fault.h"
#include "rt/merge.h"
#include "rt/transport.h"
#include "sim/probe.h"
#include "sim/process.h"

namespace asyncgossip {

/// What one step did, for the driver's own accounting.
struct RtStepResult {
  /// Envelopes drained off the network.
  std::size_t delivered = 0;
  /// Envelopes handed to Transport::submit.
  std::size_t sent = 0;
  /// Of those, dropped at a crashed destination (submit returned kTimeMax).
  std::size_t refused = 0;
  /// The process crashed in this step.
  bool crashed = false;
  /// Envelopes pending for the process, discarded when its inbox closed.
  std::size_t discarded = 0;
};

/// One process's step loop state. It is also the StepContext's probe sink:
/// probe reports go to the process's log beside its events, under the same
/// cap (later records only count as dropped).
class RtStepper final : public ProbeSink {
 public:
  /// Called once per step before its first submit with the number of
  /// sends about to enter the network (not called for a step that sends
  /// nothing).
  using BeforeSubmit = std::function<void(std::size_t)>;

  /// Process `p` of config.spec, running `process` over `transport` and
  /// recording into `log`. `ring` (nullable) receives flight spans and
  /// zones. All references must outlive the stepper.
  RtStepper(const RtConfig& config, ProcessId p, Process& process,
            const FaultInjector& faults, Transport& transport,
            RtProcessLog* log, FlightRing* ring = nullptr,
            BeforeSubmit before_submit = {});
  RtStepper(const RtStepper&) = delete;
  RtStepper& operator=(const RtStepper&) = delete;

  /// Draws the tick the next step is paced to: a gap of [1, delta] ticks
  /// after the last step, the first step in [0, delta). Call once before
  /// each step; OS jitter on top is absorbed by the realized delta.
  Time next_target();

  /// Runs one local step at tick `now`, raised to the last step's tick + 1
  /// if the clock has not moved past it. Must not be called after a step
  /// that crashed.
  RtStepResult step(Time now);

  /// Local steps taken so far.
  std::uint64_t steps() const { return local_step_; }

  void on_phase(Time now, ProcessId p, const char* phase) override;
  void on_state(Time now, ProcessId p, std::uint64_t rumors_known,
                std::uint64_t rumors_fully_informed) override;

 private:
  void record(const TraceRecorder::Event& e);
  bool room();

  ProcessId p_;
  std::size_t n_;
  Time d_target_;
  Time delta_target_;
  Process& process_;
  const FaultInjector& faults_;
  Transport& transport_;
  RtProcessLog* log_;
  FlightRing* ring_;
  BeforeSubmit before_submit_;
  std::size_t cap_;
  Xoshiro256SS rng_;
  std::vector<Envelope> received_;
  Time last_tick_ = 0;
  bool stepped_ = false;
  std::uint64_t local_step_ = 0;
  std::uint64_t sends_ = 0;
};

}  // namespace asyncgossip
