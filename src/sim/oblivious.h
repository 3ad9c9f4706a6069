// Oblivious (d, delta)-adversaries.
//
// An oblivious adversary commits to the schedule, the failure pattern and
// the message-delay pattern *in advance*: nothing it does may depend on the
// algorithm's random choices. We enforce this structurally — the class
// below never receives an EngineView; its decisions are pure functions of
// (n, f, d, delta, pattern, its own private seed, global time, message
// ordinal). Message delays keyed by the message ordinal are the standard
// simulation rendering of a pre-committed delay pattern: the adversary's
// coin flips are independent of the algorithm's coins.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/adversary.h"

namespace asyncgossip {

/// How the oblivious adversary schedules local steps.
enum class SchedulePattern {
  /// Every live process steps at every time step (delta = 1).
  kLockStep,
  /// Process p steps every period(p) steps, periods fixed at construction
  /// uniformly in [1, delta]: models heterogeneous process speeds.
  kStaggered,
  /// Each process steps with probability 1/2 per step (its laggards are
  /// force-scheduled by the engine's delta deadline).
  kRandomSubset,
  /// A rotating contiguous window of ~n/delta processes steps each time
  /// step: maximally bursty but delta-compliant scheduling.
  kRotating,
  /// Everyone steps every time step except a pre-committed straggler set
  /// (default: the last ceil(n/8) processes), which steps only every delta
  /// steps: the worst-case laggard pattern for stopping rules.
  kStraggler,
};

/// How the oblivious adversary delays messages.
enum class DelayPattern {
  /// Every message takes exactly 1 step (fastest network).
  kUnitDelay,
  /// Every message takes exactly d steps (slowest legal network).
  kMaxDelay,
  /// Uniform in [1, d].
  kUniform,
  /// Mostly fast (delay 1 w.p. 0.9), occasionally the full d: models a
  /// network with rare pathological delays (the "e-mail that took two
  /// days" from the paper's introduction).
  kBimodal,
  /// Messages *to* a pre-committed victim set (default: the last
  /// ceil(n/8) processes) take the full d; everything else is delay 1.
  /// Models asymmetric slow links without violating obliviousness.
  kTargetedSlow,
};

/// Flag-style names matching gossiplab's --schedule / --delay values.
const char* to_string(SchedulePattern pattern);
const char* to_string(DelayPattern pattern);

/// Inverse of to_string (the same flag-style names). Returns false on an
/// unknown name, leaving *out untouched. Shared by gossiplab's flag parsing
/// and the repro-artifact JSON reader (gossip/spec_json.h).
bool schedule_from_string(const std::string& name, SchedulePattern* out);
bool delay_from_string(const std::string& name, DelayPattern* out);

/// A pre-committed crash plan: (time, process) pairs, at most f of them.
using CrashPlan = std::vector<std::pair<Time, ProcessId>>;

/// Crash plan builders (all pure functions of their arguments).
CrashPlan no_crashes();
/// f distinct random victims, each at a uniform time in [0, horizon).
CrashPlan random_crashes(std::size_t n, std::size_t f, Time horizon,
                         std::uint64_t seed);
/// All f victims crash simultaneously at `when`.
CrashPlan burst_crashes(std::size_t n, std::size_t f, Time when,
                        std::uint64_t seed);
/// Crash the highest-numbered f processes at times spread over [0, horizon).
CrashPlan staggered_suffix_crashes(std::size_t n, std::size_t f, Time horizon);

struct ObliviousConfig {
  std::size_t n = 0;
  Time d = 1;
  Time delta = 1;
  SchedulePattern schedule = SchedulePattern::kLockStep;
  DelayPattern delay = DelayPattern::kUniform;
  CrashPlan crash_plan;
  std::uint64_t seed = 1;
  /// Victim sets for kStraggler / kTargetedSlow; empty = the default
  /// suffix of ceil(n/8) processes.
  std::vector<ProcessId> stragglers;
  std::vector<ProcessId> slow_targets;
};

class ObliviousAdversary final : public Adversary {
 public:
  explicit ObliviousAdversary(ObliviousConfig config);

  /// Re-commits to `config` from time 0, exactly as construction does (the
  /// constructor calls this); buffers keep their capacity.
  void restart(const ObliviousConfig& config);

  StepDecision decide(Time now, const EngineView& /*view*/) override {
    return decide_oblivious(now);
  }
  void decide_into(Time now, const EngineView& /*view*/,
                   StepDecision& out) override {
    decide_oblivious(now, out);
  }
  Time message_delay(const Envelope& env,
                     const EngineView& /*view*/) override {
    return delay_oblivious(env.id, env.to);
  }

  /// Pure-of-view decision functions (also used directly by tests).
  StepDecision decide_oblivious(Time now);
  /// The same decision written into `out` (replaced, capacity kept).
  void decide_oblivious(Time now, StepDecision& out);
  Time delay_oblivious(MessageId ordinal, ProcessId to = 0);

 private:
  ObliviousConfig config_;
  Xoshiro256SS schedule_rng_;
  Xoshiro256SS delay_rng_;
  std::vector<Time> periods_;   // kStaggered
  std::vector<Time> phases_;    // kStaggered
  std::size_t rotate_width_ = 0;  // kRotating
  std::vector<bool> straggler_set_;  // kStraggler
  std::vector<bool> slow_set_;       // kTargetedSlow
  std::size_t crash_cursor_ = 0;
  CrashPlan sorted_plan_;
};

/// Convenience: the benign-but-legal adversary most benches use (uniform
/// delays, staggered speeds, random crashes within the given horizon).
std::unique_ptr<Adversary> make_standard_oblivious(std::size_t n, Time d,
                                                   Time delta, std::size_t f,
                                                   Time crash_horizon,
                                                   std::uint64_t seed);

}  // namespace asyncgossip
