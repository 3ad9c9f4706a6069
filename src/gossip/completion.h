// Completion detection and property checking for gossip executions.
//
// The paper: "gossip completes when each process has either crashed or both
// (a) received the rumor of every correct process and (b) stopped sending
// messages." Online we detect the stable global state [network empty AND
// every process crashed-or-quiescent]; once it holds nothing can change, so
// quiescence really is "stopped sending forever". The reported completion
// time is the time of the last send (+1), which is exactly when the system
// went silent, independent of how long the detector waited.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitset.h"

// aglint:allow(AG-LAY-002) completion detection *is* engine-side analysis:
// it inspects global network/process state no algorithm may see. Algorithm
// files stay behind the StepContext seam; this header is the runner side.
#include "sim/engine.h"

namespace asyncgossip {

/// True iff the network is drained and every process has crashed or is
/// quiescent. Processes must implement GossipProcess.
bool gossip_quiet(const Engine& engine);

/// The paper's two gossip postconditions, judged on final rumor sets.
struct GossipVerdict {
  /// Every live process knows the rumor of every *correct* (never-crashed)
  /// process — the rumor-gathering requirement.
  bool gathering_ok = true;
  /// Every live process knows strictly more than n/2 rumors — the majority
  /// gossip requirement solved by TEARS.
  bool majority_ok = true;
};

/// The one verdict behind run_gossip and both rt drivers: rumors[p] is
/// live process p's final rumor set, nullptr for a crashed p.
GossipVerdict judge_rumors(const std::vector<const DynamicBitset*>& rumors);

/// judge_rumors over the engine's processes, which must implement
/// GossipProcess.
GossipVerdict judge_gossip(const Engine& engine);

struct GossipOutcome {
  /// Quiet state reached within the step budget.
  bool completed = false;
  /// Time of the last message send + 1 (0 if nothing was ever sent).
  Time completion_time = 0;
  /// Global step at which the quiet state was detected.
  Time detection_time = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  Time realized_d = 0;
  Time realized_delta = 0;
  std::size_t alive = 0;
  std::size_t crashes = 0;
  bool gathering_ok = false;
  bool majority_ok = false;
};

/// Runs the engine until gossip_quiet (or max_steps) and collects the
/// outcome and property checks.
GossipOutcome run_gossip(Engine& engine, Time max_steps);

}  // namespace asyncgossip
