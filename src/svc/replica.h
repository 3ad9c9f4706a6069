// The consensus core under the KV service: one Canetti-Rabin instance per
// commit slot (a slot commits one batch of client commands), executed on
// the simulation engine with the exchange transport of the chosen cr-*
// algorithm. This is Table 2 *as the service's commit path*: every batch
// pays one consensus decision, so the service's commit latency/throughput
// measure the consensus cost directly.
//
// Inputs are all-1 ("commit this batch"), so validity forces decision 1;
// the run's value to the service is the fault-tolerant *completion* of the
// decision, not the bit. Replica crashes are persistent across slots: a
// replica the fault plan kills in slot k is crashed from the first tick of
// every slot >= k. When fewer than floor(n/2)+1 replicas survive, the
// group reports honest unavailability instead of committing (fail-fast:
// the slot engine is not run).
//
// The slot engine (one Engine, its n ConsensusProcesses and its
// ObliviousAdversary) is built once and restarted every slot, so a slot in
// steady state allocates almost nothing. A slot is still a pure function
// of (config, slot index): each of the three has a single initialisation
// path, restart(), which its constructor also calls, and a restart resets
// every field a run reads, from the slot's seed, its crash plan and its
// stall draw. Nothing carries over from the previous slot except buffer
// capacity. ReplicaGroupConfig::reuse_slot_engine = false builds a fresh
// engine per slot instead; the SvcReplica tests check both give the same
// outcomes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "consensus/canetti_rabin.h"
#include "gossip/harness.h"
#include "sim/engine.h"
#include "sim/oblivious.h"

namespace asyncgossip {
namespace svc {

struct ReplicaGroupConfig {
  std::size_t n = 8;
  std::size_t f = 3;  // tolerated crash budget; f < n/2
  /// cr-ears / cr-sears / cr-tears (consensus exchange transport).
  GossipAlgorithm algorithm = GossipAlgorithm::kCrTears;
  Time d = 2;
  Time delta = 2;
  std::uint64_t seed = 1;

  // --- fault plan (soak mode) ---------------------------------------------
  /// Replicas to crash over the run; may deliberately exceed f to exercise
  /// the honest-unavailability path. Victims and slots are seed-derived.
  std::size_t inject_crashes = 0;
  /// Crash slots are drawn uniformly from [1, crash_horizon_slots].
  std::uint64_t crash_horizon_slots = 64;
  /// Per-slot probability of a stall fault: the slot's delivery bound d is
  /// inflated 4x (models a scheduling/network stall under the oblivious
  /// adversary; realized bounds absorb it, commit latency shows it).
  double stall_probability = 0.0;

  /// Restart one slot engine every slot (the default) or build a fresh one
  /// per slot. Outcomes are identical; false is the reference the tests
  /// compare against.
  bool reuse_slot_engine = true;
};

/// One slot's commit outcome plus the consensus run's cost counters.
struct CommitOutcome {
  /// All surviving replicas decided 1 within budget.
  bool committed = false;
  /// The group no longer holds a majority; nothing ran.
  bool unavailable = false;
  std::uint64_t slot = 0;
  /// Consensus cost of the slot (0s when unavailable).
  Time decision_time = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint32_t decision_phase = 0;
  bool stalled = false;
  std::size_t alive = 0;
  /// The slot engine's trace hash (sim/engine.h); 0 when unavailable.
  std::uint64_t trace_hash = 0;
};

class ReplicaGroup {
 public:
  explicit ReplicaGroup(const ReplicaGroupConfig& config);

  /// Runs slot `slots_run()+1`'s consensus instance and returns its
  /// outcome. Deterministic for a given (config, call index).
  CommitOutcome commit_slot();

  std::uint64_t slots_run() const { return slot_; }
  std::size_t alive() const;
  const std::vector<std::uint64_t>& crash_slots() const {
    return crash_slot_;  // per replica; 0 = never crashed
  }
  const ReplicaGroupConfig& config() const { return config_; }

 private:
  ReplicaGroupConfig config_;
  std::uint64_t slot_ = 0;
  /// crash_slot_[p] != 0: replica p is crashed in every slot >= that value.
  std::vector<std::uint64_t> crash_slot_;
  Xoshiro256SS stall_rng_;

  // The slot engine (see the file comment). engine_ owns the replicas and
  // the adversary; the raw pointers restart them in place.
  std::unique_ptr<Engine> engine_;
  std::vector<ConsensusProcess*> replicas_;
  ObliviousAdversary* adversary_ = nullptr;
  ObliviousConfig adversary_config_;  // per-slot scratch
};

}  // namespace svc
}  // namespace asyncgossip
