#include "svc/replica.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "consensus/cr_gossip.h"
#include "consensus/get_core.h"

namespace asyncgossip {
namespace svc {

ReplicaGroup::ReplicaGroup(const ReplicaGroupConfig& config)
    : config_(config),
      crash_slot_(config.n, 0),
      stall_rng_(config.seed ^ 0x57A11F4B7ULL) {
  AG_ASSERT_MSG(config_.n >= 3, "replica group needs n >= 3");
  AG_ASSERT_MSG(config_.f < (config_.n + 1) / 2,
                "replica group needs f < n/2");
  AG_ASSERT_MSG(is_consensus_algorithm(config_.algorithm),
                "replica group needs a cr-* algorithm");
  // Seed-derived fault plan: distinct victims, crash slots uniform in
  // [1, horizon]. Deliberately may exceed f (honest-unavailability soaks).
  Xoshiro256SS rng(config_.seed ^ 0xC4A54D15ULL);
  const std::size_t count = std::min(config_.inject_crashes, config_.n);
  const std::uint64_t horizon = std::max<std::uint64_t>(
      config_.crash_horizon_slots, 1);
  std::size_t placed = 0;
  while (placed < count) {
    const auto victim = static_cast<std::size_t>(rng.uniform(config_.n));
    if (crash_slot_[victim] != 0) continue;
    crash_slot_[victim] = 1 + rng.uniform(horizon);
    ++placed;
  }
}

std::size_t ReplicaGroup::alive() const {
  std::size_t alive = 0;
  for (const std::uint64_t s : crash_slot_)
    if (s == 0 || s > slot_) ++alive;
  return alive;
}

CommitOutcome ReplicaGroup::commit_slot() {
  ++slot_;
  CommitOutcome out;
  out.slot = slot_;
  out.stalled = config_.stall_probability > 0.0 &&
                stall_rng_.bernoulli(config_.stall_probability);

  // Replicas crashed by this slot are dead from the slot's first tick.
  ObliviousConfig& adv = adversary_config_;
  adv.crash_plan.clear();
  for (std::size_t p = 0; p < config_.n; ++p)
    if (crash_slot_[p] != 0 && crash_slot_[p] <= slot_)
      adv.crash_plan.emplace_back(Time{1}, static_cast<ProcessId>(p));
  out.alive = config_.n - adv.crash_plan.size();
  if (out.alive < majority_threshold(config_.n)) {
    out.unavailable = true;  // fail fast: a minority cannot commit
    return out;
  }

  ConsensusConfig ccfg;
  ccfg.n = config_.n;
  ccfg.f = config_.f;
  ccfg.exchange = exchange_for_algorithm(config_.algorithm);
  ccfg.seed = config_.seed ^ (slot_ * 0x9E3779B97F4A7C15ULL);

  adv.n = config_.n;
  adv.d = out.stalled ? 4 * config_.d : config_.d;
  adv.delta = config_.delta;
  adv.seed = ccfg.seed ^ 0xAD7C025ULL;

  EngineConfig ecfg;
  ecfg.d = adv.d;
  ecfg.delta = adv.delta;
  ecfg.max_crashes = adv.crash_plan.size();

  if (engine_ == nullptr || !config_.reuse_slot_engine) {
    std::vector<std::unique_ptr<Process>> procs;
    procs.reserve(config_.n);
    replicas_.clear();
    for (std::size_t p = 0; p < config_.n; ++p) {
      auto replica = std::make_unique<ConsensusProcess>(
          static_cast<ProcessId>(p), Val{1}, ccfg);
      replicas_.push_back(replica.get());
      procs.push_back(std::move(replica));
    }
    auto adversary = std::make_unique<ObliviousAdversary>(adv);
    adversary_ = adversary.get();
    engine_ = std::make_unique<Engine>(std::move(procs), std::move(adversary),
                                       ecfg);
  } else {
    for (ConsensusProcess* replica : replicas_) replica->restart(Val{1}, ccfg);
    adversary_->restart(adv);
    engine_->restart(ecfg);
  }
  Engine& engine = *engine_;
  const double lg = std::log2(static_cast<double>(config_.n)) + 1.0;
  const Time budget = static_cast<Time>(
      2000.0 * lg * lg * static_cast<double>(adv.d + adv.delta) +
      static_cast<double>(64 * config_.n));

  out.committed = engine.run_until(consensus_all_decided, budget);
  out.decision_time = engine.now();
  out.messages = engine.metrics().messages_sent();
  out.bytes = engine.metrics().bytes_sent();
  out.trace_hash = engine.trace_hash();
  for (ProcessId p = 0; p < engine.n(); ++p) {
    if (engine.crashed(p)) continue;
    const ConsensusProcess& cp = *replicas_[p];
    out.decision_phase = std::max(out.decision_phase, cp.decided_phase());
    // All-1 inputs: validity pins any decision to 1.
    if (cp.decided()) AG_ASSERT_MSG(cp.decision() == 1, "validity violated");
  }
  return out;
}

}  // namespace svc
}  // namespace asyncgossip
