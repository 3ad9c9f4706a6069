// Deterministic asynchronous gossip by round-robin dissemination.
//
// The paper's conclusions ask whether an *efficient deterministic*
// asynchronous (majority-)gossip algorithm exists; Theorem 1 applies to
// deterministic algorithms directly (no adaptive/oblivious distinction —
// a deterministic protocol's behaviour is known to any adversary). This
// module provides the natural deterministic contender so the question can
// be explored experimentally:
//
// Every local step, process p sends its <V, I> snapshot to the next target
// in the fixed cyclic order p+1, p+2, ..., and records the pairs in its
// informed-list exactly as EARS does. The informed-list progress control
// and shut-down phase are inherited unchanged; only target selection is
// derandomized.
//
// Properties: correct (gathering/validity/quiescence) like EARS — every
// awake process sweeps the whole ring in n steps — but the determinism is
// costly: a rumor needs Theta(n) local steps to be *guaranteed* out of its
// origin neighbourhood, so worst-case time degrades to Theta(n (d+delta))
// against patterns that random choice defeats, and Theorem 1's adversary
// can precompute its entire future. bench_ablation contrasts it with EARS.
#pragma once

#include <cstdint>
#include <memory>

#include "common/bitset.h"
#include "gossip/epidemic.h"
#include "gossip/informed_list.h"
#include "gossip/rumor.h"

namespace asyncgossip {

class RoundRobinGossipProcess final : public GossipProcess {
 public:
  /// Reuses EpidemicConfig (fanout is ignored; targets are cyclic).
  RoundRobinGossipProcess(ProcessId id, EpidemicConfig config);

  void step(StepContext& ctx) override;
  std::unique_ptr<Process> clone() const override;
  void reseed(std::uint64_t) override {}  // deterministic

  const DynamicBitset& rumors() const override { return rumors_; }
  bool quiescent() const override;
  std::uint64_t local_steps() const override { return steps_taken_; }

  bool progress_done() const;
  std::uint64_t sleep_count() const { return sleep_cnt_; }

 private:
  void absorb(const Envelope& env);
  std::shared_ptr<const EpidemicPayload> snapshot();

  ProcessId id_;
  EpidemicConfig config_;
  DynamicBitset rumors_;
  InformedList informed_;
  std::size_t next_target_offset_ = 1;  // cursor in the cyclic order
  std::uint64_t sleep_cnt_ = 0;
  std::uint64_t steps_taken_ = 0;
  const char* last_phase_ = nullptr;  // last phase reported via probe_phase
  std::shared_ptr<const EpidemicPayload> cached_snapshot_;
};

}  // namespace asyncgossip
