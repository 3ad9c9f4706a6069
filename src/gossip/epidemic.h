// The EARS / SEARS epidemic gossip processes (paper Sections 3 and 4).
//
// Both algorithms share one skeleton (Figure 2): every local step, merge
// received <V, I> payloads, recompute the progress condition L(p) = { q :
// some rumor in V(p) is not known to have been sent to q }, and — unless the
// shut-down phase has run its course — push the current <V, I> snapshot to
// `fanout` targets chosen uniformly at random.
//
//  * EARS  : fanout = 1,               shut-down = Theta(n/(n-f) * log n) steps.
//  * SEARS : fanout = Theta(n^eps*log n), shut-down = 1 step.
//
// The informed-list I(p) is an InformedList (gossip/informed_list.h): row r
// is the set of processes that, to p's knowledge, have been *sent* rumor r.
// L(p) is only ever tested for emptiness, which the list maintains
// incrementally as its count of full rows.
#pragma once

#include <cstdint>
#include <memory>

#include "common/bitset.h"
#include "common/rng.h"
#include "gossip/informed_list.h"
#include "gossip/rumor.h"

namespace asyncgossip {

struct EpidemicConfig {
  std::size_t n = 0;
  /// Failure tolerance parameter f < n (known to the algorithm; it sizes
  /// the shut-down phase).
  std::size_t f = 0;
  /// Random targets contacted per sending step (EARS: 1).
  std::size_t fanout = 1;
  /// Number of additional sending steps taken after L(p) first empties
  /// (and after every time it re-empties). EARS: C * n/(n-f) * ln n.
  std::uint64_t shutdown_steps = 1;
  /// Ablation switch: when false, the informed-list progress control is
  /// disabled and the process instead sends for `fallback_step_budget`
  /// local steps unconditionally before sleeping. Models the naive
  /// "repeat a fixed number of iterations" strategy the paper's
  /// introduction argues against.
  bool use_informed_list = true;
  std::uint64_t fallback_step_budget = 0;
  std::uint64_t seed = 1;
};

/// Payload of an EARS/SEARS message: an immutable snapshot of <V(p), I(p)>.
struct EpidemicPayload final : Payload {
  DynamicBitset rumors;   // V
  InformedList informed;  // I, over the same n as V

  /// V is n bits; I contributes n bits per rumor with any recorded pair
  /// (plus one presence bit per rumor). EARS messages are therefore up to
  /// Theta(n^2) bits — the price of the informed-list progress control,
  /// measured by the bit-complexity extension.
  std::size_t byte_size() const override {
    return rumors.byte_size() + informed.byte_size();
  }
};

class EpidemicGossipProcess final : public GossipProcess {
 public:
  EpidemicGossipProcess(ProcessId id, EpidemicConfig config);

  void step(StepContext& ctx) override;
  std::unique_ptr<Process> clone() const override;

  void reseed(std::uint64_t seed) override { rng_ = Xoshiro256SS(seed); }
  const DynamicBitset& rumors() const override { return rumors_; }
  bool quiescent() const override;
  std::uint64_t local_steps() const override { return steps_taken_; }

  /// True iff L(p) is empty: every rumor in V(p) is known-sent to all of [n].
  bool progress_done() const;
  std::uint64_t sleep_count() const { return sleep_cnt_; }
  const EpidemicConfig& config() const { return config_; }

 private:
  void absorb(const Envelope& env);
  std::shared_ptr<const EpidemicPayload> snapshot();

  ProcessId id_;
  EpidemicConfig config_;
  Xoshiro256SS rng_;

  DynamicBitset rumors_;   // V(p)
  InformedList informed_;  // I(p)
  DynamicBitset targets_;  // this step's targets (scratch)

  std::uint64_t sleep_cnt_ = 0;
  std::uint64_t steps_taken_ = 0;
  const char* last_phase_ = nullptr;  // last phase reported via probe_phase
  std::shared_ptr<const EpidemicPayload> cached_snapshot_;
};

/// EARS (Section 3): fanout 1, shut-down phase of
/// ceil(shutdown_constant * n/(n-f) * ln n) steps.
EpidemicConfig make_ears_config(std::size_t n, std::size_t f,
                                std::uint64_t seed,
                                double shutdown_constant = 4.0);

/// SEARS (Section 4): fanout ceil(fanout_constant * n^epsilon * ln n)
/// (clamped to [1, n]), a single shut-down step.
EpidemicConfig make_sears_config(std::size_t n, std::size_t f, double epsilon,
                                 std::uint64_t seed,
                                 double fanout_constant = 1.0);

}  // namespace asyncgossip
