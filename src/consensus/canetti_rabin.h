// Randomized binary consensus in the Canetti-Rabin framework (paper
// Section 6), with the get-core exchanges carried by a pluggable gossip
// transport: all-to-all (the CR baseline of Table 2), EARS, SEARS or TEARS.
//
// Protocol per phase (Attiya-Welch Section 14.3 presentation):
//   exchange 0  get-core over estimate votes x  -> preference y (v or bot)
//   exchange 1  get-core over preferences y     -> decide, adopt, or coin
//   exchange 2  get-core over coin flips        -> fallback estimate
// Each get-core is three sequential gossip sub-instances; a gossip-backed
// sub-instance completes when floor(n/2)+1 origins' rumors have been
// incorporated (the paper's majority-gossip termination rule), the
// all-to-all baseline when n-f have (Attiya-Welch).
//
// Asynchronous initiation is handled exactly as the paper prescribes:
// every message carries the sender's protocol position and state, and a
// receiver that is behind adopts the sender's outcomes and jumps forward.
//
// Termination & quiescence engineering (beyond the paper's asymptotic
// argument, documented in DESIGN.md): a process that decides keeps
// participating for a bounded number of local steps ("helping"), then
// retires to a purely reactive mode in which it answers any message from an
// undecided process with a one-shot decided notification. Undecided
// processes that stall (no new origins for `stagnation_limit` local steps)
// re-announce to everyone; this fallback fires only in the retirement tail
// and keeps expected message complexity at the advertised order.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "consensus/core_types.h"
#include "consensus/get_core.h"
#include "gossip/rumor.h"
#include "gossip/tears.h"
#include "sim/engine.h"
#include "sim/oblivious.h"
#include "sim/process.h"

namespace asyncgossip {

struct ConsensusConfig {
  std::size_t n = 0;
  std::size_t f = 0;  // tolerance; f < n/2 required
  ExchangeKind exchange = ExchangeKind::kAllToAll;
  double sears_epsilon = 0.5;
  double sears_fanout_constant = 1.0;
  /// TEARS parameter multipliers (see gossip/tears.h on why benches scale
  /// the paper's constants down at simulable n).
  double tears_a_constant = 1.0;
  double tears_kappa_constant = 1.0;
  std::uint64_t seed = 1;
  /// Local steps a decided process keeps participating before retiring;
  /// 0 = automatic (8 * (log2 n + 1)).
  std::uint64_t help_steps = 0;
  /// Local steps without progress before an undecided process re-announces
  /// to everyone; 0 = automatic (2n).
  std::uint64_t stagnation_limit = 0;
  /// Record get-core returns for phases 1-2 (common-core property tests).
  bool log_getcore_returns = false;
};

class ConsensusProcess final : public GossipProcess {
 public:
  ConsensusProcess(ProcessId id, Val input, ConsensusConfig config);

  /// Returns the process to its freshly constructed state for a new run
  /// with `input` and `config` (the constructor's only initialisation, so
  /// a restarted process behaves exactly like a new one). Buffers keep
  /// their capacity, which is what lets a consensus slot run without
  /// allocating (svc/replica.h).
  void restart(Val input, const ConsensusConfig& config);

  void step(StepContext& ctx) override;
  /// The copy shares no kept payloads with this process (see snapshot).
  std::unique_ptr<Process> clone() const override;
  void reseed(std::uint64_t seed) override { rng_ = Xoshiro256SS(seed); }

  // GossipProcess surface — this is what lets the rt drivers (threaded and
  // multi-process) run consensus through the same seam as plain gossip.
  // The "rumor set" is the current sub-instance's incorporated origins;
  // quiescence is retirement (a retired process only ever answers undecided
  // senders once, so with no further receipts it sends nothing).
  const DynamicBitset& rumors() const override { return inst_.origins; }
  bool quiescent() const override {
    return mode_ == Mode::kRetired && steps_taken_ > 0;
  }
  std::uint64_t local_steps() const override { return steps_taken_; }
  /// "cr decided=.. value=.. input=.. phase=.. viol=.. reann=.." — parsed
  /// by parse_consensus_note (consensus/cr_gossip.h).
  std::string final_note() const override;

  bool decided() const { return decided_; }
  Val decision() const { return decision_; }
  /// Phase at which this process decided (0 if undecided).
  std::uint32_t decided_phase() const { return decided_phase_; }
  Val input() const { return input_; }
  bool retired() const { return mode_ == Mode::kRetired; }
  const Position& position() const { return pos_; }
  /// The current sub-instance's state (what the next snapshot carries).
  const InstanceState& instance() const { return inst_; }
  std::uint64_t core_violations() const { return core_violations_; }
  std::uint64_t reannouncements() const { return reannouncements_; }

  struct GetCoreRecord {
    Position pos;  // position *completed* (sub == 2)
    InstanceState returned;
  };
  const std::vector<GetCoreRecord>& getcore_log() const {
    return getcore_log_;
  }

 private:
  enum class Mode { kActive, kHelping, kRetired };

  void handle_message(const ConsensusPayload& m,
                      std::vector<ProcessId>& notify);
  void decide(Val v);
  void advance_if_complete();
  void consume_getcore();
  Val own_rumor_value() const;
  void start_instance();  // resets inst_ + transport for the current pos_
  void reset_transport();
  /// The payload announcing the current state. Returns the previous
  /// snapshot with the same flag while nothing it carries has changed
  /// (payloads are immutable once sent, so sharing one is free). Otherwise,
  /// when the step runs inside the simulation engine
  /// (StepContext::payload_reuse_safe), it overwrites a kept payload that
  /// the engine has released, and allocates only when every kept payload
  /// is still in flight.
  PayloadPtr snapshot(bool flag_up);
  /// Marks the state a snapshot carries (pos_, inst_, x_, y_, decided_,
  /// decision_) as changed.
  void touch() { ++epoch_; }
  void do_transport(StepContext& ctx);
  std::size_t completion_threshold() const;
  bool tears_trigger_crossed(std::uint64_t before, std::uint64_t after) const;

  ProcessId id_;
  ConsensusConfig config_;
  Xoshiro256SS rng_;

  Val input_ = 0;
  Val x_ = 0;
  Val y_ = kValBot;
  Val coin_flip_ = kValUnknown;
  Val pending_adopt_ = kValUnknown;
  Position pos_;
  InstanceState inst_;

  bool decided_ = false;
  Val decision_ = kValUnknown;
  std::uint32_t decided_phase_ = 0;
  Mode mode_ = Mode::kActive;
  std::uint64_t helping_steps_left_ = 0;

  // Transport state (per sub-instance).
  bool announced_ = false;
  std::size_t fanout_ = 1;           // ears/sears
  TearsConfig tears_params_;         // a, mu, kappa
  std::vector<ProcessId> pi1_, pi2_;
  std::uint64_t up_cnt_ = 0;
  std::uint64_t up_cnt_step_start_ = 0;
  std::uint64_t stagnant_steps_ = 0;

  std::vector<bool> notified_;
  std::uint64_t steps_taken_ = 0;
  std::uint64_t core_violations_ = 0;
  std::uint64_t reannouncements_ = 0;
  std::vector<GetCoreRecord> getcore_log_;

  // Per-step scratch (capacity persists across steps and restarts).
  std::vector<ProcessId> notify_;
  std::vector<std::uint64_t> targets_;

  // Snapshot reuse (see snapshot()). epoch_ only grows, also across
  // restarts, so a cached snapshot never outlives the state it carries.
  struct CachedSnapshot {
    std::shared_ptr<ConsensusPayload> payload;
    std::uint64_t epoch = 0;
  };
  std::uint64_t epoch_ = 1;
  CachedSnapshot cached_[2];  // indexed by flag_up
  bool reuse_payloads_ = false;  // this step's StepContext allows reuse
  std::vector<std::shared_ptr<ConsensusPayload>> kept_;
};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

enum class InputPattern { kAllZero, kAllOne, kHalfHalf, kRandom };

struct ConsensusSpec {
  ConsensusConfig config;
  Time d = 1;
  Time delta = 1;
  SchedulePattern schedule = SchedulePattern::kLockStep;
  DelayPattern delay = DelayPattern::kUniform;
  Time crash_horizon = 64;
  InputPattern inputs = InputPattern::kRandom;
  std::uint64_t seed = 1;  // adversary + inputs seed
  Time max_steps = 0;      // 0 = automatic
};

struct ConsensusOutcome {
  bool all_decided = false;
  bool agreement = false;
  bool validity = false;
  Val decided_value = kValUnknown;
  Time decision_time = 0;       // when the last correct process decided
  Time quiet_time = 0;          // when the system went silent
  std::uint64_t messages_at_decision = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;
  std::uint32_t max_phase = 0;  // highest phase reached by any process
  std::uint32_t decision_phase = 0;  // highest phase at which anyone decided
  std::uint64_t core_violations = 0;
  std::uint64_t reannouncements = 0;
  std::size_t alive = 0;
  Time realized_d = 0;
  Time realized_delta = 0;
};

/// All correct processes decided (predicate for Engine::run_until).
bool consensus_all_decided(const Engine& engine);
/// Decided + retired + drained network: nothing will ever be sent again.
bool consensus_quiet(const Engine& engine);

Engine make_consensus_engine(const ConsensusSpec& spec);
ConsensusOutcome run_consensus_spec(const ConsensusSpec& spec);

}  // namespace asyncgossip
