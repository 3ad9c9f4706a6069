#include "gossip/epidemic.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace asyncgossip {

EpidemicGossipProcess::EpidemicGossipProcess(ProcessId id,
                                             EpidemicConfig config)
    : id_(id),
      config_(config),
      rng_(config.seed ^ (0x9E3779B97F4A7C15ULL + id)),
      rumors_(config.n),
      informed_(config.n),
      targets_(config.n) {
  AG_ASSERT_MSG(config_.n > 0 && id < config_.n, "bad process id / n");
  AG_ASSERT_MSG(config_.f < config_.n, "epidemic gossip needs f < n");
  AG_ASSERT_MSG(config_.fanout >= 1, "fanout must be >= 1");
  if (!config_.use_informed_list)
    AG_ASSERT_MSG(config_.fallback_step_budget > 0,
                  "informed-list ablation needs a fallback step budget");
  rumors_.set(id_);  // V(p) <- { r_p }
}

bool EpidemicGossipProcess::progress_done() const {
  if (!config_.use_informed_list) return steps_taken_ >= config_.fallback_step_budget;
  return informed_.full_count() == rumors_.count();
}

bool EpidemicGossipProcess::quiescent() const {
  if (steps_taken_ == 0) return false;
  // On the next step, sleep_cnt would become sleep_cnt_+1; the process sends
  // iff that value is still <= shutdown_steps. Hence it is silent from now on
  // (absent new information) exactly when sleep_cnt_ >= shutdown_steps.
  return progress_done() && sleep_cnt_ >= config_.shutdown_steps;
}

void EpidemicGossipProcess::absorb(const Envelope& env) {
  const auto* m = payload_cast<EpidemicPayload>(env);
  if (m == nullptr) return;  // foreign payload (layered protocols)
  if (rumors_.merge(m->rumors)) cached_snapshot_.reset();
  if (config_.use_informed_list && informed_.merge(m->informed))
    cached_snapshot_.reset();
}

std::shared_ptr<const EpidemicPayload> EpidemicGossipProcess::snapshot() {
  if (!cached_snapshot_) {
    auto snap = std::make_shared<EpidemicPayload>();
    snap->rumors = rumors_;
    snap->informed = informed_;
    cached_snapshot_ = std::move(snap);
  }
  return cached_snapshot_;
}

void EpidemicGossipProcess::step(StepContext& ctx) {
  // (1) Receive: merge every delivered <V, I> into local state.
  for (const Envelope& env : ctx.received()) absorb(env);

  // (2) Progress control (Figure 2, lines 11-14): sleep_cnt tracks how many
  // consecutive steps L(p) has been empty.
  if (progress_done()) {
    ++sleep_cnt_;
  } else {
    sleep_cnt_ = 0;
  }

  // Telemetry: report the phase (no-ops without an attached ProbeSink).
  // "epidemic" while L(p) is non-empty, "shutdown" for the trailing
  // shutdown_steps sending steps, "asleep" once silent for good.
  const char* phase = sleep_cnt_ == 0              ? "epidemic"
                      : sleep_cnt_ <= config_.shutdown_steps ? "shutdown"
                                                             : "asleep";
  if (phase != last_phase_) {
    ctx.probe_phase(phase);
    last_phase_ = phase;
  }
  ctx.probe_state(rumors_.count(), informed_.full_count());

  // (3) Epidemic transmission (lines 15-21): while awake — i.e. during
  // normal operation and for `shutdown_steps` further steps after L(p)
  // empties — push the current snapshot to `fanout` uniform targets, then
  // record the new (rumor, target) pairs in the informed-list.
  if (sleep_cnt_ <= config_.shutdown_steps) {
    const auto payload = snapshot();
    targets_.clear_all();
    if (config_.fanout >= config_.n) {
      for (std::size_t q = 0; q < config_.n; ++q)
        ctx.send(static_cast<ProcessId>(q), payload);
      targets_.set_all();
    } else if (config_.fanout == 1) {
      const auto q = static_cast<ProcessId>(rng_.uniform(config_.n));
      ctx.send(q, payload);
      targets_.set(q);
    } else {
      for (std::uint64_t q :
           rng_.sample_without_replacement(config_.n, config_.fanout)) {
        ctx.send(static_cast<ProcessId>(q), payload);
        targets_.set(static_cast<std::size_t>(q));
      }
    }
    if (config_.use_informed_list && informed_.note_rows(rumors_, targets_))
      cached_snapshot_.reset();
  }
  ++steps_taken_;
}

std::unique_ptr<Process> EpidemicGossipProcess::clone() const {
  return std::make_unique<EpidemicGossipProcess>(*this);
}

EpidemicConfig make_ears_config(std::size_t n, std::size_t f,
                                std::uint64_t seed,
                                double shutdown_constant) {
  AG_ASSERT_MSG(f < n, "EARS needs f < n");
  EpidemicConfig cfg;
  cfg.n = n;
  cfg.f = f;
  cfg.fanout = 1;
  const double ratio = static_cast<double>(n) / static_cast<double>(n - f);
  cfg.shutdown_steps = static_cast<std::uint64_t>(std::max(
      1.0, std::ceil(shutdown_constant * ratio * std::log(std::max<std::size_t>(n, 2)))));
  cfg.seed = seed;
  return cfg;
}

EpidemicConfig make_sears_config(std::size_t n, std::size_t f, double epsilon,
                                 std::uint64_t seed, double fanout_constant) {
  AG_ASSERT_MSG(f < n, "SEARS needs f < n");
  AG_ASSERT_MSG(epsilon > 0.0 && epsilon < 1.0, "SEARS needs 0 < epsilon < 1");
  EpidemicConfig cfg;
  cfg.n = n;
  cfg.f = f;
  const double raw = fanout_constant *
                     std::pow(static_cast<double>(n), epsilon) *
                     std::log(std::max<std::size_t>(n, 2));
  cfg.fanout = static_cast<std::size_t>(
      std::clamp(std::ceil(raw), 1.0, static_cast<double>(n)));
  cfg.shutdown_steps = 1;
  cfg.seed = seed;
  return cfg;
}

}  // namespace asyncgossip
