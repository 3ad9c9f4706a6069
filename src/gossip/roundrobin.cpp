#include "gossip/roundrobin.h"

#include "common/assert.h"

namespace asyncgossip {

RoundRobinGossipProcess::RoundRobinGossipProcess(ProcessId id,
                                                 EpidemicConfig config)
    : id_(id),
      config_(config),
      rumors_(config.n),
      informed_(config.n) {
  AG_ASSERT_MSG(config_.n >= 2 && id < config_.n, "bad process id / n");
  AG_ASSERT_MSG(config_.f < config_.n, "round-robin gossip needs f < n");
  rumors_.set(id_);
}

bool RoundRobinGossipProcess::progress_done() const {
  return informed_.full_count() == rumors_.count();
}

bool RoundRobinGossipProcess::quiescent() const {
  if (steps_taken_ == 0) return false;
  return progress_done() && sleep_cnt_ >= config_.shutdown_steps;
}

void RoundRobinGossipProcess::absorb(const Envelope& env) {
  const auto* m = payload_cast<EpidemicPayload>(env);
  if (m == nullptr) return;
  if (rumors_.merge(m->rumors)) cached_snapshot_.reset();
  if (informed_.merge(m->informed)) cached_snapshot_.reset();
}

std::shared_ptr<const EpidemicPayload> RoundRobinGossipProcess::snapshot() {
  if (!cached_snapshot_) {
    auto snap = std::make_shared<EpidemicPayload>();
    snap->rumors = rumors_;
    snap->informed = informed_;
    cached_snapshot_ = std::move(snap);
  }
  return cached_snapshot_;
}

void RoundRobinGossipProcess::step(StepContext& ctx) {
  for (const Envelope& env : ctx.received()) absorb(env);

  if (progress_done()) {
    ++sleep_cnt_;
  } else {
    sleep_cnt_ = 0;
  }

  const char* phase = sleep_cnt_ == 0              ? "epidemic"
                      : sleep_cnt_ <= config_.shutdown_steps ? "shutdown"
                                                             : "asleep";
  if (phase != last_phase_) {
    ctx.probe_phase(phase);
    last_phase_ = phase;
  }
  ctx.probe_state(rumors_.count(), informed_.full_count());

  if (sleep_cnt_ <= config_.shutdown_steps) {
    const auto q = static_cast<ProcessId>(
        (id_ + next_target_offset_) % config_.n);
    next_target_offset_ = next_target_offset_ % (config_.n - 1) + 1;
    ctx.send(q, snapshot());
    rumors_.for_each_set([&](std::size_t r) {
      if (informed_.note(r, q)) cached_snapshot_.reset();
    });
  }
  ++steps_taken_;
}

std::unique_ptr<Process> RoundRobinGossipProcess::clone() const {
  return std::make_unique<RoundRobinGossipProcess>(*this);
}

}  // namespace asyncgossip
