#include "rt/step.h"

#include <algorithm>
#include <utility>

namespace asyncgossip {

namespace {

using Event = TraceRecorder::Event;
using EventKind = TraceRecorder::EventKind;

/// Raw message ids are pid << 40 | k: unique across processes without any
/// shared counter (merge_rt_logs renumbers them densely).
constexpr unsigned kMessageIdShift = 40;

}  // namespace

RtStepper::RtStepper(const RtConfig& config, ProcessId p, Process& process,
                     const FaultInjector& faults, Transport& transport,
                     RtProcessLog* log, FlightRing* ring,
                     BeforeSubmit before_submit)
    : p_(p),
      n_(config.spec.n),
      d_target_(std::max<Time>(1, config.spec.d)),
      delta_target_(std::max<Time>(1, config.spec.delta)),
      process_(process),
      faults_(faults),
      transport_(transport),
      log_(log),
      ring_(ring),
      before_submit_(std::move(before_submit)),
      cap_(config.max_events / config.spec.n),
      rng_(mix64(config.spec.seed ^ (0x9e3779b97f4a7c15ULL * (p + 1)))) {}

Time RtStepper::next_target() {
  return stepped_ ? last_tick_ + 1 + rng_.uniform(delta_target_)
                  : rng_.uniform(delta_target_);
}

RtStepResult RtStepper::step(Time now) {
  if (stepped_ && now <= last_tick_) now = last_tick_ + 1;
  RtStepResult r;

  received_.clear();
  {
    const FlightZone zone(ring_, FlightZoneId::kInboxPoll, p_, now);
    r.delivered = transport_.drain(p_, now, &received_);
  }
  record(Event{EventKind::kStep, now, p_, kNoProcess, 0, 0, 0});
  for (const Envelope& env : received_) {
    record(Event{EventKind::kDelivery, now, p_, env.from, env.id,
                 env.send_time, env.deliver_after});
    if (ring_ != nullptr)
      flight_record_deliver(ring_, env.id, env.from, p_, now, env.send_time);
  }

  StepContext ctx(p_, n_, local_step_, received_);
  ctx.attach_probe(this, now);
  {
    const FlightZone zone(ring_, FlightZoneId::kAlgoStep, p_, now);
    process_.step(ctx);
  }

  auto& out = ctx.outbox();
  r.crashed = faults_.should_crash(p_, local_step_);
  // Mid-step crash: only a prefix of the step's sends makes it out (the
  // model's "a subset of its messages is sent").
  const std::size_t keep = r.crashed ? rng_.uniform(out.size() + 1) : out.size();
  if (keep > 0 && before_submit_) before_submit_(keep);

  for (std::size_t i = 0; i < keep; ++i) {
    StepContext::Outgoing& o = out[i];
    Envelope env;
    env.id = (static_cast<MessageId>(p_) << kMessageIdShift) | sends_++;
    env.from = p_;
    env.to = o.to;
    env.send_time = now;
    const Time delay = 1 + rng_.uniform(d_target_) + faults_.extra_delay(rng_);
    env.deliver_after = now + delay;
    log_->bytes += o.payload ? o.payload->byte_size() : 0;
    const MessageId id = env.id;
    const ProcessId to = env.to;
    env.payload = std::move(o.payload);
    Time stamped = transport_.submit(std::move(env));
    if (stamped == kTimeMax) {
      // Destination crashed: the message never entered the network.
      ++r.refused;
      stamped = now + delay;
    }
    record(Event{EventKind::kSend, now, p_, to, id, now, stamped});
    if (ring_ != nullptr) flight_record_send(ring_, id, p_, to, now, stamped);
  }
  r.sent = keep;
  // Ship this step's staged outbound batches (one frame per destination).
  // A no-op on InProcessTransport.
  transport_.flush(p_, now);

  ++local_step_;
  last_tick_ = now;
  stepped_ = true;

  if (r.crashed) {
    record(Event{EventKind::kCrash, now, p_, kNoProcess, 0, 0, 0});
    r.discarded = transport_.close_inbox(p_);
  }
  return r;
}

void RtStepper::on_phase(Time now, ProcessId p, const char* phase) {
  if (room()) log_->probes.push_back(RtProbeRecord{true, now, p, phase, 0, 0});
}

void RtStepper::on_state(Time now, ProcessId p, std::uint64_t rumors_known,
                         std::uint64_t rumors_fully_informed) {
  if (room())
    log_->probes.push_back(RtProbeRecord{false, now, p, nullptr, rumors_known,
                                         rumors_fully_informed});
}

void RtStepper::record(const Event& e) {
  if (room()) log_->events.push_back(e);
}

bool RtStepper::room() {
  if (log_->events.size() + log_->probes.size() < cap_) return true;
  ++log_->dropped;
  return false;
}

}  // namespace asyncgossip
