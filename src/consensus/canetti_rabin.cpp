#include "consensus/canetti_rabin.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "consensus/cr_gossip.h"

namespace asyncgossip {

namespace {
constexpr std::uint64_t kMaxLoggedPhase = 2;
}

ConsensusProcess::ConsensusProcess(ProcessId id, Val input,
                                   ConsensusConfig config)
    : id_(id) {
  restart(input, config);
}

void ConsensusProcess::restart(Val input, const ConsensusConfig& config) {
  config_ = config;
  AG_ASSERT_MSG(config_.n >= 3, "consensus needs n >= 3");
  AG_ASSERT_MSG(id_ < config_.n, "bad process id");
  AG_ASSERT_MSG(config_.f < (config_.n + 1) / 2, "consensus needs f < n/2");
  AG_ASSERT_MSG(input == 0 || input == 1, "binary consensus input");

  if (config_.help_steps == 0)
    config_.help_steps = 8 * (static_cast<std::uint64_t>(
                                  std::log2(static_cast<double>(config_.n))) +
                              1);
  if (config_.stagnation_limit == 0)
    config_.stagnation_limit = 2 * config_.n;

  rng_ = Xoshiro256SS(config_.seed ^ (0xC0A5E5505ULL + id_));
  input_ = input;
  x_ = input;
  y_ = kValBot;
  coin_flip_ = kValUnknown;
  pending_adopt_ = kValUnknown;
  pos_ = Position{};
  decided_ = false;
  decision_ = kValUnknown;
  decided_phase_ = 0;
  mode_ = Mode::kActive;
  helping_steps_left_ = 0;
  fanout_ = 1;
  tears_params_ = TearsConfig{};
  notified_.assign(config_.n, false);
  steps_taken_ = 0;
  core_violations_ = 0;
  reannouncements_ = 0;
  getcore_log_.clear();

  switch (config_.exchange) {
    case ExchangeKind::kAllToAll:
    case ExchangeKind::kEars:
      break;
    case ExchangeKind::kSears: {
      const double raw = config_.sears_fanout_constant *
                         std::pow(static_cast<double>(config_.n),
                                  config_.sears_epsilon) *
                         std::log(static_cast<double>(config_.n));
      fanout_ = static_cast<std::size_t>(
          std::clamp(std::ceil(raw), 1.0, static_cast<double>(config_.n)));
      break;
    }
    case ExchangeKind::kTears:
      tears_params_.n = config_.n;
      tears_params_.a_constant = config_.tears_a_constant;
      tears_params_.kappa_constant = config_.tears_kappa_constant;
      tears_params_.seed = config_.seed;
      tears_params_.finalize();
      break;
  }

  start_instance();
}

std::size_t ConsensusProcess::completion_threshold() const {
  if (config_.exchange == ExchangeKind::kAllToAll)
    return config_.n - config_.f;
  return majority_threshold(config_.n);
}

Val ConsensusProcess::own_rumor_value() const {
  switch (pos_.exchange) {
    case 0:
      return x_;
    case 1:
      return y_;
    default:
      return coin_flip_;
  }
}

void ConsensusProcess::reset_transport() {
  announced_ = false;
  stagnant_steps_ = 0;
  up_cnt_ = 0;
  up_cnt_step_start_ = 0;
  if (config_.exchange == ExchangeKind::kTears) {
    pi1_.clear();
    pi2_.clear();
    const double prob = static_cast<double>(tears_params_.a) /
                        static_cast<double>(config_.n);
    for (std::size_t q = 0; q < config_.n; ++q) {
      if (q == id_) continue;
      if (rng_.bernoulli(prob)) pi1_.push_back(static_cast<ProcessId>(q));
      if (rng_.bernoulli(prob)) pi2_.push_back(static_cast<ProcessId>(q));
    }
  }
}

void ConsensusProcess::start_instance() {
  inst_.reset(config_.n);
  inst_.add_own(id_, own_rumor_value());
  reset_transport();
  touch();
}

void ConsensusProcess::decide(Val v) {
  if (decided_) return;
  touch();
  decided_ = true;
  decision_ = v;
  decided_phase_ = pos_.phase;
  if (mode_ == Mode::kActive) {
    mode_ = Mode::kHelping;
    helping_steps_left_ = config_.help_steps;
  }
}

void ConsensusProcess::consume_getcore() {
  if (config_.log_getcore_returns && pos_.phase <= kMaxLoggedPhase)
    getcore_log_.push_back(GetCoreRecord{pos_, inst_});

  switch (pos_.exchange) {
    case 0: {
      y_ = evaluate_estimate_votes(inst_);
      pos_.exchange = 1;
      pos_.sub = 0;
      start_instance();
      break;
    }
    case 1: {
      const PreferenceOutcome out = evaluate_preference_votes(inst_);
      if (out.conflict) ++core_violations_;
      if (out.decide) decide(out.decision);
      pending_adopt_ = out.adopt;
      pos_.exchange = 2;
      pos_.sub = 0;
      coin_flip_ = rng_.bernoulli(1.0 / static_cast<double>(config_.n))
                       ? Val{0}
                       : Val{1};
      start_instance();
      break;
    }
    default: {
      const Val coin = evaluate_coin(inst_);
      x_ = pending_adopt_ != kValUnknown ? pending_adopt_ : coin;
      if (decided_) x_ = decision_;  // a decided process votes its decision
      pending_adopt_ = kValUnknown;
      ++pos_.phase;
      pos_.exchange = 0;
      pos_.sub = 0;
      // Participation through phase decided_phase + 1 is what the agreement
      // argument needs; beyond that, retire (the step budget still bounds
      // helpers whose extra phase never completes).
      if (decided_ && pos_.phase > decided_phase_ + 1) mode_ = Mode::kRetired;
      start_instance();
      break;
    }
  }
}

void ConsensusProcess::advance_if_complete() {
  // A sub-instance completes when enough origins' rumors are in. Advancing
  // can cascade only across sub-instances (a fresh instance restarts at a
  // single origin), so a plain loop is bounded by the get-core depth.
  while (inst_.origins.count() >= completion_threshold()) {
    if (pos_.sub < 2) {
      ++pos_.sub;
      // The rumor for the next sub-instance is the accumulated union; keep
      // items, restart the origin count from self.
      inst_.origins.clear_all();
      inst_.origins.set(id_);
      reset_transport();
      touch();
    } else {
      consume_getcore();
    }
  }
}

void ConsensusProcess::handle_message(const ConsensusPayload& m,
                                      std::vector<ProcessId>& notify) {
  if (m.decided && !decided_) decide(m.decision);

  if (mode_ == Mode::kRetired) {
    if (!m.decided && m.sender < notified_.size() && !notified_[m.sender]) {
      notified_[m.sender] = true;
      notify.push_back(m.sender);
    }
    return;
  }

  if (m.pos == pos_) {
    if (inst_.merge(m.state)) {
      stagnant_steps_ = 0;
      touch();
    }
    if (config_.exchange == ExchangeKind::kTears && m.flag_up) ++up_cnt_;
  } else if (m.pos > pos_) {
    // Catch up: adopt the sender's outcomes and position (paper Section 6).
    touch();
    x_ = m.sender_x == kValUnknown ? x_ : m.sender_x;
    y_ = m.sender_y;
    pos_ = m.pos;
    inst_ = m.state;
    if (pos_.exchange == 2 && coin_flip_ == kValUnknown)
      coin_flip_ = rng_.bernoulli(1.0 / static_cast<double>(config_.n))
                       ? Val{0}
                       : Val{1};
    pending_adopt_ = kValUnknown;
    inst_.add_own(id_, own_rumor_value());
    reset_transport();
    // The message that pulled us forward is itself a first-level message of
    // the adopted instance.
    if (config_.exchange == ExchangeKind::kTears && m.flag_up) up_cnt_ = 1;
    stagnant_steps_ = 0;
  } else {
    // Stale message. The all-to-all transport answers with a direct push of
    // the current state so the laggard can catch up (the gossip transports
    // reach laggards through their continuous sending).
    if (config_.exchange == ExchangeKind::kAllToAll && !m.decided &&
        m.sender < notified_.size())
      notify.push_back(m.sender);  // reuse the notify channel: send state
  }
}

PayloadPtr ConsensusProcess::snapshot(bool flag_up) {
  CachedSnapshot& cached = cached_[flag_up ? 1 : 0];
  if (cached.payload != nullptr && cached.epoch == epoch_)
    return cached.payload;
  std::shared_ptr<ConsensusPayload> p;
  if (reuse_payloads_) {
    // Drop stale cache references first, so a payload held only by kept_
    // shows use_count() == 1. Inside the engine that count is exact: every
    // engine reference is taken and dropped on the engine thread, ordered
    // before this step (under --engine-jobs too, by the shard pool's
    // barrier around the serial merge).
    for (CachedSnapshot& c : cached_)
      if (c.epoch != epoch_) c.payload.reset();
    for (const std::shared_ptr<ConsensusPayload>& k : kept_)
      if (k.use_count() == 1) {
        p = k;
        break;
      }
    if (p == nullptr) {
      p = std::make_shared<ConsensusPayload>();
      kept_.push_back(p);
    }
  } else {
    p = std::make_shared<ConsensusPayload>();
  }
  p->sender = id_;
  p->pos = pos_;
  p->state = inst_;
  p->sender_x = x_;
  p->sender_y = y_;
  p->decided = decided_;
  p->decision = decision_;
  p->flag_up = flag_up;
  cached.payload = p;
  cached.epoch = epoch_;
  return p;
}

bool ConsensusProcess::tears_trigger_crossed(std::uint64_t before,
                                             std::uint64_t after) const {
  if (after == before) return false;
  const std::uint64_t mu = tears_params_.mu;
  const std::uint64_t kappa = tears_params_.kappa;
  const std::uint64_t band_lo = mu > kappa ? mu - kappa : 0;
  const std::uint64_t band_hi_incl = mu + kappa - 1;
  const std::uint64_t lo = std::max(before + 1, band_lo);
  const std::uint64_t hi = std::min(after, band_hi_incl);
  if (lo <= hi) return true;
  if (after > mu) {
    const std::uint64_t first = std::max(before + 1, mu + kappa);
    if (first <= after) {
      const std::uint64_t off = first - mu;
      const std::uint64_t i = (off + kappa - 1) / kappa;
      if (mu + i * kappa <= after) return true;
    }
  }
  return false;
}

void ConsensusProcess::do_transport(StepContext& ctx) {
  switch (config_.exchange) {
    case ExchangeKind::kAllToAll: {
      const bool stuck = stagnant_steps_ >= config_.stagnation_limit;
      if (!announced_ || stuck) {
        if (stuck) ++reannouncements_;
        auto payload = snapshot(false);
        for (std::size_t q = 0; q < config_.n; ++q)
          if (q != id_) ctx.send(static_cast<ProcessId>(q), payload);
        announced_ = true;
        stagnant_steps_ = 0;
      }
      break;
    }
    case ExchangeKind::kEars: {
      ctx.send(static_cast<ProcessId>(rng_.uniform(config_.n)),
               snapshot(false));
      break;
    }
    case ExchangeKind::kSears: {
      auto payload = snapshot(false);
      rng_.sample_without_replacement(config_.n, fanout_, &targets_);
      for (std::uint64_t q : targets_)
        ctx.send(static_cast<ProcessId>(q), payload);
      break;
    }
    case ExchangeKind::kTears: {
      if (!announced_) {
        auto payload = snapshot(true);
        for (ProcessId q : pi1_) ctx.send(q, payload);
        announced_ = true;
      }
      if (tears_trigger_crossed(up_cnt_step_start_, up_cnt_)) {
        auto payload = snapshot(false);
        for (ProcessId q : pi2_) ctx.send(q, payload);
      }
      if (stagnant_steps_ >= config_.stagnation_limit) {
        ++reannouncements_;
        auto payload = snapshot(true);
        for (std::size_t q = 0; q < config_.n; ++q)
          if (q != id_) ctx.send(static_cast<ProcessId>(q), payload);
        stagnant_steps_ = 0;
      }
      break;
    }
  }
}

void ConsensusProcess::step(StepContext& ctx) {
  up_cnt_step_start_ = up_cnt_;
  reuse_payloads_ = ctx.payload_reuse_safe();
  notify_.clear();
  for (const Envelope& env : ctx.received()) {
    const auto* m = payload_cast<ConsensusPayload>(env);
    if (m != nullptr) handle_message(*m, notify_);
  }

  if (mode_ != Mode::kRetired) {
    advance_if_complete();
    do_transport(ctx);
    ++stagnant_steps_;
    if (mode_ == Mode::kHelping) {
      if (helping_steps_left_ == 0) {
        mode_ = Mode::kRetired;
      } else {
        --helping_steps_left_;
      }
    }
  }

  // Reactive pushes: decided notifications from retirees, catch-up pushes
  // from the all-to-all transport.
  if (!notify_.empty()) {
    auto payload = snapshot(false);
    for (ProcessId q : notify_) ctx.send(q, payload);
  }

  ++steps_taken_;
}

std::unique_ptr<Process> ConsensusProcess::clone() const {
  auto copy = std::make_unique<ConsensusProcess>(*this);
  // A kept payload may be overwritten once its count drops to one; two
  // owners would each see the other's reference, and the clone may step
  // outside the engine.
  copy->kept_.clear();
  for (CachedSnapshot& c : copy->cached_) c.payload.reset();
  return copy;
}

std::string ConsensusProcess::final_note() const {
  ConsensusNote note;
  note.decided = decided_;
  note.value = decision_;
  note.input = input_;
  note.phase = decided_phase_;
  note.core_violations = core_violations_;
  note.reannouncements = reannouncements_;
  return format_consensus_note(note);
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

bool consensus_all_decided(const Engine& engine) {
  for (ProcessId p = 0; p < engine.n(); ++p) {
    if (engine.crashed(p)) continue;
    if (!engine.process_as<ConsensusProcess>(p).decided()) return false;
  }
  return true;
}

bool consensus_quiet(const Engine& engine) {
  if (!engine.network_empty()) return false;
  for (ProcessId p = 0; p < engine.n(); ++p) {
    if (engine.crashed(p)) continue;
    const auto& cp = engine.process_as<ConsensusProcess>(p);
    if (!cp.decided() || !cp.retired()) return false;
  }
  return true;
}

Engine make_consensus_engine(const ConsensusSpec& spec) {
  const std::size_t n = spec.config.n;
  AG_ASSERT_MSG(n >= 3, "consensus spec needs n >= 3");

  Xoshiro256SS input_rng(spec.seed ^ 0x1B9075ULL);
  std::vector<std::unique_ptr<Process>> procs;
  procs.reserve(n);
  for (std::size_t p = 0; p < n; ++p) {
    Val input = 0;
    switch (spec.inputs) {
      case InputPattern::kAllZero:
        input = 0;
        break;
      case InputPattern::kAllOne:
        input = 1;
        break;
      case InputPattern::kHalfHalf:
        input = p % 2 == 0 ? Val{0} : Val{1};
        break;
      case InputPattern::kRandom:
        input = input_rng.bernoulli(0.5) ? Val{1} : Val{0};
        break;
    }
    ConsensusConfig cfg = spec.config;
    // The processes' randomness (coin flips, targets) must vary with the
    // spec seed, not only with the config seed.
    cfg.seed = spec.config.seed ^ (spec.seed * 0x9E3779B97F4A7C15ULL);
    procs.push_back(std::make_unique<ConsensusProcess>(
        static_cast<ProcessId>(p), input, cfg));
  }

  ObliviousConfig adv;
  adv.n = n;
  adv.d = spec.d;
  adv.delta = spec.delta;
  adv.schedule = spec.schedule;
  adv.delay = spec.delay;
  adv.crash_plan =
      random_crashes(n, spec.config.f, spec.crash_horizon, spec.seed ^ 0xF417ULL);
  adv.seed = spec.seed ^ 0xAD7C025ULL;

  EngineConfig ecfg;
  ecfg.d = spec.d;
  ecfg.delta = spec.delta;
  ecfg.max_crashes = spec.config.f;

  return Engine(std::move(procs), std::make_unique<ObliviousAdversary>(adv),
                ecfg);
}

ConsensusOutcome run_consensus_spec(const ConsensusSpec& spec) {
  Engine engine = make_consensus_engine(spec);
  const std::size_t n = spec.config.n;
  Time budget = spec.max_steps;
  if (budget == 0) {
    const double lg = std::log2(static_cast<double>(n)) + 1.0;
    budget = static_cast<Time>(
        2000.0 * lg * lg * static_cast<double>(spec.d + spec.delta) +
        static_cast<double>(64 * n));
  }

  ConsensusOutcome out;
  out.all_decided = engine.run_until(consensus_all_decided, budget);
  out.decision_time = engine.now();
  out.messages_at_decision = engine.metrics().messages_sent();

  engine.run_until(consensus_quiet, budget);
  const Metrics& m = engine.metrics();
  out.quiet_time = m.any_send() ? m.last_send_time() + 1 : 0;
  out.total_messages = m.messages_sent();
  out.total_bytes = m.bytes_sent();
  out.realized_d = m.realized_d();
  out.realized_delta = m.realized_delta();
  out.alive = engine.alive_count();

  out.agreement = true;
  out.validity = true;
  bool saw0_input = false, saw1_input = false;
  for (ProcessId p = 0; p < engine.n(); ++p) {
    const auto& cp = engine.process_as<ConsensusProcess>(p);
    if (cp.input() == 0) saw0_input = true;
    if (cp.input() == 1) saw1_input = true;
  }
  for (ProcessId p = 0; p < engine.n(); ++p) {
    if (engine.crashed(p)) continue;
    const auto& cp = engine.process_as<ConsensusProcess>(p);
    out.max_phase = std::max(out.max_phase, cp.position().phase);
    out.decision_phase = std::max(out.decision_phase, cp.decided_phase());
    out.core_violations += cp.core_violations();
    out.reannouncements += cp.reannouncements();
    if (!cp.decided()) continue;
    if (out.decided_value == kValUnknown) out.decided_value = cp.decision();
    if (cp.decision() != out.decided_value) out.agreement = false;
    const bool valid = (cp.decision() == 0 && saw0_input) ||
                       (cp.decision() == 1 && saw1_input);
    if (!valid) out.validity = false;
  }
  return out;
}

}  // namespace asyncgossip
