#include "sim/engine.h"

#include <algorithm>
#include <thread>

namespace asyncgossip {

// ---------------------------------------------------------------------------
// EngineView
// ---------------------------------------------------------------------------

std::size_t EngineView::n() const { return engine_->n(); }
Time EngineView::now() const { return engine_->now(); }
bool EngineView::crashed(ProcessId p) const { return engine_->crashed(p); }
std::size_t EngineView::alive_count() const { return engine_->alive_count(); }
std::size_t EngineView::crash_budget_left() const {
  return engine_->config().max_crashes - engine_->crashes_so_far();
}
const Process& EngineView::process(ProcessId p) const {
  return engine_->process(p);
}
const Metrics& EngineView::metrics() const { return engine_->metrics(); }
std::size_t EngineView::in_flight_count() const {
  return engine_->in_flight_count();
}
std::vector<Envelope> EngineView::pending_for(ProcessId p) const {
  return engine_->pending_for(p);
}
std::size_t EngineView::pending_count(ProcessId p) const {
  return engine_->pending_count(p);
}
void EngineView::for_each_pending(ProcessId p,
                                  FunctionRef<bool(const Envelope&)> fn) const {
  engine_->for_each_pending(p, fn);
}
std::uint64_t EngineView::local_steps_of(ProcessId p) const {
  return engine_->local_steps_of(p);
}
std::unique_ptr<Process> EngineView::fork_process(ProcessId p) const {
  return engine_->fork_process(p);
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

namespace {

/// Materializes the borrowed Envelope view of arena entry `e`, held in
/// `to`'s wheel (see sim/message.h on view lifetimes).
Envelope view_of(const EnvelopeArena::Entry& e, ProcessId to,
                 const PayloadPool& pool) {
  Envelope env;
  env.id = e.id;
  env.from = e.from;
  env.to = to;
  env.send_time = e.send_time;
  env.deliver_after = e.deliver_after;
  env.payload = PayloadRef::borrowed(pool.raw(e.payload));
  return env;
}

/// Visits the entries of `count` bucket chains in global send order: every
/// chain is id-sorted, so repeatedly taking the minimum head id is a k-way
/// merge with no copy-then-sort. Delivery (run_slot) and pending_for share
/// it, so they cannot disagree on order. `cursors` is scratch.
template <typename F>
void merge_chains(const EnvelopeArena& arena,
                  const EnvelopeArena::Bucket* chains, std::size_t count,
                  std::vector<EnvelopeArena::Cursor>& cursors, F&& visit) {
  cursors.clear();
  for (std::size_t i = 0; i < count; ++i)
    if (!arena.chain_empty(chains[i]))
      cursors.push_back(arena.cursor(chains[i]));
  if (cursors.size() == 1) {
    for (EnvelopeArena::Cursor& c = cursors[0]; !arena.at_end(c);
         arena.advance(c))
      visit(arena.at(c));
    return;
  }
  for (;;) {
    std::size_t best = cursors.size();
    MessageId best_id = kNoMessageId;  // never a real id
    for (std::size_t i = 0; i < cursors.size(); ++i)
      if (!arena.at_end(cursors[i]) && arena.at(cursors[i]).id < best_id) {
        best = i;
        best_id = arena.at(cursors[i]).id;
      }
    if (best == cursors.size()) return;
    visit(arena.at(cursors[best]));
    arena.advance(cursors[best]);
  }
}

}  // namespace

/// Captures StepContext::probe_* calls made during a slot's process step so
/// merge_slot can replay them into the real sink in schedule order (worker
/// threads must not touch the user's sink).
class Engine::RecordingProbeSink final : public ProbeSink {
 public:
  explicit RecordingProbeSink(std::vector<ProbeRecord>* out) : out_(out) {}

  void on_phase(Time /*now*/, ProcessId /*p*/, const char* phase) override {
    out_->push_back(ProbeRecord{phase, 0, 0});
  }
  void on_state(Time /*now*/, ProcessId /*p*/, std::uint64_t rumors_known,
                std::uint64_t rumors_fully_informed) override {
    out_->push_back(ProbeRecord{nullptr, rumors_known, rumors_fully_informed});
  }

 private:
  std::vector<ProbeRecord>* out_;
};

Engine::Engine(std::vector<std::unique_ptr<Process>> processes,
               std::unique_ptr<Adversary> adversary, EngineConfig config)
    : processes_(std::move(processes)),
      adversary_(std::move(adversary)),
      metrics_(processes_.size()) {
  if (processes_.empty()) throw ApiError("Engine needs at least one process");
  for (const auto& p : processes_)
    if (p == nullptr) throw ApiError("null process");
  if (adversary_ == nullptr) throw ApiError("null adversary");
  restart(config);
}

void Engine::restart(const EngineConfig& config) {
  const std::size_t n = processes_.size();
  if (config.d < 1 || config.delta < 1)
    throw ApiError("model bounds d and delta must be >= 1");
  if (config.max_crashes >= n)
    throw ApiError("crash budget f must satisfy f < n");
  for (EnvelopeArena::Bucket& b : wheel_) release_chain(b);
  if (config.jobs != config_.jobs) pool_.reset();
  config_ = config;
  jobs_ = config_.jobs != 0
              ? config_.jobs
              : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  metrics_.reset(n);
  now_ = 0;
  crashed_.assign(n, false);
  alive_count_ = n;
  crashes_ = 0;
  wheel_width_ = static_cast<std::size_t>(config_.d + config_.delta + 1);
  wheel_.assign(n * wheel_width_, EnvelopeArena::Bucket{});
  pending_count_.assign(n, 0);
  in_flight_total_ = 0;
  last_step_time_.assign(n, 0);
  stepped_once_.assign(n, false);
  local_steps_.assign(n, 0);
  next_message_id_ = 0;
  trace_hash_ = kTraceHashSeed;
  want_scratch_.assign(n, 0);
  schedule_scratch_.reserve(n);
  if (slots_.empty()) slots_.resize(1);
}

void Engine::run(Time steps) {
  for (Time i = 0; i < steps; ++i) advance_one_step();
}

bool Engine::run_until(FunctionRef<bool(const Engine&)> done, Time max_steps) {
  for (Time i = 0; i < max_steps; ++i) {
    if (done(*this)) return true;
    advance_one_step();
  }
  return done(*this);
}

std::vector<Envelope> Engine::pending_for(ProcessId p) const {
  std::vector<Envelope> out;
  out.reserve(pending_count_[p]);
  std::vector<EnvelopeArena::Cursor> cursors;
  merge_chains(arena_, &wheel_[p * wheel_width_], wheel_width_, cursors,
               [&](const EnvelopeArena::Entry& e) {
                 Envelope env = view_of(e, p, payloads_);
                 // Callers (the adaptive adversary) may retain these past
                 // the next step: hand out owning references.
                 env.payload = PayloadRef(payloads_.share(e.payload));
                 out.push_back(std::move(env));
               });
  return out;
}

void Engine::for_each_pending(ProcessId p,
                              FunctionRef<bool(const Envelope&)> fn) const {
  const std::size_t base = p * wheel_width_;
  for (std::size_t s = 0; s < wheel_width_; ++s)
    for (EnvelopeArena::Cursor c = arena_.cursor(wheel_[base + s]);
         !arena_.at_end(c); arena_.advance(c))
      if (!fn(view_of(arena_.at(c), p, payloads_))) return;
}

void Engine::release_chain(EnvelopeArena::Bucket& b) {
  arena_.for_chain(
      b, [&](const EnvelopeArena::Entry& e) { payloads_.release(e.payload); });
  arena_.recycle(b);
}

void Engine::hash_mix(std::uint64_t v) {
  trace_hash_ ^= v;
  trace_hash_ *= 0x100000001b3ULL;
}

void Engine::apply_crashes(const std::vector<ProcessId>& crash_list) {
  for (ProcessId p : crash_list) {
    AG_ASSERT_MSG(p < processes_.size(), "crash target out of range");
    if (crashed_[p]) continue;
    if (crashes_ + 1 > config_.max_crashes)
      throw ModelViolation("adversary exceeded crash budget f");
    crashed_[p] = true;
    ++crashes_;
    --alive_count_;
    metrics_.record_crash();
    for (EngineObserver* o : observers_) o->on_crash(now_, p);
    // A crashed process never steps again; its pending messages are moot.
    in_flight_total_ -= pending_count_[p];
    pending_count_[p] = 0;
    const std::size_t base = p * wheel_width_;
    for (std::size_t s = 0; s < wheel_width_; ++s)
      release_chain(wheel_[base + s]);
    hash_mix(0xC0DEull ^ p);
  }
}

const std::vector<ProcessId>& Engine::effective_schedule(
    const std::vector<ProcessId>& proposed) {
  std::fill(want_scratch_.begin(), want_scratch_.end(), 0);
  for (ProcessId p : proposed) {
    AG_ASSERT_MSG(p < processes_.size(), "scheduled process out of range");
    if (!crashed_[p]) want_scratch_[p] = 1;
  }
  // Enforce the delta contract: a live process whose deadline has arrived
  // must step now.
  for (ProcessId p = 0; p < processes_.size(); ++p) {
    if (crashed_[p] || want_scratch_[p] != 0) continue;
    const Time deadline = stepped_once_[p] ? last_step_time_[p] + config_.delta
                                           : config_.delta - 1;
    if (now_ >= deadline) {
      if (config_.strict)
        throw ModelViolation(
            "adversary left a live process unscheduled past its delta "
            "deadline");
      want_scratch_[p] = 1;
    }
  }
  schedule_scratch_.clear();
  for (ProcessId p = 0; p < processes_.size(); ++p)
    if (want_scratch_[p] != 0) schedule_scratch_.push_back(p);
  return schedule_scratch_;
}

void Engine::run_slot(ProcessId p, SlotResult& slot, FlightRing* ring) {
  slot.delivered.clear();
  slot.drained.clear();
  slot.outbox.clear();
  slot.probes.clear();
  {
    const FlightZone zone(ring, FlightZoneId::kWheelDrain, p, now_);
    if (pending_count_[p] != 0) {
      // Due slots: every deadline in (last step, now]. The engine's delta
      // enforcement bounds this span by delta < wheel_width_, and the wheel
      // is wide enough that these buckets hold due messages only (future
      // deadlines land in other slots; see engine.h).
      const Time t_lo = stepped_once_[p] ? last_step_time_[p] + 1 : 0;
      AG_ASSERT_MSG(now_ - t_lo < wheel_width_,
                    "scheduling gap exceeded the timing-wheel width");
      for (Time t = t_lo; t <= now_; ++t) {
        EnvelopeArena::Bucket& b = bucket(p, t);
        if (!arena_.chain_empty(b)) {
          // Detach the chain; its slabs are recycled at the merge (the
          // arena free list is engine-thread-only).
          slot.drained.push_back(b);
          b = EnvelopeArena::Bucket{};
        }
      }
      // Only a multi-chain drain is a real merge worth a profiling zone.
      const FlightZone merge_zone(slot.drained.size() > 1 ? ring : nullptr,
                                  FlightZoneId::kKwayMerge, p, now_);
      merge_chains(arena_, slot.drained.data(), slot.drained.size(),
                   slot.cursors, [&](const EnvelopeArena::Entry& e) {
                     slot.delivered.push_back(view_of(e, p, payloads_));
                   });
    }
  }
  StepContext ctx(p, processes_.size(), local_steps_[p], slot.delivered,
                  slot.outbox);
  ctx.allow_payload_reuse();
  RecordingProbeSink recorder(&slot.probes);
  if (probe_sink_ != nullptr) ctx.attach_probe(&recorder, now_);
  {
    const FlightZone zone(ring, FlightZoneId::kStepDispatch, p, now_);
    processes_[p]->step(ctx);
  }
}

void Engine::merge_slot(ProcessId p, SlotResult& slot) {
  const Time prev_step = stepped_once_[p] ? last_step_time_[p] : kTimeMax;
  const Time gap = stepped_once_[p] ? now_ - last_step_time_[p] : now_ + 1;
  metrics_.record_gap(gap);
  for (EngineObserver* o : observers_) o->on_step(now_, p);
  for (const Envelope& env : slot.delivered) {
    metrics_.record_delivery(p, env.send_time, prev_step, now_);
    for (EngineObserver* o : observers_) o->on_delivery(env, now_);
    if (flight_ != nullptr)
      flight_record_deliver(flight_, env.id, env.from, p, now_, env.send_time);
    hash_mix(0xDE11ull ^ env.id);
  }
  in_flight_total_ -= slot.delivered.size();
  pending_count_[p] -= slot.delivered.size();
  if (probe_sink_ != nullptr) {
    for (const ProbeRecord& r : slot.probes) {
      if (r.phase != nullptr)
        probe_sink_->on_phase(now_, p, r.phase);
      else
        probe_sink_->on_state(now_, p, r.a, r.b);
    }
  }
  dispatch_sends(p, slot.outbox);
  slot.outbox.clear();
  // Delivered payload references and slabs are dead past this point: the
  // process step consumed the views and every observer has run. A drained
  // chain holds exactly the delivered entries.
  for (EnvelopeArena::Bucket& b : slot.drained) release_chain(b);
  last_step_time_[p] = now_;
  stepped_once_[p] = true;
  ++local_steps_[p];
  metrics_.record_local_step();
  hash_mix(0x57E4ull ^ p ^ (now_ << 16));
}

void Engine::dispatch_sends(ProcessId from,
                            std::vector<StepContext::Outgoing>& out) {
  const EngineView view(*this);
  // Payloads are immutable and each stays alive until the loop ends (in
  // the pool or in `out`), so a pointer memo cannot go stale: a fan-out of
  // one payload is sized once.
  const Payload* sized = nullptr;
  std::size_t size = 0;
  // The owner of a fan-out run whose destination crashed, kept for the
  // run's non-owning aliases (StepContext::send).
  PayloadPtr skipped_owner;
  for (StepContext::Outgoing& o : out) {
    AG_ASSERT_MSG(o.to < processes_.size(), "send target out of range");
    Envelope env;
    env.id = next_message_id_++;
    env.from = from;
    env.to = o.to;
    env.send_time = now_;
    env.payload = PayloadRef::borrowed(o.payload.get());
    Time delay = adversary_->message_delay(env, view);
    delay = std::clamp<Time>(delay, 1, config_.d);
    env.deliver_after = now_ + delay;
    if (env.payload.get() != sized) {
      sized = env.payload.get();
      size = sized != nullptr ? sized->byte_size() : 0;
    }
    metrics_.record_send(from, now_, size);
    for (EngineObserver* obs : observers_) obs->on_send(env);
    if (flight_ != nullptr)
      flight_record_send(flight_, env.id, env.from, env.to, now_,
                         env.deliver_after);
    hash_mix(0x5E4Dull ^ env.id ^ (static_cast<std::uint64_t>(env.to) << 32));
    const bool alias = o.payload != nullptr && o.payload.use_count() == 0;
    if (crashed_[env.to]) {  // delivery to a crashed process is moot
      if (!alias) skipped_owner = std::move(o.payload);
      continue;
    }
    // Interning after the crash check keeps doomed payloads out of the pool;
    // intern + append in send order keeps every chain sorted by message id.
    // An alias hits the pool's memo, which holds its run's owner, unless
    // the owner's destination crashed: then it interns the owner.
    PayloadPtr& source = alias && !payloads_.memoized(o.payload.get())
                             ? skipped_owner
                             : o.payload;
    AG_ASSERT_MSG(source.get() == o.payload.get(), "fan-out run lost its owner");
    const std::uint32_t handle = payloads_.intern(std::move(source));
    arena_.append(bucket(env.to, env.deliver_after),
                  {env.id, env.send_time, env.deliver_after, env.from, handle});
    ++pending_count_[env.to];
    ++in_flight_total_;
  }
}

void Engine::advance_one_step() {
  const EngineView view(*this);
  adversary_->decide_into(now_, view, decision_);

  apply_crashes(decision_.crash);
  const std::vector<ProcessId>& schedule =
      effective_schedule(decision_.schedule);

  // Serial and sharded stepping share the same two phases per slot; the
  // serial path simply interleaves them, which reproduces the historical
  // event order exactly — and because merge_slot replays every side effect
  // in schedule order either way, both paths emit the same event stream
  // bit for bit (see the sharding notes in engine.h).
  if (jobs_ <= 1 || schedule.size() < 2) {
    for (ProcessId p : schedule) {
      run_slot(p, slots_[0], flight_);
      merge_slot(p, slots_[0]);
    }
  } else {
    if (slots_.size() < schedule.size()) slots_.resize(schedule.size());
    if (pool_ == nullptr) pool_ = std::make_unique<ShardPool>(jobs_ - 1);
    pool_->run(schedule.size(), [&](std::size_t i) {
      // Worker phase: frozen pre-step snapshot, per-slot buffers, no
      // flight ring (it is single-producer; spans are emitted at the
      // merge, only the profiling zones are engine-thread-only).
      run_slot(schedule[i], slots_[i], nullptr);
    });
    for (std::size_t i = 0; i < schedule.size(); ++i)
      merge_slot(schedule[i], slots_[i]);
  }

  metrics_.record_in_flight(in_flight_total_);

  ++now_;
}

}  // namespace asyncgossip
