// Slab-arena and payload-pool unit tests (sim/envelope_arena.h), plus
// engine-level checks that the arena actually reaches its design goal:
// zero steady-state slab growth once the execution's standing in-flight
// volume is covered, with slabs recycled across timing-wheel wraparounds —
// and that the packed record layout round-trips every envelope field.
#include "sim/envelope_arena.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "gossip/harness.h"
#include "sim/engine.h"
#include "sim/oblivious.h"
#include "sim/observer.h"

namespace asyncgossip {
namespace {

struct TestPayload final : Payload {
  explicit TestPayload(std::size_t size) : bytes(size) {}
  std::size_t byte_size() const override { return bytes; }
  std::size_t bytes;
};

// The hot path's memory contract: one envelope is one 32-byte record.
static_assert(sizeof(EnvelopeArena::Entry) == 32,
              "an arena entry must stay one packed 32-byte record");

// --- PayloadPool --------------------------------------------------------

TEST(EnvelopeArena, PayloadInterningSharesOneSlotAcrossFanout) {
  PayloadPool pool;
  const auto payload = std::make_shared<const TestPayload>(16);
  // One payload fanned out to 5 destinations: consecutive interns must hit
  // the memo and share a slot with refcount 5.
  const std::uint32_t h0 = pool.intern(payload);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(pool.intern(payload), h0);
  EXPECT_EQ(pool.ref_count(h0), 5u);
  EXPECT_EQ(pool.interned_total(), 1u);
  EXPECT_EQ(pool.live(), 1u);
  EXPECT_EQ(pool.raw(h0), payload.get());

  for (int i = 0; i < 5; ++i) pool.release(h0);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.peak(), 1u);
  EXPECT_EQ(pool.raw(h0), nullptr) << "slot must drop its reference at zero";
}

TEST(EnvelopeArena, PayloadSlotReuseAfterRelease) {
  PayloadPool pool;
  const auto a = std::make_shared<const TestPayload>(1);
  const std::uint32_t ha = pool.intern(a);
  pool.release(ha);
  // The freed slot must be reused, and the memo must NOT resurrect the old
  // handle for a new payload that happens to land at the same address class.
  const auto b = std::make_shared<const TestPayload>(2);
  const std::uint32_t hb = pool.intern(b);
  EXPECT_EQ(hb, ha) << "freed slot should be recycled";
  EXPECT_EQ(pool.raw(hb), b.get());
  EXPECT_EQ(pool.interned_total(), 2u);
  EXPECT_EQ(pool.peak(), 1u);
  pool.release(hb);
}

TEST(EnvelopeArena, NullPayloadIsTheSentinelHandle) {
  PayloadPool pool;
  EXPECT_EQ(pool.intern(nullptr), PayloadPool::kNoPayload);
  EXPECT_EQ(pool.raw(PayloadPool::kNoPayload), nullptr);
  EXPECT_EQ(pool.share(PayloadPool::kNoPayload), nullptr);
  pool.release(PayloadPool::kNoPayload);  // must be a no-op
  EXPECT_EQ(pool.live(), 0u);
}

TEST(EnvelopeArena, ShareKeepsThePayloadAliveAfterRelease) {
  PayloadPool pool;
  auto payload = std::make_shared<const TestPayload>(8);
  const Payload* raw = payload.get();
  const std::uint32_t h = pool.intern(std::move(payload));
  const PayloadPtr kept = pool.share(h);  // owning copy (pending_for seam)
  pool.release(h);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(kept.get(), raw) << "shared copy must outlive the pool slot";
}

// --- slab chains --------------------------------------------------------

TEST(EnvelopeArena, AppendPreservesOrderAcrossSlabBoundaries) {
  EnvelopeArena arena;
  EnvelopeArena::Bucket b;
  // 3 slabs' worth plus a remainder: order must survive chain links.
  const std::size_t kCount = EnvelopeArena::kSlabEntries * 3 + 5;
  const std::size_t kSlabs =
      (kCount + EnvelopeArena::kSlabEntries - 1) / EnvelopeArena::kSlabEntries;
  for (std::size_t i = 0; i < kCount; ++i)
    arena.append(b, {/*id=*/i, /*send_time=*/i, /*deliver_after=*/i + 1,
                     /*from=*/1, PayloadPool::kNoPayload});
  std::vector<MessageId> ids;
  arena.for_chain(
      b, [&](const EnvelopeArena::Entry& e) { ids.push_back(e.id); });
  ASSERT_EQ(ids.size(), kCount);
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(ids[i], i);
  EXPECT_EQ(arena.stats().slab_allocations, kSlabs);
  arena.recycle(b);
  EXPECT_TRUE(arena.chain_empty(b));
  EXPECT_EQ(arena.stats().slabs_free, kSlabs);
}

TEST(EnvelopeArena, RecycledSlabsAreReusedNotReallocated) {
  EnvelopeArena arena;
  // Simulate wheel wraparound: fill a bucket, recycle it, fill the next.
  // After the first lap the arena must serve every acquisition from the
  // free list — allocations frozen, reuses climbing.
  EnvelopeArena::Bucket buckets[4];
  MessageId id = 0;
  for (int lap = 0; lap < 8; ++lap) {
    for (EnvelopeArena::Bucket& b : buckets) {
      for (std::size_t i = 0; i < EnvelopeArena::kSlabEntries * 2; ++i)
        arena.append(b, {id++, 0, 1, 0, PayloadPool::kNoPayload});
      arena.recycle(b);
    }
    if (lap == 0) {
      // Worst case within one lap: one bucket's slabs are always free while
      // another fills, so capacity stays at a lap's working set.
      EXPECT_LE(arena.stats().slab_allocations, 8u);
    }
  }
  const ArenaStats st = arena.stats();
  EXPECT_LE(st.slab_allocations, 8u)
      << "steady-state laps must not allocate new slabs";
  EXPECT_GT(st.slab_reuses, 40u);
  EXPECT_EQ(st.slab_capacity, st.slabs_free) << "all chains were recycled";
}

// --- engine integration -------------------------------------------------

/// Deterministic fixed-fanout process: sends one payload to its ring
/// successor every step, so the standing in-flight volume is constant and
/// slab growth must stop after the wheel's first lap.
class RingSender final : public Process {
 public:
  RingSender(ProcessId self, std::size_t n) : self_(self), n_(n) {}

  void step(StepContext& ctx) override {
    ctx.send((self_ + 1) % n_, std::make_shared<const TestPayload>(4));
  }
  std::unique_ptr<Process> clone() const override {
    return std::make_unique<RingSender>(self_, n_);
  }
  void reseed(std::uint64_t) override {}

 private:
  ProcessId self_;
  std::size_t n_;
};

Engine make_test_engine(std::vector<std::unique_ptr<Process>> procs, Time d,
                        Time delta, SchedulePattern schedule,
                        DelayPattern delay, std::size_t f = 0,
                        CrashPlan crashes = {}) {
  ObliviousConfig adv;
  adv.n = procs.size();
  adv.d = d;
  adv.delta = delta;
  adv.schedule = schedule;
  adv.delay = delay;
  adv.crash_plan = std::move(crashes);
  adv.seed = 42;
  EngineConfig ecfg;
  ecfg.d = d;
  ecfg.delta = delta;
  ecfg.max_crashes = f;
  return Engine(std::move(procs), std::make_unique<ObliviousAdversary>(adv),
                ecfg);
}

Engine make_ring_engine(std::size_t n, Time d, Time delta,
                        DelayPattern delay) {
  std::vector<std::unique_ptr<Process>> procs;
  for (ProcessId p = 0; p < n; ++p)
    procs.push_back(std::make_unique<RingSender>(p, n));
  return make_test_engine(std::move(procs), d, delta,
                          SchedulePattern::kLockStep, delay);
}

TEST(EnvelopeArena, EngineSteadyStateAllocatesNoSlabs) {
  // Deterministic unit delays: the standing per-bucket occupancy is fixed,
  // so after the wheel's first lap (which still rotates through every slot)
  // the arena must serve the run entirely from recycled slabs.
  Engine engine = make_ring_engine(64, 6, 3, DelayPattern::kUnitDelay);
  const Time wheel = 6 + 3 + 1;
  engine.run(4 * wheel);
  const ArenaStats warm = engine.arena_stats();
  ASSERT_GT(warm.slab_allocations, 0u);
  engine.run(16 * wheel);
  const ArenaStats done = engine.arena_stats();
  EXPECT_EQ(done.slab_allocations, warm.slab_allocations)
      << "steady-state stepping grew the arena";
  EXPECT_GT(done.slab_reuses, warm.slab_reuses);
  EXPECT_EQ(done.payload_pool_live, engine.in_flight_count())
      << "one live pool slot per distinct in-flight payload (fanout 1)";
}

TEST(EnvelopeArena, RandomDelaysGrowSublinearlyNeverPerStep) {
  // Uniform random delays make per-bucket occupancy a multinomial draw, so
  // the arena's high-water mark can creep as rare spikes land — but growth
  // must track the occupancy maximum (slow, bounded by the in-flight
  // volume), never the step count: recycling absorbs the common case.
  Engine engine = make_ring_engine(64, 6, 3, DelayPattern::kUniform);
  const Time wheel = 6 + 3 + 1;
  engine.run(4 * wheel);
  const ArenaStats warm = engine.arena_stats();
  const Time more = 16 * wheel;
  engine.run(more);
  const ArenaStats done = engine.arena_stats();
  EXPECT_LT(done.slab_allocations - warm.slab_allocations,
            static_cast<std::uint64_t>(more) / 4)
      << "allocation rate must collapse once the wheel is warm";
  EXPECT_GT(done.slab_reuses,
            warm.slab_reuses + static_cast<std::uint64_t>(more))
      << "the common case must be served from the free list";
}

TEST(EnvelopeArena, EngineStatsReportPayloadPool) {
  GossipSpec spec;
  spec.algorithm = GossipAlgorithm::kEars;
  spec.n = 32;
  spec.f = 0;
  spec.d = 3;
  spec.delta = 2;
  spec.schedule = SchedulePattern::kStaggered;
  spec.delay = DelayPattern::kUniform;
  Engine engine = make_gossip_engine(spec);
  engine.run(48);
  const ArenaStats st = engine.arena_stats();
  EXPECT_GT(st.payloads_interned, 0u);
  EXPECT_GE(st.payload_pool_peak, st.payload_pool_live);
  EXPECT_GE(st.slab_capacity, st.slabs_free);
}

// --- record layout round trip --------------------------------------------

/// The envelope fields a process saw, payload by address.
struct SeenEnvelope {
  MessageId id;
  ProcessId from;
  ProcessId to;
  Time send_time;
  Time deliver_after;
  const Payload* payload;

  explicit SeenEnvelope(const Envelope& env)
      : id(env.id), from(env.from), to(env.to), send_time(env.send_time),
        deliver_after(env.deliver_after), payload(env.payload.get()) {}
  bool operator==(const SeenEnvelope& o) const {
    return id == o.id && from == o.from && to == o.to &&
           send_time == o.send_time && deliver_after == o.deliver_after &&
           payload == o.payload;
  }
};

/// Records every send as the engine saw it before storing it; ids are
/// dense, so sends[id] is message id's envelope.
struct SendLog final : EngineObserver {
  void on_send(const Envelope& env) override {
    ASSERT_EQ(env.id, sends.size());
    sends.emplace_back(env);
  }
  std::vector<SeenEnvelope> sends;
};

/// Logs every received envelope into (*log)[self], then sends one fresh
/// payload to three spread-out targets while its send budget lasts.
class LoggingSender final : public Process {
 public:
  LoggingSender(ProcessId self, std::size_t n, std::uint64_t sends,
                std::vector<std::vector<SeenEnvelope>>* log)
      : self_(self), n_(n), sends_left_(sends), log_(log) {}

  void step(StepContext& ctx) override {
    if (log_ != nullptr)
      for (const Envelope& env : ctx.received())
        (*log_)[self_].emplace_back(env);
    if (sends_left_ == 0) return;
    --sends_left_;
    const auto payload = std::make_shared<const TestPayload>(self_ + 1);
    for (std::size_t k = 1; k <= 3; ++k)
      ctx.send(static_cast<ProcessId>(
                   (self_ * 7 + ctx.local_step() * 3 + k * 5) % n_),
               payload);
  }
  std::unique_ptr<Process> clone() const override {
    return std::make_unique<LoggingSender>(*this);
  }
  void reseed(std::uint64_t) override {}

 private:
  ProcessId self_;
  std::size_t n_;
  std::uint64_t sends_left_;
  std::vector<std::vector<SeenEnvelope>>* log_;
};

TEST(EnvelopeArena, DeliveredEnvelopesMatchPendingForAcrossBucketMerges) {
  // d = 16, delta = 4, staggered: a process that skipped steps drains
  // several due buckets at once, so delivery goes through the k-way merge.
  // Every envelope it sees must equal, field by field and in order, the
  // due part of what pending_for reported for it just before the step, and
  // the envelope the engine was given at send time.
  constexpr std::size_t kN = 24;
  std::vector<std::vector<SeenEnvelope>> log(kN);
  std::vector<std::unique_ptr<Process>> procs;
  for (ProcessId p = 0; p < kN; ++p)
    procs.push_back(std::make_unique<LoggingSender>(p, kN, 1000, &log));
  Engine engine = make_test_engine(std::move(procs), 16, 4,
                                   SchedulePattern::kStaggered,
                                   DelayPattern::kUniform);
  SendLog sent;
  engine.set_observer(&sent);
  std::size_t multi_bucket_drains = 0;
  std::size_t compared = 0;
  for (Time t = 0; t < 160; ++t) {
    const Time now = engine.now();
    std::vector<std::vector<Envelope>> pending(kN);
    std::vector<std::uint64_t> steps_before(kN);
    for (ProcessId p = 0; p < kN; ++p) {
      pending[p] = engine.pending_for(p);
      steps_before[p] = engine.local_steps_of(p);
      log[p].clear();
    }
    engine.run(1);
    for (ProcessId p = 0; p < kN; ++p) {
      if (engine.local_steps_of(p) == steps_before[p]) {
        EXPECT_TRUE(log[p].empty());
        continue;
      }
      std::vector<SeenEnvelope> expected;
      for (const Envelope& env : pending[p])
        if (env.deliver_after <= now) expected.emplace_back(env);
      ASSERT_EQ(log[p].size(), expected.size()) << "p " << p << " at " << now;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_TRUE(log[p][i] == expected[i])
            << "p " << p << " at " << now << ", delivery " << i;
        ASSERT_LT(log[p][i].id, sent.sends.size());
        EXPECT_TRUE(log[p][i] == sent.sends[log[p][i].id])
            << "p " << p << " at " << now << ", delivery " << i;
      }
      compared += expected.size();
      bool multi_bucket = false;
      for (std::size_t i = 1; i < log[p].size(); ++i) {
        EXPECT_LT(log[p][i - 1].id, log[p][i].id) << "delivery is send order";
        multi_bucket |= log[p][i].deliver_after != log[p][0].deliver_after;
      }
      multi_bucket_drains += multi_bucket ? 1 : 0;
    }
  }
  EXPECT_GT(compared, 1000u);
  EXPECT_GT(multi_bucket_drains, 10u)
      << "the run must exercise drains that merge several buckets";
}

/// Sends a fixed outbox to process 1 on its first step.
class ScriptedSender final : public Process {
 public:
  explicit ScriptedSender(std::vector<PayloadPtr> script)
      : script_(std::move(script)) {}

  void step(StepContext& ctx) override {
    for (PayloadPtr& payload : script_) ctx.send(1, std::move(payload));
    script_.clear();
  }
  std::unique_ptr<Process> clone() const override {
    return std::make_unique<ScriptedSender>(*this);
  }
  void reseed(std::uint64_t) override {}

 private:
  std::vector<PayloadPtr> script_;
};

TEST(EnvelopeArena, BytesSentSumsEverySendOfInterleavedPayloads) {
  // The engine sizes a payload once per run of sends that share it; an
  // interleaved outbox (A, B, A, A) must still be charged per send.
  const auto a = std::make_shared<const TestPayload>(5);
  const auto b = std::make_shared<const TestPayload>(11);
  std::vector<std::unique_ptr<Process>> procs;
  procs.push_back(
      std::make_unique<ScriptedSender>(std::vector<PayloadPtr>{a, b, a, a}));
  procs.push_back(std::make_unique<ScriptedSender>(std::vector<PayloadPtr>{}));
  Engine engine = make_test_engine(std::move(procs), 1, 1,
                                   SchedulePattern::kLockStep,
                                   DelayPattern::kUnitDelay);
  engine.run(2);
  EXPECT_EQ(engine.metrics().messages_sent(), 4u);
  EXPECT_EQ(engine.metrics().bytes_sent(), 5u + 11u + 5u + 5u);
  EXPECT_EQ(engine.metrics().messages_delivered(), 4u);
}

TEST(EnvelopeArena, CrashedRunThatDrainsLeaksNoPayloadReference) {
  // Payload references are dropped on two paths: a crash discards the
  // victim's wheel, and a step releases each delivered entry while
  // recycling its drained chain. Once the network is empty, both must have
  // returned every pool slot.
  constexpr std::size_t kN = 32;
  constexpr std::size_t kF = 8;
  std::vector<std::unique_ptr<Process>> procs;
  for (ProcessId p = 0; p < kN; ++p)
    procs.push_back(std::make_unique<LoggingSender>(p, kN, 6, nullptr));
  Engine engine = make_test_engine(
      std::move(procs), 8, 3, SchedulePattern::kStaggered,
      DelayPattern::kUniform, kF, burst_crashes(kN, kF, 4, 7));
  ASSERT_TRUE(engine.run_until(
      [](const Engine& e) { return e.now() > 8 && e.network_empty(); },
      200));
  EXPECT_EQ(engine.crashes_so_far(), kF);
  EXPECT_LT(engine.metrics().messages_delivered(),
            engine.metrics().messages_sent())
      << "the crashes must have discarded in-flight envelopes";
  const ArenaStats st = engine.arena_stats();
  EXPECT_GT(st.payloads_interned, 0u);
  EXPECT_EQ(st.payload_pool_live, 0u);
  EXPECT_EQ(st.slabs_free, st.slab_capacity);
}

}  // namespace
}  // namespace asyncgossip
