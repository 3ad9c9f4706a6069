// Unit tests driving ConsensusProcess directly through hand-crafted
// message sequences: catch-up adoption, decided notifications, retirement,
// and transport behaviours that the integration sweeps only exercise
// implicitly.
#include <gtest/gtest.h>

#include <map>

#include "consensus/canetti_rabin.h"
#include "sim/observer.h"

namespace asyncgossip {
namespace {

ConsensusConfig small_config(ExchangeKind kind = ExchangeKind::kEars) {
  ConsensusConfig cfg;
  cfg.n = 8;
  cfg.f = 3;
  cfg.exchange = kind;
  cfg.seed = 5;
  return cfg;
}

std::shared_ptr<ConsensusPayload> message(ProcessId sender, Position pos,
                                          std::size_t n) {
  auto m = std::make_shared<ConsensusPayload>();
  m->sender = sender;
  m->pos = pos;
  m->state = InstanceState(n);
  m->sender_x = 1;
  m->sender_y = kValBot;
  return m;
}

Envelope wrap(ProcessId from, ProcessId to, PayloadPtr p) {
  Envelope env;
  env.from = from;
  env.to = to;
  env.payload = std::move(p);
  return env;
}

std::vector<StepContext::Outgoing> drive(ConsensusProcess& p, ProcessId self,
                                         std::size_t n,
                                         std::vector<Envelope> inbox,
                                         std::uint64_t s) {
  StepContext ctx(self, n, s, inbox);
  p.step(ctx);
  return std::move(ctx.outbox());
}

TEST(ConsensusInternals, StartsAtPhaseOneUndecided) {
  ConsensusProcess p(0, 1, small_config());
  EXPECT_EQ(p.position(), (Position{1, 0, 0}));
  EXPECT_FALSE(p.decided());
  EXPECT_FALSE(p.retired());
}

TEST(ConsensusInternals, EarsTransportSendsEveryStep) {
  ConsensusProcess p(0, 0, small_config());
  for (std::uint64_t s = 0; s < 5; ++s) {
    const auto out = drive(p, 0, 8, {}, s);
    EXPECT_EQ(out.size(), 1u);
  }
}

TEST(ConsensusInternals, AllToAllBroadcastsOnceThenWaits) {
  ConsensusProcess p(0, 0, small_config(ExchangeKind::kAllToAll));
  auto first = drive(p, 0, 8, {}, 0);
  EXPECT_EQ(first.size(), 7u);  // everyone but self
  for (std::uint64_t s = 1; s < 5; ++s)
    EXPECT_TRUE(drive(p, 0, 8, {}, s).empty());
}

TEST(ConsensusInternals, AllToAllReannouncesWhenStalled) {
  ConsensusConfig cfg = small_config(ExchangeKind::kAllToAll);
  cfg.stagnation_limit = 4;
  ConsensusProcess p(0, 0, cfg);
  drive(p, 0, 8, {}, 0);
  std::size_t reannounced = 0;
  for (std::uint64_t s = 1; s < 12; ++s)
    if (!drive(p, 0, 8, {}, s).empty()) ++reannounced;
  EXPECT_GE(reannounced, 1u);
  EXPECT_EQ(p.reannouncements(), reannounced);
}

TEST(ConsensusInternals, CatchUpAdoptsLaterPosition) {
  ConsensusProcess p(0, 0, small_config());
  auto ahead = message(3, Position{4, 1, 2}, 8);
  ahead->state.add_own(3, kValBot);
  drive(p, 0, 8, {wrap(3, 0, ahead)}, 0);
  EXPECT_EQ(p.position(), (Position{4, 1, 2}));
}

TEST(ConsensusInternals, StaleMessagesDoNotRegress) {
  ConsensusProcess p(0, 0, small_config());
  auto ahead = message(3, Position{2, 0, 0}, 8);
  drive(p, 0, 8, {wrap(3, 0, ahead)}, 0);
  const Position pos = p.position();
  auto stale = message(4, Position{1, 0, 0}, 8);
  drive(p, 0, 8, {wrap(4, 0, stale)}, 1);
  EXPECT_GE(p.position(), pos);
}

TEST(ConsensusInternals, DecidedNotificationDecidesReceiver) {
  ConsensusProcess p(0, 0, small_config());
  auto m = message(5, Position{1, 0, 0}, 8);
  m->decided = true;
  m->decision = 1;
  drive(p, 0, 8, {wrap(5, 0, m)}, 0);
  EXPECT_TRUE(p.decided());
  EXPECT_EQ(p.decision(), 1);
  EXPECT_FALSE(p.retired());  // helping first
}

TEST(ConsensusInternals, HelpingExpiresIntoRetirement) {
  ConsensusConfig cfg = small_config();
  cfg.help_steps = 3;
  ConsensusProcess p(0, 0, cfg);
  auto m = message(5, Position{1, 0, 0}, 8);
  m->decided = true;
  m->decision = 0;
  drive(p, 0, 8, {wrap(5, 0, m)}, 0);
  for (std::uint64_t s = 1; s <= 4 && !p.retired(); ++s) drive(p, 0, 8, {}, s);
  EXPECT_TRUE(p.retired());
}

TEST(ConsensusInternals, RetiredProcessNotifiesUndecidedSendersOnce) {
  ConsensusConfig cfg = small_config();
  cfg.help_steps = 1;
  ConsensusProcess p(0, 0, cfg);
  auto decided = message(5, Position{1, 0, 0}, 8);
  decided->decided = true;
  decided->decision = 0;
  drive(p, 0, 8, {wrap(5, 0, decided)}, 0);
  while (!p.retired()) drive(p, 0, 8, {}, 99);
  // An undecided peer pings the retiree.
  auto ping = message(2, Position{1, 0, 0}, 8);
  auto out1 = drive(p, 0, 8, {wrap(2, 0, ping)}, 100);
  ASSERT_EQ(out1.size(), 1u);
  EXPECT_EQ(out1[0].to, 2u);
  const auto* reply =
      dynamic_cast<const ConsensusPayload*>(out1[0].payload.get());
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->decided);
  // Second ping from the same sender: already notified, stay silent.
  auto out2 = drive(p, 0, 8, {wrap(2, 0, ping)}, 101);
  EXPECT_TRUE(out2.empty());
}

TEST(ConsensusInternals, MessagesCarrySenderOutcomes) {
  ConsensusProcess p(2, 1, small_config());
  const auto out = drive(p, 2, 8, {}, 0);
  ASSERT_FALSE(out.empty());
  const auto* m = dynamic_cast<const ConsensusPayload*>(out[0].payload.get());
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->sender, 2u);
  EXPECT_EQ(m->sender_x, 1);
  EXPECT_EQ(m->pos, (Position{1, 0, 0}));
  EXPECT_TRUE(m->state.origins.test(2));
  EXPECT_EQ(m->state.items[2], 1);
}

TEST(ConsensusInternals, SubInstanceAdvancesAtMajority) {
  const std::size_t n = 8;  // majority threshold 5
  ConsensusProcess p(0, 1, small_config());
  // Deliver rumors from 4 distinct origins (plus self = 5 = threshold).
  std::vector<Envelope> inbox;
  for (ProcessId q = 1; q <= 4; ++q) {
    auto m = message(q, Position{1, 0, 0}, n);
    m->state.add_own(q, 1);
    inbox.push_back(wrap(q, 0, m));
  }
  drive(p, 0, n, std::move(inbox), 0);
  EXPECT_EQ(p.position(), (Position{1, 0, 1}));  // sub-instance advanced
}

/// Checks that every consensus payload carries its sender's state at the
/// end of the sending step (each step snapshots only after its last state
/// change), and still carries it when delivered. A cached snapshot that
/// outlived a state change, or a kept payload overwritten while in
/// flight, fails it.
class SnapshotChecker final : public EngineObserver {
 public:
  explicit SnapshotChecker(const Engine* engine) : engine_(engine) {}

  void on_send(const Envelope& env) override {
    const auto* m = payload_cast<ConsensusPayload>(env);
    ASSERT_NE(m, nullptr);
    const auto& cp = engine_->process_as<ConsensusProcess>(env.from);
    EXPECT_EQ(m->sender, env.from);
    EXPECT_EQ(m->pos, cp.position());
    EXPECT_EQ(m->state.origins, cp.instance().origins);
    EXPECT_EQ(m->state.items, cp.instance().items);
    EXPECT_EQ(m->state.known, cp.instance().known);
    EXPECT_EQ(m->decided, cp.decided());
    EXPECT_EQ(m->decision, cp.decision());
    sent_.emplace(env.id, *m);
    ++checked_;
  }

  void on_delivery(const Envelope& env, Time /*now*/) override {
    const auto* m = payload_cast<ConsensusPayload>(env);
    ASSERT_NE(m, nullptr);
    const auto it = sent_.find(env.id);
    ASSERT_NE(it, sent_.end());
    const ConsensusPayload& was = it->second;
    EXPECT_EQ(m->pos, was.pos);
    EXPECT_EQ(m->state.origins, was.state.origins);
    EXPECT_EQ(m->state.items, was.state.items);
    EXPECT_EQ(m->sender_x, was.sender_x);
    EXPECT_EQ(m->sender_y, was.sender_y);
    EXPECT_EQ(m->decided, was.decided);
    EXPECT_EQ(m->decision, was.decision);
    EXPECT_EQ(m->flag_up, was.flag_up);
    sent_.erase(it);
  }

  std::uint64_t checked() const { return checked_; }

 private:
  const Engine* engine_;
  std::map<MessageId, ConsensusPayload> sent_;
  std::uint64_t checked_ = 0;
};

TEST(ConsensusInternals, SnapshotsMatchTheSenderAndSurviveTheirFlight) {
  for (const ExchangeKind kind :
       {ExchangeKind::kAllToAll, ExchangeKind::kEars, ExchangeKind::kSears,
        ExchangeKind::kTears}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      ConsensusSpec spec;
      spec.config.n = 16;
      spec.config.f = 5;
      spec.config.exchange = kind;
      spec.d = 3;
      spec.delta = 2;
      spec.schedule = SchedulePattern::kStaggered;
      spec.seed = seed;
      Engine engine = make_consensus_engine(spec);
      SnapshotChecker checker(&engine);
      engine.set_observer(&checker);
      engine.run_until(consensus_quiet, 20000);
      SCOPED_TRACE(to_string(kind));
      EXPECT_TRUE(consensus_quiet(engine));
      EXPECT_GT(checker.checked(), 100u);
    }
  }
}

}  // namespace
}  // namespace asyncgossip
