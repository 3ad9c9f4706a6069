#include "gossip/completion.h"

#include "common/assert.h"
#include "gossip/rumor.h"

namespace asyncgossip {

bool gossip_quiet(const Engine& engine) {
  if (!engine.network_empty()) return false;
  for (ProcessId p = 0; p < engine.n(); ++p) {
    if (engine.crashed(p)) continue;
    const auto* gp = dynamic_cast<const GossipProcess*>(&engine.process(p));
    AG_ASSERT_MSG(gp != nullptr, "gossip_quiet needs GossipProcess instances");
    if (!gp->quiescent()) return false;
  }
  return true;
}

GossipVerdict judge_rumors(const std::vector<const DynamicBitset*>& rumors) {
  const std::size_t n = rumors.size();
  DynamicBitset correct(n);
  for (ProcessId p = 0; p < n; ++p)
    if (rumors[p] != nullptr) correct.set(p);
  const std::size_t need = n / 2 + 1;
  GossipVerdict verdict;
  for (const DynamicBitset* known : rumors) {
    if (known == nullptr) continue;
    if (!correct.subset_of(*known)) verdict.gathering_ok = false;
    if (known->count() < need) verdict.majority_ok = false;
  }
  return verdict;
}

GossipVerdict judge_gossip(const Engine& engine) {
  std::vector<const DynamicBitset*> rumors(engine.n(), nullptr);
  for (ProcessId p = 0; p < engine.n(); ++p)
    if (!engine.crashed(p))
      rumors[p] = &engine.process_as<GossipProcess>(p).rumors();
  return judge_rumors(rumors);
}

GossipOutcome run_gossip(Engine& engine, Time max_steps) {
  GossipOutcome out;
  out.completed = engine.run_until(gossip_quiet, max_steps);
  out.detection_time = engine.now();
  const Metrics& m = engine.metrics();
  out.completion_time = m.any_send() ? m.last_send_time() + 1 : 0;
  out.messages = m.messages_sent();
  out.bytes = m.bytes_sent();
  out.realized_d = m.realized_d();
  out.realized_delta = m.realized_delta();
  out.alive = engine.alive_count();
  out.crashes = engine.crashes_so_far();
  const GossipVerdict verdict = judge_gossip(engine);
  out.gathering_ok = verdict.gathering_ok;
  out.majority_ok = verdict.majority_ok;
  return out;
}

}  // namespace asyncgossip
