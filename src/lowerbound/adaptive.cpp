#include "lowerbound/adaptive.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/assert.h"
#include "gossip/completion.h"
#include "gossip/rumor.h"
#include "lowerbound/probe.h"

namespace asyncgossip {

ScriptedAdversary::ScriptedAdversary() { set_benign(); }

void ScriptedAdversary::set_benign() {
  decide_ = [](Time, const EngineView& view) {
    StepDecision d;
    d.schedule.reserve(view.n());
    for (ProcessId p = 0; p < view.n(); ++p)
      if (!view.crashed(p)) d.schedule.push_back(p);
    return d;
  };
  delay_ = [](const Envelope&, const EngineView&) { return Time{1}; };
}

const char* to_string(LowerBoundCase c) {
  switch (c) {
    case LowerBoundCase::kSlowPhase1:
      return "slow-phase1";
    case LowerBoundCase::kCase1Messages:
      return "case1-messages";
    case LowerBoundCase::kCase2Time:
      return "case2-time";
  }
  return "?";
}

namespace {

// Shared mutable state between the driver and the scripted adversary
// closures (the driver re-scripts the adversary between phases; the
// closures only read/write this block).
struct DriverState {
  std::size_t n = 0;
  std::size_t s2_start = 0;  // S2 = [s2_start, n)
  Time phase1_end = 0;

  // Case 1 window.
  Time window_end = 0;

  // Case 2.
  ProcessId p = kNoProcess;
  ProcessId q = kNoProcess;
  Time delta_w = 1;
  std::size_t s1_crash_budget = 0;
  std::size_t s1_crashes = 0;
  bool pair_communicated = false;
  bool crash_budget_exceeded = false;

  bool in_s2(ProcessId id) const { return id >= s2_start; }
};

void finish_benignly(Engine& engine, ScriptedAdversary& adv,
                     const LowerBoundConfig& config,
                     LowerBoundReport& report) {
  adv.set_benign();
  Time budget = config.finish_budget;
  if (budget == 0) {
    GossipSpec bspec = config.spec;
    bspec.d = 1;
    bspec.delta = 1;
    budget = default_step_budget(bspec) + engine.now();
  }
  report.completed = engine.run_until(gossip_quiet, budget);
  const Metrics& m = engine.metrics();
  report.completion_time = m.any_send() ? m.last_send_time() + 1 : 0;
  report.total_messages = m.messages_sent();
  report.realized_d = m.realized_d();
  report.realized_delta = m.realized_delta();
  report.crashes_used = engine.crashes_so_far();
  report.gathering_ok = judge_gossip(engine).gathering_ok;
}

}  // namespace

LowerBoundReport run_lower_bound(const LowerBoundConfig& config) {
  const std::size_t n = config.spec.n;
  const std::size_t f_eff = std::min(config.f, n / 4);
  AG_ASSERT_MSG(f_eff >= 8, "lower-bound construction needs min(f, n/4) >= 8");
  AG_ASSERT_MSG(config.f < n, "f < n required");

  LowerBoundReport report;
  report.n = n;
  report.f_eff = f_eff;
  report.s2_size = f_eff / 2;

  auto state = std::make_shared<DriverState>();
  state->n = n;
  state->s2_start = n - report.s2_size;

  // The engine's enforcement caps: generous enough for every branch of the
  // construction; the *realized* bounds of the final execution are measured
  // and reported.
  EngineConfig ecfg;
  ecfg.d = static_cast<Time>(f_eff) + 2;
  ecfg.delta = 2 * static_cast<Time>(f_eff) + 4;
  ecfg.max_crashes = config.f;

  auto adversary = std::make_unique<ScriptedAdversary>();
  ScriptedAdversary& adv = *adversary;

  GossipSpec pspec = config.spec;
  pspec.f = config.f;  // algorithms size their shut-down phases from f
  Engine engine(make_gossip_processes(pspec), std::move(adversary), ecfg);

  // ---------------------------------------------------------------------
  // Phase 1: run S1 alone, lock-step, all delays 1.
  // ---------------------------------------------------------------------
  adv.set_decide([state](Time, const EngineView& view) {
    StepDecision d;
    for (ProcessId p = 0; p < state->s2_start; ++p)
      if (!view.crashed(p)) d.schedule.push_back(p);
    return d;
  });
  adv.set_delay([](const Envelope&, const EngineView&) { return Time{1}; });

  const auto s1_quiet = [state](const Engine& e) {
    for (ProcessId p = 0; p < state->s2_start; ++p) {
      if (e.crashed(p)) continue;
      const auto* gp = dynamic_cast<const GossipProcess*>(&e.process(p));
      AG_ASSERT_MSG(gp != nullptr, "lower bound needs GossipProcess");
      if (!gp->quiescent() || e.pending_count(p) != 0) return false;
    }
    return true;
  };

  const bool s1_done = engine.run_until(s1_quiet, static_cast<Time>(f_eff));
  state->phase1_end = engine.now();
  report.phase1_end = state->phase1_end;

  if (!s1_done) {
    // t > f_eff: per the proof, crash S2 and we have an execution with
    // d = delta = 1 whose completion time already exceeds f_eff.
    report.outcome = LowerBoundCase::kSlowPhase1;
    adv.set_decide([state, crashed_s2 = false](
                       Time, const EngineView& view) mutable {
      StepDecision d;
      if (!crashed_s2) {
        for (ProcessId p = static_cast<ProcessId>(state->s2_start);
             p < state->n; ++p)
          if (!view.crashed(p)) d.crash.push_back(p);
        crashed_s2 = true;
      }
      for (ProcessId p = 0; p < state->s2_start; ++p)
        if (!view.crashed(p)) d.schedule.push_back(p);
      return d;
    });
    // Keep the S1-only lock-step run going to completion, then report.
    GossipSpec bspec = config.spec;
    bspec.d = 1;
    bspec.delta = 1;
    const Time budget = default_step_budget(bspec) + engine.now();
    report.completed = engine.run_until(gossip_quiet, budget);
    const Metrics& m = engine.metrics();
    report.completion_time = m.any_send() ? m.last_send_time() + 1 : 0;
    report.total_messages = m.messages_sent();
    report.realized_d = m.realized_d();
    report.realized_delta = m.realized_delta();
    report.crashes_used = engine.crashes_so_far();
    report.gathering_ok = judge_gossip(engine).gathering_ok;
    return report;
  }

  // ---------------------------------------------------------------------
  // Promiscuity probe over S2.
  // ---------------------------------------------------------------------
  const std::size_t k = f_eff / 2;  // isolated local steps per the proof
  const double promiscuity_threshold = static_cast<double>(f_eff) / 32.0;
  std::vector<ProcessId> promiscuous;
  std::vector<ProcessId> shy;  // the proof's set S of non-promiscuous procs
  std::vector<IsolationProbeResult> shy_probe;
  for (ProcessId p = static_cast<ProcessId>(state->s2_start); p < n; ++p) {
    const IsolationProbeResult probe = probe_isolated_sends(
        engine.process(p), p, n, engine.pending_for(p),
        engine.local_steps_of(p), k, config.probe_trials,
        config.spec.seed ^ (0xBADF00DULL + p));
    if (probe.expected_messages >= promiscuity_threshold) {
      promiscuous.push_back(p);
    } else {
      shy.push_back(p);
      shy_probe.push_back(probe);
    }
  }
  report.promiscuous_count = promiscuous.size();

  if (promiscuous.size() >= f_eff / 4) {
    // -------------------------------------------------------------------
    // Case 1: message blow-up. Schedule all of S2 for f_eff/2 steps and
    // delay every message they emit past the window.
    // -------------------------------------------------------------------
    report.outcome = LowerBoundCase::kCase1Messages;
    state->window_end = engine.now() + static_cast<Time>(k);
    adv.set_decide([state](Time, const EngineView& view) {
      StepDecision d;
      for (ProcessId p = static_cast<ProcessId>(state->s2_start);
           p < state->n; ++p)
        if (!view.crashed(p)) d.schedule.push_back(p);
      return d;
    });
    adv.set_delay([state, cap = ecfg.d](const Envelope& env,
                                        const EngineView&) -> Time {
      if (state->in_s2(env.from) && env.to != env.from) return cap;
      return 1;
    });

    std::uint64_t s2_sent_before = 0;
    for (ProcessId p = static_cast<ProcessId>(state->s2_start); p < n; ++p)
      s2_sent_before += engine.metrics().messages_sent_by(p);
    engine.run(static_cast<Time>(k));
    std::uint64_t s2_sent_after = 0;
    for (ProcessId p = static_cast<ProcessId>(state->s2_start); p < n; ++p)
      s2_sent_after += engine.metrics().messages_sent_by(p);
    report.case1_window_messages = s2_sent_after - s2_sent_before;

    finish_benignly(engine, adv, config, report);
    return report;
  }

  // -----------------------------------------------------------------------
  // Case 2: isolate a mutually-silent pair p, q.
  // -----------------------------------------------------------------------
  report.outcome = LowerBoundCase::kCase2Time;
  AG_ASSERT_MSG(shy.size() >= 2, "proof guarantees >= f/4 shy processes");

  // Prefer a pair below the proof's 1/4 threshold in both directions; fall
  // back to the pair minimizing the worse direction.
  std::size_t best_i = 0, best_j = 1;
  double best_score = 2.0;
  bool found_strict = false;
  for (std::size_t i = 0; i < shy.size() && !found_strict; ++i) {
    for (std::size_t j = i + 1; j < shy.size(); ++j) {
      const double pij = shy_probe[i].send_probability[shy[j]];
      const double pji = shy_probe[j].send_probability[shy[i]];
      const double score = std::max(pij, pji);
      if (score < best_score) {
        best_score = score;
        best_i = i;
        best_j = j;
      }
      if (pij < 0.25 && pji < 0.25) {
        best_i = i;
        best_j = j;
        found_strict = true;
        break;
      }
    }
  }
  state->p = shy[best_i];
  state->q = shy[best_j];
  report.pair_p = state->p;
  report.pair_q = state->q;

  state->delta_w = std::max<Time>(1, state->phase1_end);
  report.case2_delta_w = state->delta_w;
  state->s1_crash_budget = f_eff / 4;

  const Time window_start = engine.now();
  const Time window_len = static_cast<Time>(k) * state->delta_w;

  adv.set_decide([state, window_start](Time now, const EngineView& view) {
    StepDecision d;
    // Crash the rest of S2 at the first window step.
    if (now == window_start) {
      for (ProcessId r = static_cast<ProcessId>(state->s2_start);
           r < state->n; ++r)
        if (r != state->p && r != state->q && !view.crashed(r))
          d.crash.push_back(r);
    }
    // Detect pair communication, and behead any S1 process that p or q has
    // contacted before it can react.
    for (ProcessId r = 0; r < state->n; ++r) {
      if (view.crashed(r)) continue;
      const bool is_pair = (r == state->p || r == state->q);
      // Non-pair S2 members are crashed at window start; skip them here.
      if (!is_pair && state->in_s2(r)) continue;
      view.for_each_pending(r, [&](const Envelope& env) {
        if (env.from != state->p && env.from != state->q) return true;
        if (is_pair) {
          if (env.from != r) state->pair_communicated = true;
          return true;
        }
        if (state->s1_crashes < state->s1_crash_budget &&
            view.crash_budget_left() > 0) {
          d.crash.push_back(r);
          ++state->s1_crashes;
        } else {
          state->crash_budget_exceeded = true;
        }
        return false;
      });
    }
    // One local step for p, q (and a delta-consistent step for everyone
    // else) every delta_w global steps.
    if ((now - window_start) % state->delta_w == 0) {
      for (ProcessId r = 0; r < state->n; ++r) {
        if (view.crashed(r)) continue;
        bool about_to_crash = false;
        for (ProcessId c : d.crash)
          if (c == r) about_to_crash = true;
        if (!about_to_crash) d.schedule.push_back(r);
      }
    }
    return d;
  });
  adv.set_delay([](const Envelope&, const EngineView&) { return Time{1}; });

  engine.run(window_len);
  report.case2_window_end = engine.now();
  report.pair_communicated = state->pair_communicated;
  report.crash_budget_exceeded = state->crash_budget_exceeded;
  report.s1_crashes = state->s1_crashes;
  report.construction_ok =
      !state->pair_communicated && !state->crash_budget_exceeded;

  finish_benignly(engine, adv, config, report);
  return report;
}

}  // namespace asyncgossip
