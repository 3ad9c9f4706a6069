#include "sim/oblivious.h"

#include <algorithm>

#include "common/assert.h"

namespace asyncgossip {

const char* to_string(SchedulePattern pattern) {
  switch (pattern) {
    case SchedulePattern::kLockStep:
      return "lockstep";
    case SchedulePattern::kStaggered:
      return "staggered";
    case SchedulePattern::kRandomSubset:
      return "random";
    case SchedulePattern::kRotating:
      return "rotating";
    case SchedulePattern::kStraggler:
      return "straggler";
  }
  return "?";
}

const char* to_string(DelayPattern pattern) {
  switch (pattern) {
    case DelayPattern::kUnitDelay:
      return "unit";
    case DelayPattern::kMaxDelay:
      return "max";
    case DelayPattern::kUniform:
      return "uniform";
    case DelayPattern::kBimodal:
      return "bimodal";
    case DelayPattern::kTargetedSlow:
      return "targeted";
  }
  return "?";
}

bool schedule_from_string(const std::string& name, SchedulePattern* out) {
  if (name == "lockstep") *out = SchedulePattern::kLockStep;
  else if (name == "staggered") *out = SchedulePattern::kStaggered;
  else if (name == "random") *out = SchedulePattern::kRandomSubset;
  else if (name == "rotating") *out = SchedulePattern::kRotating;
  else if (name == "straggler") *out = SchedulePattern::kStraggler;
  else return false;
  return true;
}

bool delay_from_string(const std::string& name, DelayPattern* out) {
  if (name == "unit") *out = DelayPattern::kUnitDelay;
  else if (name == "max") *out = DelayPattern::kMaxDelay;
  else if (name == "uniform") *out = DelayPattern::kUniform;
  else if (name == "bimodal") *out = DelayPattern::kBimodal;
  else if (name == "targeted") *out = DelayPattern::kTargetedSlow;
  else return false;
  return true;
}

CrashPlan no_crashes() { return {}; }

CrashPlan random_crashes(std::size_t n, std::size_t f, Time horizon,
                         std::uint64_t seed) {
  AG_ASSERT_MSG(f < n, "crash plan needs f < n");
  Xoshiro256SS rng(seed ^ 0xCAFEBABEULL);
  CrashPlan plan;
  const auto victims = rng.sample_without_replacement(n, f);
  plan.reserve(f);
  for (std::uint64_t v : victims) {
    const Time when = horizon == 0 ? 0 : rng.uniform(horizon);
    plan.emplace_back(when, static_cast<ProcessId>(v));
  }
  return plan;
}

CrashPlan burst_crashes(std::size_t n, std::size_t f, Time when,
                        std::uint64_t seed) {
  AG_ASSERT_MSG(f < n, "crash plan needs f < n");
  Xoshiro256SS rng(seed ^ 0xB00B00ULL);
  CrashPlan plan;
  for (std::uint64_t v : rng.sample_without_replacement(n, f))
    plan.emplace_back(when, static_cast<ProcessId>(v));
  return plan;
}

CrashPlan staggered_suffix_crashes(std::size_t n, std::size_t f,
                                   Time horizon) {
  AG_ASSERT_MSG(f < n, "crash plan needs f < n");
  CrashPlan plan;
  for (std::size_t i = 0; i < f; ++i) {
    const Time when = horizon == 0 ? 0 : (horizon * i) / (f == 0 ? 1 : f);
    plan.emplace_back(when, static_cast<ProcessId>(n - 1 - i));
  }
  return plan;
}

ObliviousAdversary::ObliviousAdversary(ObliviousConfig config) {
  restart(config);
}

void ObliviousAdversary::restart(const ObliviousConfig& config) {
  config_ = config;
  AG_ASSERT_MSG(config_.n > 0, "oblivious adversary needs n > 0");
  AG_ASSERT_MSG(config_.d >= 1 && config_.delta >= 1, "bounds must be >= 1");
  schedule_rng_ = Xoshiro256SS(config_.seed ^ 0x5C4ED0000ULL);
  delay_rng_ = Xoshiro256SS(config_.seed ^ 0xDE1A0000ULL);
  rotate_width_ = 0;
  crash_cursor_ = 0;
  sorted_plan_ = config_.crash_plan;
  const auto by_time = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  // A plan already in time order (the replica group's) skips
  // stable_sort's buffer allocation.
  if (!std::is_sorted(sorted_plan_.begin(), sorted_plan_.end(), by_time))
    std::stable_sort(sorted_plan_.begin(), sorted_plan_.end(), by_time);
  periods_.clear();
  phases_.clear();
  if (config_.schedule == SchedulePattern::kStaggered) {
    periods_.resize(config_.n);
    phases_.resize(config_.n);
    for (std::size_t p = 0; p < config_.n; ++p) {
      periods_[p] = 1 + schedule_rng_.uniform(config_.delta);
      phases_[p] = schedule_rng_.uniform(periods_[p]);
    }
  }
  if (config_.schedule == SchedulePattern::kRotating) {
    rotate_width_ = std::max<std::size_t>(
        1, (config_.n + static_cast<std::size_t>(config_.delta) - 1) /
               static_cast<std::size_t>(config_.delta));
  }
  if (config_.stragglers.empty()) {
    const std::size_t k = (config_.n + 7) / 8;
    for (std::size_t i = config_.n - k; i < config_.n; ++i)
      config_.stragglers.push_back(static_cast<ProcessId>(i));
  }
  if (config_.slow_targets.empty()) {
    const std::size_t k = (config_.n + 7) / 8;
    for (std::size_t i = config_.n - k; i < config_.n; ++i)
      config_.slow_targets.push_back(static_cast<ProcessId>(i));
  }
  straggler_set_.assign(config_.n, false);
  for (ProcessId p : config_.stragglers)
    if (p < config_.n) straggler_set_[p] = true;
  slow_set_.assign(config_.n, false);
  for (ProcessId p : config_.slow_targets)
    if (p < config_.n) slow_set_[p] = true;
}

StepDecision ObliviousAdversary::decide_oblivious(Time now) {
  StepDecision d;
  decide_oblivious(now, d);
  return d;
}

void ObliviousAdversary::decide_oblivious(Time now, StepDecision& d) {
  d.crash.clear();
  d.schedule.clear();
  while (crash_cursor_ < sorted_plan_.size() &&
         sorted_plan_[crash_cursor_].first <= now) {
    d.crash.push_back(sorted_plan_[crash_cursor_].second);
    ++crash_cursor_;
  }
  switch (config_.schedule) {
    case SchedulePattern::kLockStep:
      d.schedule.reserve(config_.n);
      for (std::size_t p = 0; p < config_.n; ++p)
        d.schedule.push_back(static_cast<ProcessId>(p));
      break;
    case SchedulePattern::kStaggered:
      d.schedule.reserve(config_.n);
      for (std::size_t p = 0; p < config_.n; ++p)
        if ((now + phases_[p]) % periods_[p] == 0)
          d.schedule.push_back(static_cast<ProcessId>(p));
      break;
    case SchedulePattern::kRandomSubset:
      d.schedule.reserve(config_.n);
      for (std::size_t p = 0; p < config_.n; ++p)
        if (schedule_rng_.bernoulli(0.5))
          d.schedule.push_back(static_cast<ProcessId>(p));
      break;
    case SchedulePattern::kRotating: {
      const std::size_t start =
          (static_cast<std::size_t>(now) * rotate_width_) % config_.n;
      d.schedule.reserve(rotate_width_);
      for (std::size_t i = 0; i < rotate_width_; ++i)
        d.schedule.push_back(
            static_cast<ProcessId>((start + i) % config_.n));
      break;
    }
    case SchedulePattern::kStraggler:
      d.schedule.reserve(config_.n);
      for (std::size_t p = 0; p < config_.n; ++p) {
        if (!straggler_set_[p] || now % config_.delta == config_.delta - 1)
          d.schedule.push_back(static_cast<ProcessId>(p));
      }
      break;
  }
}

Time ObliviousAdversary::delay_oblivious(MessageId /*ordinal*/,
                                          ProcessId to) {
  switch (config_.delay) {
    case DelayPattern::kUnitDelay:
      return 1;
    case DelayPattern::kMaxDelay:
      return config_.d;
    case DelayPattern::kUniform:
      return 1 + delay_rng_.uniform(config_.d);
    case DelayPattern::kBimodal:
      return delay_rng_.bernoulli(0.9) ? 1 : config_.d;
    case DelayPattern::kTargetedSlow:
      return (to < config_.n && slow_set_[to]) ? config_.d : 1;
  }
  return 1;
}

std::unique_ptr<Adversary> make_standard_oblivious(std::size_t n, Time d,
                                                   Time delta, std::size_t f,
                                                   Time crash_horizon,
                                                   std::uint64_t seed) {
  ObliviousConfig cfg;
  cfg.n = n;
  cfg.d = d;
  cfg.delta = delta;
  cfg.schedule =
      delta == 1 ? SchedulePattern::kLockStep : SchedulePattern::kStaggered;
  cfg.delay = d == 1 ? DelayPattern::kUnitDelay : DelayPattern::kUniform;
  cfg.crash_plan = random_crashes(n, f, crash_horizon, seed ^ 0xF417ULL);
  cfg.seed = seed;
  return std::make_unique<ObliviousAdversary>(cfg);
}

}  // namespace asyncgossip
