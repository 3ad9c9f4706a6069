#include "consensus/get_core.h"

namespace asyncgossip {

const char* to_string(ExchangeKind kind) {
  switch (kind) {
    case ExchangeKind::kAllToAll:
      return "all-to-all";
    case ExchangeKind::kEars:
      return "ears";
    case ExchangeKind::kSears:
      return "sears";
    case ExchangeKind::kTears:
      return "tears";
  }
  return "?";
}

void InstanceState::reset(std::size_t n) {
  if (origins.size() == n && known.size() == n) {
    origins.clear_all();
    known.clear_all();
  } else {
    origins = DynamicBitset(n);
    known = DynamicBitset(n);
  }
  items.assign(n, kValUnknown);
}

bool InstanceState::merge(const InstanceState& other) {
  bool changed = origins.merge(other.origins);
  const std::vector<std::uint64_t>& mine = known.words();
  const std::vector<std::uint64_t>& theirs = other.known.words();
  for (std::size_t w = 0; w < theirs.size(); ++w) {
    std::uint64_t fresh = theirs[w] & ~mine[w];
    while (fresh != 0) {
      const std::size_t i =
          w * 64 + static_cast<std::size_t>(__builtin_ctzll(fresh));
      items[i] = other.items[i];
      known.set(i);
      fresh &= fresh - 1;
      changed = true;
    }
  }
  return changed;
}

void InstanceState::rebuild_known() {
  if (known.size() != items.size()) known = DynamicBitset(items.size());
  known.clear_all();
  for (std::size_t i = 0; i < items.size(); ++i)
    if (items[i] != kValUnknown) known.set(i);
}

Val evaluate_estimate_votes(const InstanceState& collected) {
  bool saw0 = false, saw1 = false;
  for (Val v : collected.items) {
    if (v == 0) saw0 = true;
    if (v == 1) saw1 = true;
  }
  if (saw0 && !saw1) return 0;
  if (saw1 && !saw0) return 1;
  return kValBot;
}

PreferenceOutcome evaluate_preference_votes(const InstanceState& collected) {
  bool saw0 = false, saw1 = false, saw_bot = false;
  for (Val v : collected.items) {
    if (v == 0) saw0 = true;
    if (v == 1) saw1 = true;
    if (v == kValBot) saw_bot = true;
  }
  PreferenceOutcome out;
  if (saw0 && saw1) {
    // Two processes each saw a unanimous (majority-core-backed) estimate
    // vote for different values — excluded by the common-core property.
    out.conflict = true;
    return out;
  }
  if (saw0 || saw1) {
    const Val v = saw0 ? Val{0} : Val{1};
    if (!saw_bot) {
      out.decide = true;
      out.decision = v;
    }
    out.adopt = v;
  }
  return out;
}

Val evaluate_coin(const InstanceState& collected) {
  for (Val v : collected.items)
    if (v == 0) return 0;
  return 1;
}

std::size_t majority_threshold(std::size_t n) { return n / 2 + 1; }

}  // namespace asyncgossip
