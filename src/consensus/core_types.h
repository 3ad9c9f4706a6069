// Shared types for the Canetti-Rabin consensus framework (paper Section 6,
// following the simplified crash-failure presentation of Attiya & Welch,
// "Distributed Computing", Section 14.3).
//
// Consensus is binary (inputs in {0, 1}), f < n/2. Each *phase* runs three
// get-core exchanges — estimate votes, preference votes, and a common-coin
// exchange — and each get-core consists of three sequential (majority-)
// gossip sub-instances. A process's protocol position is therefore the
// triple (phase, exchange, sub), totally ordered; messages carry the
// sender's position plus enough state for a receiver to catch up, which is
// how the paper handles asynchronous gossip initiation.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitset.h"
#include "sim/message.h"
#include "sim/types.h"

namespace asyncgossip {

/// Vote values. kUnknown marks "no item from this origin yet"; kBot is the
/// framework's undecided preference.
using Val = std::int8_t;
inline constexpr Val kValUnknown = -2;
inline constexpr Val kValBot = -1;

/// Which gossip transport implements the exchanges.
enum class ExchangeKind {
  kAllToAll,  // Canetti-Rabin baseline: one broadcast per sub-instance
  kEars,      // 1 uniform target per local step
  kSears,     // Theta(n^eps log n) uniform targets per local step
  kTears,     // two-hop: Pi1 first-level + trigger-counted Pi2 second-level
};

const char* to_string(ExchangeKind kind);

/// Position in the protocol, ordered lexicographically.
struct Position {
  std::uint32_t phase = 1;    // 1-based
  std::uint8_t exchange = 0;  // 0 = estimate votes, 1 = preference, 2 = coin
  std::uint8_t sub = 0;       // get-core sub-instance, 0..2

  friend auto operator<=>(const Position&, const Position&) = default;
};

/// Accumulated state of one gossip sub-instance: which processes' rumors
/// have been incorporated, and the union of their item sets. Items map
/// origin -> vote value for the current exchange; values are consistent
/// across senders (an origin's vote in a given exchange is fixed), so
/// merging is a plain union.
///
/// `known` marks the items that hold a value (items[i] != kValUnknown), so
/// a merge touches only the items `other` knows and this state does not:
/// one word-level `other.known & ~known` pass, then one write per new item.
/// The mask tracks items, not `origins`: sub-instances 1 and 2 restart
/// `origins` from self but keep the accumulated items. Code that writes
/// `items` directly must go through set_item or call rebuild_known (the
/// wire decoder does).
struct InstanceState {
  DynamicBitset origins;
  DynamicBitset known;
  std::vector<Val> items;

  explicit InstanceState(std::size_t n = 0)
      : origins(n), known(n), items(n, kValUnknown) {}

  /// Empties the state for `n` processes, in place when n is unchanged.
  void reset(std::size_t n);

  /// Union-merge; returns true if anything new arrived.
  bool merge(const InstanceState& other);

  /// Sets item i (kValUnknown clears it) and keeps `known` in step.
  void set_item(std::size_t i, Val value) {
    items[i] = value;
    if (value == kValUnknown)
      known.reset(i);
    else
      known.set(i);
  }

  /// Recomputes `known` from `items`.
  void rebuild_known();

  /// Registers this process's own rumor for the sub-instance.
  void add_own(ProcessId self, Val value) {
    origins.set(self);
    if (items[self] == kValUnknown) set_item(self, value);
  }
};

/// The single message type of the consensus protocol.
struct ConsensusPayload final : Payload {
  ProcessId sender = kNoProcess;
  Position pos;
  InstanceState state;
  /// Sender's framework values at `pos` — what a catching-up receiver
  /// adopts ("adopting the sender's outcome for each completed gossip and
  /// get-core", paper Section 6).
  Val sender_x = kValUnknown;
  Val sender_y = kValUnknown;
  bool decided = false;
  Val decision = kValUnknown;
  /// TEARS transport: first-level marker counted toward triggers.
  bool flag_up = false;

  /// Origins bitset + one byte per item + position/ids/flags.
  std::size_t byte_size() const override {
    return state.origins.byte_size() + state.items.size() + 16;
  }
};

}  // namespace asyncgossip
