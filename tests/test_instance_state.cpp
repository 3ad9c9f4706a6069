// Model test of consensus/core_types.h's InstanceState against a per-item
// reference: a state is a set of origins plus one value per process, and a
// merge is the union that keeps the first value. The real structure keeps a
// `known` mask beside the items so a merge touches only the items it gains;
// every operation the consensus process and the wire decoder apply is run
// on both, at sizes around the 64-bit word boundary, and the two must agree
// after each one, including on merge()'s "something new arrived" result.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "consensus/core_types.h"
#include "rt/wire.h"
#include "svc/consensus_wire.h"

namespace asyncgossip {
namespace {

/// The reference: one flag per origin and one value per item.
struct RefState {
  std::vector<bool> origins;
  std::vector<Val> items;

  explicit RefState(std::size_t n) : origins(n, false), items(n, kValUnknown) {}

  bool merge(const RefState& other) {
    bool changed = false;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (other.origins[i] && !origins[i]) {
        origins[i] = true;
        changed = true;
      }
      if (items[i] == kValUnknown && other.items[i] != kValUnknown) {
        items[i] = other.items[i];
        changed = true;
      }
    }
    return changed;
  }
};

void expect_same(const InstanceState& s, const RefState& ref) {
  ASSERT_EQ(s.items.size(), ref.items.size());
  ASSERT_EQ(s.origins.size(), ref.origins.size());
  ASSERT_EQ(s.known.size(), ref.items.size());
  for (std::size_t i = 0; i < ref.items.size(); ++i) {
    ASSERT_EQ(s.origins.test(i), ref.origins[i]) << "origin " << i;
    ASSERT_EQ(s.items[i], ref.items[i]) << "item " << i;
    ASSERT_EQ(s.known.test(i), ref.items[i] != kValUnknown) << "known " << i;
  }
}

Val random_vote(Xoshiro256SS& rng) {
  return static_cast<Val>(static_cast<int>(rng.uniform(3)) - 1);  // bot, 0, 1
}

/// A random pair (state, reference) of the shapes a process receives:
/// sparse, dense or full, and with items whose origin is absent (sub-
/// instances 1 and 2 restart the origins but keep the items).
void random_other(std::size_t n, Xoshiro256SS& rng, InstanceState* s,
                  RefState* ref) {
  *s = InstanceState(n);
  *ref = RefState(n);
  const std::uint64_t density = rng.uniform(4);  // 0 sparse .. 3 full
  for (std::size_t i = 0; i < n; ++i) {
    const bool has_item = density == 3 || rng.uniform(4) < density;
    if (has_item) {
      const Val v = random_vote(rng);
      s->set_item(i, v);
      ref->items[i] = v;
    }
    if ((has_item && rng.bernoulli(0.5)) || rng.uniform(16) == 0) {
      s->origins.set(i);
      ref->origins[i] = true;
    }
  }
}

/// The other state as a receiver sees it after a trip over the wire.
InstanceState over_the_wire(const InstanceState& s) {
  svc::register_consensus_wire();
  ConsensusPayload p;
  p.sender = 0;
  p.state = s;
  std::vector<std::uint8_t> bytes;
  wire::encode_payload(&bytes, &p);
  wire::Reader r(bytes.data(), bytes.size(), s.items.size());
  PayloadPtr out;
  EXPECT_TRUE(wire::decode_payload(&r, &out));
  EXPECT_EQ(r.finish(), wire::DecodeError::kOk);
  const auto* q = payload_cast<ConsensusPayload>(out.get());
  EXPECT_NE(q, nullptr);
  return q != nullptr ? q->state : InstanceState(s.items.size());
}

class InstanceStateModel : public ::testing::TestWithParam<std::size_t> {};

TEST_P(InstanceStateModel, MatchesPerItemReference) {
  const std::size_t n = GetParam();
  Xoshiro256SS rng(0x1257A7E + n);
  InstanceState s(n);
  RefState ref(n);
  expect_same(s, ref);
  InstanceState other;
  RefState other_ref(n);
  for (int op = 0; op < 600; ++op) {
    SCOPED_TRACE("n " + std::to_string(n) + " op " + std::to_string(op));
    switch (rng.uniform(8)) {
      case 0:
      case 1:
      case 2: {  // merge a received state
        random_other(n, rng, &other, &other_ref);
        ASSERT_EQ(s.merge(other), ref.merge(other_ref));
        break;
      }
      case 3: {  // merge a state decoded from the wire
        random_other(n, rng, &other, &other_ref);
        const InstanceState decoded = over_the_wire(other);
        expect_same(decoded, other_ref);
        ASSERT_EQ(s.merge(decoded), ref.merge(other_ref));
        break;
      }
      case 4: {  // own rumor
        const auto self = static_cast<ProcessId>(rng.uniform(n));
        const Val v = random_vote(rng);
        s.add_own(self, v);
        ref.origins[self] = true;
        if (ref.items[self] == kValUnknown) ref.items[self] = v;
        break;
      }
      case 5: {  // next sub-instance: origins restart, items stay
        const auto self = static_cast<ProcessId>(rng.uniform(n));
        s.origins.clear_all();
        s.origins.set(self);
        ref.origins.assign(n, false);
        ref.origins[self] = true;
        break;
      }
      case 6: {  // catch-up: adopt a sender's state wholesale
        random_other(n, rng, &other, &other_ref);
        s = other;
        ref = other_ref;
        break;
      }
      default: {  // next exchange: empty, in place
        s.reset(n);
        ref = RefState(n);
        break;
      }
    }
    expect_same(s, ref);
    // Merging what is already held gains nothing.
    InstanceState copy = s;
    ASSERT_FALSE(copy.merge(s));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, InstanceStateModel,
                         ::testing::Values(1, 63, 64, 65, 130));

}  // namespace
}  // namespace asyncgossip
