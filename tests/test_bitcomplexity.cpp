// Bit-complexity extension (paper Section 7, "future work"): payload sizes
// and engine-level byte accounting, plus the measured contrast the paper's
// open question hints at — EARS pays Theta(n^2)-bit messages for its
// informed-list progress control while TEARS messages stay Theta(n) bits.
#include <gtest/gtest.h>

#include "consensus/core_types.h"

#include "gossip/epidemic.h"
#include "gossip/harness.h"
#include "gossip/tears.h"
#include "gossip/trivial.h"

namespace asyncgossip {
namespace {

TEST(BitComplexity, BitsetByteSize) {
  EXPECT_EQ(DynamicBitset(64).byte_size(), 8u);
  EXPECT_EQ(DynamicBitset(65).byte_size(), 16u);
  EXPECT_EQ(DynamicBitset(0).byte_size(), 0u);
}

TEST(BitComplexity, TrivialPayloadIsOneRumorSet) {
  TrivialPayload p;
  p.rumors = DynamicBitset(128);
  EXPECT_EQ(p.byte_size(), 16u);
}

TEST(BitComplexity, TearsPayloadLinearInN) {
  TearsPayload p;
  p.rumors = DynamicBitset(1024);
  EXPECT_EQ(p.byte_size(), 129u);  // 128 bytes of rumors + flag
}

TEST(BitComplexity, EpidemicPayloadGrowsWithInformedList) {
  EpidemicPayload p;
  p.rumors = DynamicBitset(256);
  p.informed = InformedList(256);
  const std::size_t empty_size = p.byte_size();
  const DynamicBitset none(256);
  for (std::size_t r = 0; r < 256; ++r) p.informed.note_row(r, none);
  EXPECT_GT(p.byte_size(), empty_size + 256 * 30);  // ~n^2/8 bytes
}

TEST(BitComplexity, EngineAccumulatesBytes) {
  GossipSpec spec;
  spec.algorithm = GossipAlgorithm::kTrivial;
  spec.n = 32;
  spec.f = 0;
  const GossipOutcome out = run_gossip_spec(spec);
  ASSERT_TRUE(out.completed);
  // Every trivial message carries exactly one 32-bit rumor set (8 bytes of
  // words: one 64-bit word).
  EXPECT_EQ(out.bytes, out.messages * 8);
}

TEST(BitComplexity, EarsMessagesAreQuadraticBitsTearsLinear) {
  GossipSpec ears, tears;
  ears.algorithm = GossipAlgorithm::kEars;
  tears.algorithm = GossipAlgorithm::kTears;
  for (GossipSpec* s : {&ears, &tears}) {
    s->n = 128;
    s->f = 32;
    s->d = 2;
    s->delta = 2;
    s->schedule = SchedulePattern::kStaggered;
    s->seed = 5;
  }
  const GossipOutcome oe = run_gossip_spec(ears);
  const GossipOutcome ot = run_gossip_spec(tears);
  ASSERT_TRUE(oe.completed && ot.completed);
  const double ears_bytes_per_msg =
      static_cast<double>(oe.bytes) / static_cast<double>(oe.messages);
  const double tears_bytes_per_msg =
      static_cast<double>(ot.bytes) / static_cast<double>(ot.messages);
  // EARS messages carry up to n^2 bits of informed-list (n=128 -> up to
  // ~2 KiB); TEARS messages are ~n bits (~17 bytes).
  EXPECT_GT(ears_bytes_per_msg, 8.0 * tears_bytes_per_msg);
  EXPECT_LT(tears_bytes_per_msg, 64.0);
  // And so, despite EARS sending far fewer *messages*, TEARS can win on
  // *bits* — exactly why the paper flags bit complexity as open.
  EXPECT_LT(oe.messages, ot.messages);
}

TEST(BitComplexity, ConsensusBytesTracked) {
  ConsensusPayload p;
  p.state = InstanceState(64);
  EXPECT_EQ(p.byte_size(), 8u + 64u + 16u);
}

}  // namespace
}  // namespace asyncgossip
