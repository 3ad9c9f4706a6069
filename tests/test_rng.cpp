#include "common/rng.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/assert.h"

namespace asyncgossip {
namespace {

TEST(Rng, SameSeedSameStream) {
  Xoshiro256SS a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256SS a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() != b.next()) ++differing;
  EXPECT_GT(differing, 60);
}

TEST(Rng, CopyReplaysFuture) {
  Xoshiro256SS a(7);
  a.next();
  a.next();
  Xoshiro256SS b = a;
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformRespectsBound) {
  Xoshiro256SS rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t v = rng.uniform(bound);
      ASSERT_LT(v, bound);
    }
  }
}

TEST(Rng, UniformOneIsAlwaysZero) {
  Xoshiro256SS rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform(1), 0u);
}

TEST(Rng, UniformZeroBoundThrows) {
  Xoshiro256SS rng(5);
  EXPECT_THROW(rng.uniform(0), ModelViolation);
}

TEST(Rng, UniformIsRoughlyUniform) {
  Xoshiro256SS rng(11);
  constexpr std::uint64_t kBound = 10;
  constexpr int kSamples = 100000;
  std::vector<int> histogram(kBound, 0);
  for (int i = 0; i < kSamples; ++i) ++histogram[rng.uniform(kBound)];
  for (std::uint64_t b = 0; b < kBound; ++b) {
    EXPECT_GT(histogram[b], kSamples / 10 - kSamples / 40);
    EXPECT_LT(histogram[b], kSamples / 10 + kSamples / 40);
  }
}

TEST(Rng, UniformRealInUnitInterval) {
  Xoshiro256SS rng(13);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_real();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliEdgeCases) {
  Xoshiro256SS rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequency) {
  Xoshiro256SS rng(19);
  int hits = 0;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.02);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Xoshiro256SS rng(23);
  for (std::uint64_t bound : {5ULL, 16ULL, 100ULL}) {
    for (std::uint64_t k = 0; k <= bound; k += (bound / 5) + 1) {
      const auto sample = rng.sample_without_replacement(bound, k);
      ASSERT_EQ(sample.size(), k);
      std::set<std::uint64_t> unique(sample.begin(), sample.end());
      EXPECT_EQ(unique.size(), k);
      for (std::uint64_t v : sample) EXPECT_LT(v, bound);
    }
  }
}

TEST(Rng, SampleFullRangeIsPermutation) {
  Xoshiro256SS rng(29);
  const auto sample = rng.sample_without_replacement(50, 50);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 50u);
}

TEST(Rng, SampleTooManyThrows) {
  Xoshiro256SS rng(31);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), ModelViolation);
}

TEST(Rng, SampleCoversRange) {
  // Every element of a small range should appear across many draws.
  Xoshiro256SS rng(37);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i)
    for (std::uint64_t v : rng.sample_without_replacement(8, 2)) seen.insert(v);
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, SplitProducesIndependentStream) {
  Xoshiro256SS a(41);
  Xoshiro256SS child = a.split();
  EXPECT_NE(a.next(), child.next());
}

TEST(Rng, JumpChangesState) {
  Xoshiro256SS a(43), b(43);
  b.jump();
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.next(), b.next());
}

// --- golden seeded-determinism tests ---------------------------------------
// Pinned outputs of the reference xoshiro256** + splitmix64 seeding. Every
// execution, fuzz case and repro artifact in the repo is a pure function of
// its seeds, so these values changing means every committed trace hash and
// fixture silently changes meaning. If a legitimate RNG change is ever
// intended, regenerate these constants AND every committed trace/repro
// fixture in the same commit.

TEST(RngGolden, NextPinnedPerSeed) {
  const struct {
    std::uint64_t seed;
    std::uint64_t expect[5];
  } kGolden[] = {
      {1,
       {12966619160104079557ULL, 9600361134598540522ULL,
        10590380919521690900ULL, 7218738570589545383ULL,
        12860671823995680371ULL}},
      {42,
       {1546998764402558742ULL, 6990951692964543102ULL,
        12544586762248559009ULL, 17057574109182124193ULL,
        18295552978065317476ULL}},
      {0xDEADBEEFULL,
       {14219364052333592195ULL, 7332719151195188792ULL,
        6122488799882574371ULL, 4799409443904522999ULL,
        18090429560773761838ULL}},
  };
  for (const auto& g : kGolden) {
    Xoshiro256SS rng(g.seed);
    for (const std::uint64_t want : g.expect) EXPECT_EQ(rng.next(), want);
  }
}

TEST(RngGolden, UniformPinned) {
  Xoshiro256SS rng(7);
  const std::uint64_t want[] = {70, 27, 83, 98, 99, 87, 6, 10};
  for (const std::uint64_t w : want) EXPECT_EQ(rng.uniform(100), w);
}

TEST(RngGolden, UniformRealPinned) {
  // uniform_real is next() >> 11 scaled by 2^-53: exact in binary64, so
  // exact equality is portable.
  Xoshiro256SS rng(7);
  EXPECT_EQ(rng.uniform_real(), 0.7005764821796896);
  EXPECT_EQ(rng.uniform_real(), 0.27875122947378428);
  EXPECT_EQ(rng.uniform_real(), 0.83962746187641979);
  EXPECT_EQ(rng.uniform_real(), 0.98109772501493508);
}

TEST(RngGolden, SplitAndJumpPinned) {
  Xoshiro256SS parent(9);
  Xoshiro256SS child = parent.split();
  EXPECT_EQ(child.next(), 6115943644970510790ULL);
  EXPECT_EQ(parent.next(), 4639160090213153785ULL);

  Xoshiro256SS jumped(11);
  jumped.jump();
  EXPECT_EQ(jumped.next(), 35109889632992780ULL);
}

TEST(RngGolden, Mix64Pinned) {
  // Seeds the rt per-process streams and the fuzz/statcheck trial grids.
  EXPECT_EQ(mix64(0), 0u);
  EXPECT_EQ(mix64(1), 12994781566227106604ULL);
  EXPECT_EQ(mix64(42), 9297814886316923340ULL);
  EXPECT_EQ(mix64(0x9e3779b97f4a7c15ULL), 11286133854226296554ULL);
}

}  // namespace
}  // namespace asyncgossip
