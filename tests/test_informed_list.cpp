// InformedList (gossip/informed_list.h) against a reference model.
//
// The model is the per-row layout the flat matrix replaced: one
// DynamicBitset per rumor, size 0 meaning "row absent", with the full-row
// count recomputed from scratch on every check. Random note / note_rows /
// merge sequences at sizes around the word boundaries must leave both in
// the same state: presence, every bit, byte_size, present and full counts,
// and the same "changed" answer from every operation.
#include "gossip/informed_list.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/bitset.h"
#include "common/rng.h"

namespace asyncgossip {
namespace {

struct ModelList {
  explicit ModelList(std::size_t size) : n(size), rows(size) {}

  bool note(std::size_t r, std::size_t q) {
    bool changed = make_present(r);
    if (rows[r].set_and_check(q)) changed = true;
    return changed;
  }

  bool note_rows(const DynamicBitset& rumors, const DynamicBitset& targets) {
    bool changed = false;
    rumors.for_each_set([&](std::size_t r) {
      if (make_present(r)) changed = true;
      targets.for_each_set([&](std::size_t q) {
        if (rows[r].set_and_check(q)) changed = true;
      });
    });
    return changed;
  }

  bool merge(const ModelList& other) {
    bool changed = false;
    for (std::size_t r = 0; r < n; ++r) {
      if (other.rows[r].size() == 0) continue;
      if (make_present(r)) changed = true;
      if (rows[r].merge(other.rows[r])) changed = true;
    }
    return changed;
  }

  bool make_present(std::size_t r) {
    if (rows[r].size() != 0) return false;
    rows[r] = DynamicBitset(n);
    return true;
  }

  std::size_t byte_size() const {
    std::size_t total = (n + 7) / 8;
    for (const DynamicBitset& row : rows) total += row.byte_size();
    return total;
  }

  std::size_t n;
  std::vector<DynamicBitset> rows;
};

void expect_same(const InformedList& got, const ModelList& want,
                 const char* where) {
  ASSERT_EQ(got.n(), want.n) << where;
  std::size_t present = 0;
  std::size_t full = 0;
  for (std::size_t r = 0; r < want.n; ++r) {
    const DynamicBitset& row = want.rows[r];
    ASSERT_EQ(got.present(r), row.size() != 0) << where << " row " << r;
    if (row.size() == 0) continue;
    ++present;
    if (row.all()) ++full;
    for (std::size_t q = 0; q < want.n; ++q)
      ASSERT_EQ(got.test(r, q), row.test(q))
          << where << " row " << r << " bit " << q;
  }
  EXPECT_EQ(got.present_count(), present) << where;
  EXPECT_EQ(got.full_count(), full) << where;
  EXPECT_EQ(got.byte_size(), want.byte_size()) << where;
}

/// An n-bit set whose bits are each set with probability `density` / 4.
DynamicBitset random_set(std::size_t n, std::uint64_t density,
                         Xoshiro256SS* rng) {
  DynamicBitset bits(n);
  for (std::size_t i = 0; i < n; ++i)
    if (rng->uniform(4) < density) bits.set(i);
  return bits;
}

class InformedListModel : public ::testing::TestWithParam<std::size_t> {};

TEST_P(InformedListModel, RandomSequencesMatchThePerRowModel) {
  const std::size_t n = GetParam();
  constexpr std::size_t kLists = 3;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Xoshiro256SS rng(seed * 7919 + n);
    std::vector<InformedList> lists(kLists, InformedList(n));
    std::vector<ModelList> models(kLists, ModelList(n));
    for (int op = 0; op < 300; ++op) {
      const std::size_t i = rng.uniform(kLists);
      bool got = false;
      bool want = false;
      const char* what = "";
      switch (rng.uniform(8)) {
        case 0:
        case 1:
        case 2: {
          const std::size_t r = rng.uniform(n);
          const std::size_t q = rng.uniform(n);
          got = lists[i].note(r, q);
          want = models[i].note(r, q);
          what = "note";
          break;
        }
        case 3:
        case 4: {
          // Densities 0..4 quarters: empty targets make rows present but
          // empty, full targets fill rows.
          const DynamicBitset rumors =
              random_set(n, 1 + rng.uniform(2), &rng);
          const DynamicBitset targets = random_set(n, rng.uniform(5), &rng);
          got = lists[i].note_rows(rumors, targets);
          want = models[i].note_rows(rumors, targets);
          what = "note_rows";
          break;
        }
        case 5:
        case 6: {
          const std::size_t j = rng.uniform(kLists);
          got = lists[i].merge(lists[j]);
          want = models[i].merge(models[j]);
          what = "merge";
          break;
        }
        default:
          if (rng.uniform(4) != 0) continue;
          lists[i] = InformedList(n);
          models[i] = ModelList(n);
          what = "reset";
          break;
      }
      ASSERT_EQ(got, want) << what << " op " << op << " seed " << seed;
      expect_same(lists[i], models[i], what);
      if (::testing::Test::HasFailure()) return;
      EXPECT_TRUE(InformedList(lists[i]) == lists[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, InformedListModel,
                         ::testing::Values(1, 63, 64, 65, 130));

TEST(InformedList, MergeMakesRowsPresentEvenWhenEmpty) {
  InformedList a(70);
  InformedList b(70);
  EXPECT_TRUE(b.note_row(5, DynamicBitset(70)));
  EXPECT_TRUE(b.present(5));
  EXPECT_EQ(b.byte_size(), 9u + 16u);
  EXPECT_TRUE(a.merge(b));
  EXPECT_TRUE(a.present(5));
  EXPECT_FALSE(a.merge(b));
  EXPECT_TRUE(a == b);
}

TEST(InformedList, FullRowsAreCountedOnce) {
  InformedList list(65);
  DynamicBitset all(65);
  all.set_all();
  DynamicBitset rumors(65);
  rumors.set(0);
  rumors.set(64);
  EXPECT_TRUE(list.note_rows(rumors, all));
  EXPECT_EQ(list.full_count(), 2u);
  EXPECT_FALSE(list.note_rows(rumors, all));
  EXPECT_FALSE(list.note(64, 3));
  InformedList copy(65);
  EXPECT_TRUE(copy.merge(list));
  EXPECT_FALSE(copy.merge(list));
  EXPECT_EQ(copy.full_count(), 2u);
}

TEST(InformedList, MatrixIsAllocatedWithTheFirstPresentRow) {
  constexpr std::size_t kN = 256;
  InformedList list(kN);
  const std::size_t empty_bytes = list.heap_bytes();
  EXPECT_LE(empty_bytes, kN);  // presence flags only
  InformedList other(kN);
  EXPECT_FALSE(list.merge(other));
  EXPECT_EQ(list.heap_bytes(), empty_bytes);
  EXPECT_EQ(InformedList(list).heap_bytes(), empty_bytes);
  list.note(3, 4);
  EXPECT_GE(list.heap_bytes(), kN * kN / 8);
}

TEST(InformedList, SizeMismatchesThrow) {
  InformedList a(8);
  InformedList b(9);
  EXPECT_THROW(a.merge(b), ModelViolation);
  EXPECT_THROW(a.note_row(0, DynamicBitset(9)), ModelViolation);
  EXPECT_THROW(a.note_rows(DynamicBitset(9), DynamicBitset(8)),
               ModelViolation);
  EXPECT_THROW(a.note(8, 0), ModelViolation);
  EXPECT_THROW(a.note(0, 8), ModelViolation);
}

}  // namespace
}  // namespace asyncgossip
