// The EARS/SEARS informed-list I(p) (paper Figure 2) as one flat bit matrix.
//
// Row r is the set of processes that, to p's knowledge, have been *sent*
// rumor r. The n rows of ceil(n/64) words each live in one row-major vector,
// so a <V, I> snapshot is a single vector copy and a merge is one pass over
// the rows. A row is either absent (no pair recorded) or present, possibly
// with no bit set: the two differ in byte_size() and on the wire, so a
// presence flag per row sits beside the matrix. The list also keeps the
// count of full rows (rumor r known-sent to all of [n]); the progress
// condition L(p) = {} and the telemetry probe read it.
//
// The matrix is allocated when the first row becomes present, so a list
// that never records a pair (the ears-no-informed-list ablation) stays O(n)
// bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/bitset.h"

namespace asyncgossip {

class InformedList {
 public:
  InformedList() = default;

  /// A list over n rumors and n processes with every row absent.
  explicit InformedList(std::size_t n)
      : n_(n), words_per_row_((n + 63) / 64), rows_(n, kAbsent) {}

  std::size_t n() const { return n_; }
  bool present(std::size_t r) const {
    AG_ASSERT_MSG(r < n_, "informed-list index out of range");
    return rows_[r] != kAbsent;
  }
  bool test(std::size_t r, std::size_t q) const {
    AG_ASSERT_MSG(q < n_, "informed-list index out of range");
    return present(r) && ((row(r)[q / 64] >> (q % 64)) & 1) != 0;
  }
  /// Row r's ceil(n / 64) words, bit q at word q / 64; requires present(r).
  const std::uint64_t* row(std::size_t r) const {
    return words_.data() + r * words_per_row_;
  }

  std::size_t present_count() const { return present_count_; }
  /// Rows with all n bits set.
  std::size_t full_count() const { return full_count_; }

  /// Records that rumor r was sent to q. True iff the list changed.
  bool note(std::size_t r, std::size_t q) {
    AG_ASSERT_MSG(r < n_ && q < n_, "informed-list index out of range");
    const bool was_absent = rows_[r] == kAbsent;
    if (was_absent) make_present(r);
    std::uint64_t& w = mutable_row(r)[q / 64];
    const std::uint64_t bit = std::uint64_t{1} << (q % 64);
    if ((w & bit) != 0) return was_absent;
    w |= bit;
    refresh_full(r);
    return true;
  }

  /// Records rumor r as sent to every q in the n-bit set `targets`, making
  /// row r present even when `targets` is empty. True iff the list changed.
  bool note_row(std::size_t r, const DynamicBitset& targets) {
    AG_ASSERT_MSG(r < n_ && targets.size() == n_,
                  "informed-list size mismatch in note_row");
    if (rows_[r] == kFull) return false;
    const bool was_absent = rows_[r] == kAbsent;
    if (was_absent) make_present(r);
    return or_row(r, targets.words().data()) || was_absent;
  }

  /// note_row(r, targets) for every r in the n-bit set `rumors`: one OR
  /// per row. True iff the list changed.
  bool note_rows(const DynamicBitset& rumors, const DynamicBitset& targets) {
    AG_ASSERT_MSG(rumors.size() == n_, "informed-list size mismatch in note_rows");
    bool changed = false;
    rumors.for_each_set([&](std::size_t r) {
      if (note_row(r, targets)) changed = true;
    });
    return changed;
  }

  /// this |= other, row by row; a row present in `other` becomes present
  /// here. True iff the list changed.
  bool merge(const InformedList& other) {
    AG_ASSERT_MSG(n_ == other.n_, "informed-list size mismatch in merge");
    if (other.present_count_ == 0) return false;
    bool changed = false;
    for (std::size_t r = 0; r < n_; ++r) {
      if (other.rows_[r] == kAbsent || rows_[r] == kFull) continue;
      if (rows_[r] == kAbsent) {
        make_present(r);
        changed = true;
      }
      if (or_row(r, other.row(r))) changed = true;
    }
    return changed;
  }

  /// Bytes of the wire shape: one presence bit per row plus the packed
  /// words of every present row.
  std::size_t byte_size() const {
    return (n_ + 7) / 8 +
           present_count_ * words_per_row_ * sizeof(std::uint64_t);
  }

  /// Heap bytes held: the presence flags, plus the matrix once any row is
  /// present.
  std::size_t heap_bytes() const {
    return rows_.capacity() * sizeof(RowState) +
           words_.capacity() * sizeof(std::uint64_t);
  }

  friend bool operator==(const InformedList& a, const InformedList& b) {
    return a.n_ == b.n_ && a.rows_ == b.rows_ && a.words_ == b.words_;
  }

 private:
  enum RowState : std::uint8_t { kAbsent, kPresent, kFull };

  std::uint64_t* mutable_row(std::size_t r) {
    return words_.data() + r * words_per_row_;
  }

  void make_present(std::size_t r) {
    if (words_.empty()) words_.assign(n_ * words_per_row_, 0);
    rows_[r] = kPresent;
    ++present_count_;
  }

  /// Row r |= mask; on a gain, refreshes the full count. True iff a bit
  /// was gained.
  bool or_row(std::size_t r, const std::uint64_t* mask) {
    std::uint64_t* words = mutable_row(r);
    std::uint64_t gained = 0;
    for (std::size_t w = 0; w < words_per_row_; ++w) {
      gained |= mask[w] & ~words[w];
      words[w] |= mask[w];
    }
    if (gained == 0) return false;
    refresh_full(r);
    return true;
  }

  void refresh_full(std::size_t r) {
    const std::uint64_t* words = row(r);
    std::size_t bits = 0;
    for (std::size_t w = 0; w < words_per_row_; ++w)
      bits += static_cast<std::size_t>(__builtin_popcountll(words[w]));
    if (bits == n_) {
      rows_[r] = kFull;
      ++full_count_;
    }
  }

  std::size_t n_ = 0;
  std::size_t words_per_row_ = 0;
  std::vector<RowState> rows_;
  std::vector<std::uint64_t> words_;  // n_ rows x words_per_row_, or empty
  std::size_t present_count_ = 0;
  std::size_t full_count_ = 0;
};

}  // namespace asyncgossip
