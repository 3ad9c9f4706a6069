// Fixed-capacity dynamic bitset used for rumor sets.
//
// Rumors are identified by the originating process id, so a rumor set over n
// processes is exactly n bits. Union (merge) is the hot operation: a process
// receiving a gossip message merges the sender's knowledge into its own. The
// word loops on that path (set, test, count, merge) are inline; their range
// and size checks stay on, failing through a cold out-of-line path. The
// EARS informed-list I(p) is one n x n bit matrix (gossip/informed_list.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace asyncgossip {

class DynamicBitset {
 public:
  DynamicBitset() = default;

  /// Creates a bitset of `size` bits, all clear.
  explicit DynamicBitset(std::size_t size);

  std::size_t size() const { return size_; }

  void set(std::size_t i) {
    check_index(i);
    words_[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  void reset(std::size_t i);
  bool test(std::size_t i) const {
    check_index(i);
    return (words_[i / 64] >> (i % 64)) & 1;
  }

  /// Sets bit i and reports whether it was previously clear.
  bool set_and_check(std::size_t i) {
    check_index(i);
    const std::uint64_t mask = std::uint64_t{1} << (i % 64);
    const bool was_clear = (words_[i / 64] & mask) == 0;
    words_[i / 64] |= mask;
    return was_clear;
  }

  void set_all();
  void clear_all();

  /// Number of set bits.
  std::size_t count() const {
    std::size_t c = 0;
    for (std::uint64_t w : words_)
      c += static_cast<std::size_t>(__builtin_popcountll(w));
    return c;
  }

  bool any() const;
  bool none() const { return !any(); }
  bool all() const { return count() == size_; }

  /// this |= other. Returns true iff any bit newly became set — the engine
  /// and algorithms use this to detect "learned something new".
  bool merge(const DynamicBitset& other) {
    if (size_ != other.size_) fail_size_mismatch("merge");
    std::uint64_t gained = 0;
    for (std::size_t i = 0; i < words_.size(); ++i) {
      const std::uint64_t merged = words_[i] | other.words_[i];
      gained |= merged ^ words_[i];
      words_[i] = merged;
    }
    return gained != 0;
  }

  DynamicBitset& operator|=(const DynamicBitset& other);
  DynamicBitset& operator&=(const DynamicBitset& other);

  /// True iff every set bit of *this is also set in `other`.
  bool subset_of(const DynamicBitset& other) const;

  /// Index of the first clear bit, or size() if all bits are set.
  std::size_t first_clear() const;

  /// Indices of all set bits, ascending.
  std::vector<std::size_t> set_bits() const;

  /// Calls f(i) for every set bit i, ascending.
  template <typename F>
  void for_each_set(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        f(w * 64 + static_cast<std::size_t>(b));
        bits &= bits - 1;
      }
    }
  }

  /// The packed words, bit i at words()[i / 64] bit i % 64; bits at and
  /// beyond size() are clear.
  const std::vector<std::uint64_t>& words() const { return words_; }

  /// Bytes of a natural wire encoding (the packed words).
  std::size_t byte_size() const { return words_.size() * sizeof(std::uint64_t); }

  /// FNV-1a over the words; used for execution trace hashing in tests.
  std::uint64_t hash() const;

  friend bool operator==(const DynamicBitset& a, const DynamicBitset& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

 private:
  void check_index(std::size_t i) const {
    if (i >= size_) [[unlikely]] fail_index();
  }
  [[noreturn, gnu::cold]] static void fail_index();
  [[noreturn, gnu::cold]] static void fail_size_mismatch(const char* op);

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace asyncgossip
