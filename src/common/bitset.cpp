#include "common/bitset.h"

#include "common/assert.h"

namespace asyncgossip {

DynamicBitset::DynamicBitset(std::size_t size)
    : size_(size), words_((size + 63) / 64, 0) {}

void DynamicBitset::fail_index() {
  detail::assert_fail("i < size_", __FILE__, __LINE__, "bit index out of range");
}

void DynamicBitset::fail_size_mismatch(const char* op) {
  detail::assert_fail("size_ == other.size_", __FILE__, __LINE__,
                      std::string("bitset size mismatch in ") + op);
}

void DynamicBitset::reset(std::size_t i) {
  check_index(i);
  words_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
}

void DynamicBitset::set_all() {
  if (size_ == 0) return;
  for (auto& w : words_) w = ~std::uint64_t{0};
  const std::size_t tail = size_ % 64;
  if (tail != 0) words_.back() = (std::uint64_t{1} << tail) - 1;
}

void DynamicBitset::clear_all() {
  for (auto& w : words_) w = 0;
}

bool DynamicBitset::any() const {
  for (std::uint64_t w : words_)
    if (w != 0) return true;
  return false;
}

DynamicBitset& DynamicBitset::operator|=(const DynamicBitset& other) {
  merge(other);
  return *this;
}

DynamicBitset& DynamicBitset::operator&=(const DynamicBitset& other) {
  if (size_ != other.size_) fail_size_mismatch("and");
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

bool DynamicBitset::subset_of(const DynamicBitset& other) const {
  if (size_ != other.size_) fail_size_mismatch("subset_of");
  for (std::size_t i = 0; i < words_.size(); ++i)
    if ((words_[i] & ~other.words_[i]) != 0) return false;
  return true;
}

std::size_t DynamicBitset::first_clear() const {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    const std::uint64_t inv = ~words_[w];
    if (inv != 0) {
      const std::size_t i = w * 64 + static_cast<std::size_t>(__builtin_ctzll(inv));
      return i < size_ ? i : size_;
    }
  }
  return size_;
}

std::vector<std::size_t> DynamicBitset::set_bits() const {
  std::vector<std::size_t> out;
  out.reserve(count());
  for_each_set([&](std::size_t i) { out.push_back(i); });
  return out;
}

std::uint64_t DynamicBitset::hash() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t w : words_) {
    h ^= w;
    h *= 0x100000001b3ULL;
  }
  h ^= size_;
  h *= 0x100000001b3ULL;
  return h;
}

}  // namespace asyncgossip
