#include "common/rng.h"

#include "common/assert.h"

namespace asyncgossip {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Xoshiro256SS::Xoshiro256SS(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& w : s_) w = splitmix64(sm);
  // splitmix64 never produces four zero outputs from any seed, but guard
  // against the (impossible in practice) all-zero state anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Xoshiro256SS::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Xoshiro256SS::uniform(std::uint64_t bound) {
  AG_ASSERT_MSG(bound > 0, "uniform() bound must be positive");
  // Lemire's method: multiply-shift with rejection of the biased region.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Xoshiro256SS::uniform_real() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Xoshiro256SS::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform_real() < p;
}

std::vector<std::uint64_t> Xoshiro256SS::sample_without_replacement(
    std::uint64_t bound, std::uint64_t k) {
  std::vector<std::uint64_t> out;
  sample_without_replacement(bound, k, &out);
  return out;
}

void Xoshiro256SS::sample_without_replacement(
    std::uint64_t bound, std::uint64_t k, std::vector<std::uint64_t>* out) {
  AG_ASSERT_MSG(k <= bound, "cannot sample more values than the range holds");
  // Floyd's algorithm produces k distinct values; we then Fisher-Yates
  // shuffle so callers may treat the order as uniform too.
  out->clear();
  out->reserve(k);
  for (std::uint64_t j = bound - k; j < bound; ++j) {
    const std::uint64_t t = uniform(j + 1);
    bool seen = false;
    for (std::uint64_t v : *out) {
      if (v == t) {
        seen = true;
        break;
      }
    }
    out->push_back(seen ? j : t);
  }
  for (std::uint64_t i = out->size(); i > 1; --i) {
    const std::uint64_t j = uniform(i);
    std::swap((*out)[i - 1], (*out)[j]);
  }
}

Xoshiro256SS Xoshiro256SS::split() { return Xoshiro256SS(next()); }

void Xoshiro256SS::jump() {
  static constexpr std::uint64_t kJump[] = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::uint64_t jump : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (std::uint64_t{1} << b)) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      next();
    }
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
}

}  // namespace asyncgossip
