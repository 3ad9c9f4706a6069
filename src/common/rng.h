// Deterministic, copyable random number generation.
//
// Every source of randomness in the library flows through Xoshiro256SS so
// that (a) a whole execution is a pure function of its seeds, (b) process
// state — including its RNG — can be cloned, which the Theorem 1 adaptive
// adversary uses to fork the world and probe the *distribution* of a
// process's future behaviour, and (c) results are reproducible across
// platforms (we avoid std:: distributions, whose outputs are
// implementation-defined).
#pragma once

#include <cstdint>
#include <vector>

namespace asyncgossip {

/// murmur3's 64-bit finalizer: a cheap, deterministic mix for deriving
/// seeds (per-process rt streams, fuzz and statcheck trial grids).
inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference
/// implementation re-expressed in C++). Small, fast, 2^256-1 period,
/// trivially copyable — copy = independent replay of the same future stream.
class Xoshiro256SS {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words from `seed` via splitmix64, per the
  /// authors' recommendation (never yields the all-zero state).
  explicit Xoshiro256SS(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// UniformRandomBitGenerator interface.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }
  result_type operator()() { return next(); }

  std::uint64_t next();

  /// Uniform integer in [0, bound). Lemire's nearly-divisionless method;
  /// deterministic across platforms. `bound` must be > 0.
  std::uint64_t uniform(std::uint64_t bound);

  /// Uniform double in [0, 1) with 53 bits of entropy.
  double uniform_real();

  /// Bernoulli trial: true with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Uniform element index sampling without replacement: k distinct values
  /// from [0, bound). Floyd's algorithm; O(k) expected. Order is random.
  std::vector<std::uint64_t> sample_without_replacement(std::uint64_t bound,
                                                        std::uint64_t k);
  /// The same draw into a caller-owned buffer (replaced, capacity kept).
  void sample_without_replacement(std::uint64_t bound, std::uint64_t k,
                                  std::vector<std::uint64_t>* out);

  /// Derives an independent child generator (seeded from this stream).
  /// Used to give each process / adversary its own stream.
  Xoshiro256SS split();

  /// Equivalent to 2^128 calls to next(); used for stream separation tests.
  void jump();

  friend bool operator==(const Xoshiro256SS& a, const Xoshiro256SS& b) {
    return a.s_[0] == b.s_[0] && a.s_[1] == b.s_[1] && a.s_[2] == b.s_[2] &&
           a.s_[3] == b.s_[3];
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace asyncgossip
