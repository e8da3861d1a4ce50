#pragma once
/// \file rng.hpp
/// Deterministic, fast pseudo-random generators for *simulation* purposes
/// (event jitter, Monte-Carlo adversary moves).  Cryptographic randomness
/// lives in src/crypto/drbg.hpp; never use this generator for keys.

#include <array>
#include <bit>
#include <cstdint>
#include <limits>

#include "src/support/bytes.hpp"

namespace rasc::support {

/// SplitMix64: used to expand a user seed into generator state.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** — fast, high-quality, deterministic PRNG.
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Unbiased integer in [0, bound) via Lemire rejection; bound must be > 0.
  std::uint64_t below(std::uint64_t bound) noexcept {
    // Lemire's nearly-divisionless method with rejection for exact uniformity.
    using u128 = unsigned __int128;
    std::uint64_t x = (*this)();
    u128 m = static_cast<u128>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<u128>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool chance(double p) noexcept;

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean) noexcept;

  /// Raw generator state, for checkpoint/restore (fleet hibernation).
  using State = std::array<std::uint64_t, 4>;

  State state() const noexcept { return {s_[0], s_[1], s_[2], s_[3]}; }

  void set_state(const State& s) noexcept {
    s_[0] = s[0];
    s_[1] = s[1];
    s_[2] = s[2];
    s_[3] = s[3];
  }

 private:
  std::uint64_t s_[4];
};

/// `size` bytes drawn from Xoshiro256(`seed`): the deterministic firmware
/// images that scenarios, campaigns and fleet shards provision (a fleet
/// shard's simulated key comes from here too).
Bytes random_bytes(std::size_t size, std::uint64_t seed);

}  // namespace rasc::support
