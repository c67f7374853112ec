// streamhull: deterministic pseudo-random number generation.
//
// Everything stochastic in the library (workload generators, test sweeps)
// goes through Rng so that every experiment and test is
// reproducible from a single 64-bit seed. The engine is SplitMix64 feeding
// xoshiro256**, both public-domain algorithms, implemented here so the
// library has no dependency on unspecified std::mt19937 distribution
// implementations (libstdc++ vs libc++ produce different streams).

#ifndef STREAMHULL_COMMON_RNG_H_
#define STREAMHULL_COMMON_RNG_H_

#include <cmath>
#include <cstdint>

#include "common/check.h"

namespace streamhull {

/// \brief Deterministic, seedable random number generator
/// (xoshiro256** seeded via SplitMix64).
class Rng {
 public:
  /// Creates a generator whose entire stream is determined by \p seed.
  explicit Rng(uint64_t seed) noexcept { Seed(seed); }

  /// Re-seeds the generator; the subsequent stream matches a freshly
  /// constructed Rng with the same seed.
  void Seed(uint64_t seed) noexcept {
    uint64_t x = seed;
    for (int i = 0; i < 4; ++i) {
      // SplitMix64 step.
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      state_[i] = z ^ (z >> 31);
    }
  }

  /// Uniform 64-bit value.
  uint64_t NextU64() noexcept {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double NextDouble() noexcept {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * NextDouble();
  }

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n) noexcept {
    SH_DCHECK(n > 0);
    // Lemire's unbiased bounded generation.
    uint64_t x = NextU64();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < n) {
      uint64_t t = -n % n;
      while (l < t) {
        x = NextU64();
        m = static_cast<__uint128_t>(x) * n;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Standard normal via Box-Muller (one value per call; no caching so the
  /// stream position stays a pure function of call count).
  double Normal() noexcept {
    double u1 = NextDouble();
    double u2 = NextDouble();
    // Avoid log(0).
    if (u1 <= 0) u1 = 0x1.0p-53;
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * 3.14159265358979323846 * u2);
  }

  /// Bernoulli draw with probability \p p of returning true.
  bool Bernoulli(double p) noexcept { return NextDouble() < p; }

 private:
  static uint64_t Rotl(uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

}  // namespace streamhull

#endif  // STREAMHULL_COMMON_RNG_H_
