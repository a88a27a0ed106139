// Deterministic pseudo-random number generation.
//
// Every experiment in this repository is seeded so results are reproducible
// bit-for-bit across runs; nothing reads entropy from the environment.
#ifndef COLOGNE_COMMON_RNG_H_
#define COLOGNE_COMMON_RNG_H_

#include <cstdint>

namespace cologne {

/// One SplitMix64 scrambling step: the repo's canonical way to derive
/// decorrelated deterministic seeds (Rng seeding, context-cache keys).
inline uint64_t SplitMix64(uint64_t x) {
  uint64_t z = x + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// \brief SplitMix64-seeded xoshiro256** generator.
///
/// Small, fast, and deterministic.  Not cryptographic; used only for workload
/// synthesis and randomized search tie-breaking.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull) { Seed(seed); }

  /// Re-seed the generator (SplitMix64 expansion of `seed`).
  void Seed(uint64_t seed) {
    uint64_t x = seed;
    for (auto& s : state_) {
      s = SplitMix64(x);
      x += 0x9E3779B97F4A7C15ull;
    }
  }

  /// Next raw 64-bit output.
  uint64_t Next() {
    uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [lo, hi] (inclusive); requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(Next() % span);
  }

  /// Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi) {
    return lo + (hi - lo) * UniformDouble();
  }

  /// Bernoulli draw with probability `p` of true.
  bool Bernoulli(double p) { return UniformDouble() < p; }

  /// Approximately normal draw (sum of 12 uniforms, Irwin-Hall) with the
  /// given mean and standard deviation; adequate for workload noise.
  double Gaussian(double mean, double stddev) {
    double s = 0;
    for (int i = 0; i < 12; ++i) s += UniformDouble();
    return mean + (s - 6.0) * stddev;
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t state_[4];
};

}  // namespace cologne

#endif  // COLOGNE_COMMON_RNG_H_
