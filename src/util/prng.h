// Deterministic pseudo-random number generation (xoshiro256** + splitmix64).
//
// Workload generators need randomness (key distributions, request sizes) but
// experiments must be reproducible, so every component that needs randomness
// owns a Prng seeded from the experiment seed.
#ifndef SRC_UTIL_PRNG_H_
#define SRC_UTIL_PRNG_H_

#include <cstdint>

namespace lupine {

class Prng {
 public:
  explicit Prng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  // Uniform 64-bit value.
  uint64_t Next();

  // Uniform in [0, bound) without modulo bias (Lemire's method).
  uint64_t NextBelow(uint64_t bound);

  // Uniform double in [0, 1).
  double NextDouble();

  // Bernoulli trial.
  bool NextBool(double p_true);

  // Derives an independent child generator (for per-connection streams).
  Prng Fork();

 private:
  uint64_t s_[4];
};

}  // namespace lupine

#endif  // SRC_UTIL_PRNG_H_
