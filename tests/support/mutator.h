// Seeded, structure-blind byte mutations for parser robustness tests: flipped
// bytes, truncations, splices of a donor input and duplicated ranges. Every
// draw comes from the caller's util/prng stream, so a seed reproduces its
// mutants byte for byte.
#ifndef TESTS_SUPPORT_MUTATOR_H_
#define TESTS_SUPPORT_MUTATOR_H_

#include <string>
#include <string_view>

#include "src/util/prng.h"

namespace lupine::fuzz {

// XORs 1-4 bytes at random positions with a non-zero mask.
inline void FlipBytes(std::string& bytes, Prng& rng) {
  if (bytes.empty()) {
    return;
  }
  for (int n = 1 + static_cast<int>(rng.NextBelow(4)); n > 0; --n) {
    bytes[rng.NextBelow(bytes.size())] ^= static_cast<char>(1 + rng.NextBelow(255));
  }
}

// Cuts the input to a random length shorter than it.
inline void Truncate(std::string& bytes, Prng& rng) {
  if (!bytes.empty()) {
    bytes.resize(rng.NextBelow(bytes.size()));
  }
}

// Replaces a random range of the input with a random range of `donor`.
inline void Splice(std::string& bytes, std::string_view donor, Prng& rng) {
  const size_t at = rng.NextBelow(bytes.size() + 1);
  const size_t cut = rng.NextBelow(bytes.size() - at + 1);
  const size_t from = rng.NextBelow(donor.size() + 1);
  const size_t len = rng.NextBelow(donor.size() - from + 1);
  bytes.replace(at, cut, donor.substr(from, len));
}

// Inserts a copy of a random non-empty range of the input at a random
// position.
inline void Duplicate(std::string& bytes, Prng& rng) {
  if (bytes.empty()) {
    return;
  }
  const size_t from = rng.NextBelow(bytes.size());
  const std::string range = bytes.substr(from, 1 + rng.NextBelow(bytes.size() - from));
  bytes.insert(rng.NextBelow(bytes.size() + 1), range);
}

// One mutant of `input`: duplications and splices from `donor`, then byte
// flips (always, when nothing else changed the input) and a truncation.
inline std::string Mutate(std::string_view input, std::string_view donor, Prng& rng) {
  std::string out(input);
  bool mutated = false;
  if (rng.NextBool(0.3)) {
    Duplicate(out, rng);
    mutated = true;
  }
  if (rng.NextBool(0.3)) {
    Splice(out, donor, rng);
    mutated = true;
  }
  if (!mutated || rng.NextBool(0.4)) {
    FlipBytes(out, rng);
  }
  if (rng.NextBool(0.2)) {
    Truncate(out, rng);
  }
  return out;
}

}  // namespace lupine::fuzz

#endif  // TESTS_SUPPORT_MUTATOR_H_
