// FNV-1a (64-bit), the content hash behind the guest state digests.
#ifndef SRC_UTIL_FNV_H_
#define SRC_UTIL_FNV_H_

#include <cstdint>
#include <string_view>

namespace lupine {

inline constexpr uint64_t kFnvOffset = 1469598103934665603ull;

// Folds the eight little-endian bytes of `value` into `h`.
inline void FnvMix(uint64_t& h, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (i * 8)) & 0xff;
    h *= 1099511628211ull;
  }
}

// Folds the length of `s`, then its bytes, into `h`.
inline void FnvMix(uint64_t& h, std::string_view s) {
  FnvMix(h, static_cast<uint64_t>(s.size()));
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
}

}  // namespace lupine

#endif  // SRC_UTIL_FNV_H_
