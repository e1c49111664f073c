// Process-wide interning of configuration option names.
//
// Every option name that enters the system (database registration, Config
// mutation) is mapped to a dense integer OptionId. The hot
// paths — Config membership tests, dependency resolution, image sizing —
// operate on these ids with bitsets and vectors instead of hashing
// std::string keys at every step. Ids are process-global (not per-database),
// so a Config never needs to know which OptionDb its names came from, and
// ids are never reused or freed.
#ifndef SRC_KCONFIG_INTERNING_H_
#define SRC_KCONFIG_INTERNING_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace lupine::kconfig {

using OptionId = uint32_t;
inline constexpr OptionId kNoOption = 0xFFFFFFFFu;

// Thread-safe append-only string table. Intern and Find take the table's
// lock; NameOf takes none. Names live in geometric segments that
// never move: segment k holds the next 1024 << k ids, is allocated on first
// use and is reached through a fixed array of atomic segment pointers, so
// every id below kNoOption has a slot. Each name is constructed in its slot
// at its exact size and published under the writer lock before Intern
// returns its id, so a reader that got the id from Intern (or from a Config
// built with it) reads a finished name. NameOf references stay valid for the
// process lifetime: the one instance is never destroyed.
//
// SortByName puts ids in name order through a lazy rank table: the ids
// callers have sorted so far, kept in name order, and each one's position
// there. Only sorted ids are ranked (a few hundred per preset, not the whole
// table), and ranking a newcomer merges it in and renumbers under the writer
// lock. A sort whose ids are all ranked takes the shared lock once and
// compares integers, never strings.
class OptionInterner {
 public:
  static OptionInterner& Global();

  ~OptionInterner() = delete;

  // Returns the id for `name`, assigning the next dense id on first sight.
  OptionId Intern(std::string_view name);

  // Returns the id for `name`, or kNoOption if it was never interned.
  // A name that was never interned cannot be present in any Config.
  OptionId Find(std::string_view name) const;

  // The name behind an id. The id must have been returned by Intern.
  const std::string& NameOf(OptionId id) const {
    const Slot slot = Locate(id);
    return segments_[slot.segment].load(std::memory_order_acquire)[slot.offset];
  }

  // Sorts `ids` by name, ranking any id no earlier call has ranked. Every id
  // must have been returned by Intern.
  void SortByName(std::vector<OptionId>& ids) const;

 private:
  static constexpr int kFirstSegmentBits = 10;
  static constexpr uint64_t kFirstSegmentSize = uint64_t{1} << kFirstSegmentBits;

  struct Slot {
    int segment;
    uint64_t offset;
  };

  // Segment k starts at id kFirstSegmentSize * (2^k - 1): offsetting the id
  // by kFirstSegmentSize puts the segment in the position of the top bit.
  static constexpr Slot Locate(OptionId id) {
    const uint64_t n = uint64_t{id} + kFirstSegmentSize;
    const int top = std::bit_width(n) - 1;
    return {top - kFirstSegmentBits, n - (uint64_t{1} << top)};
  }

  // Enough segments for every id below kNoOption (the last one's top bit).
  static constexpr int kSegments =
      std::bit_width(uint64_t{kNoOption} - 1 + kFirstSegmentSize) - kFirstSegmentBits;

  static constexpr uint32_t kUnranked = 0xFFFFFFFFu;

  OptionInterner() = default;

  bool Ranked(OptionId id) const { return id < rank_.size() && rank_[id] != kUnranked; }

  mutable std::shared_mutex mu_;
  std::array<std::atomic<std::string*>, kSegments> segments_{};  // Written under mu_.
  size_t size_ = 0;                                              // Guarded by mu_.
  std::unordered_map<std::string_view, OptionId> ids_;           // Views into segments_.
  // The rank table behind SortByName, guarded by mu_: ranked ids in name
  // order, and id -> position in by_name_ (kUnranked for the rest).
  mutable std::vector<OptionId> by_name_;
  mutable std::vector<uint32_t> rank_;
};

// Fixed-width bitset helpers shared by Config and the resolver (word = 64
// ids). Out-of-range ids read as 0; writes grow the vector.
namespace bits {

inline bool Test(const std::vector<uint64_t>& words, OptionId id) {
  size_t w = id >> 6;
  return w < words.size() && (words[w] >> (id & 63)) & 1;
}

inline void Set(std::vector<uint64_t>& words, OptionId id) {
  size_t w = id >> 6;
  if (w >= words.size()) {
    words.resize(w + 1, 0);
  }
  words[w] |= uint64_t{1} << (id & 63);
}

inline void Clear(std::vector<uint64_t>& words, OptionId id) {
  size_t w = id >> 6;
  if (w < words.size()) {
    words[w] &= ~(uint64_t{1} << (id & 63));
  }
}

inline bool Intersects(const std::vector<uint64_t>& a, const std::vector<uint64_t>& b) {
  size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    if ((a[i] & b[i]) != 0) {
      return true;
    }
  }
  return false;
}

}  // namespace bits

}  // namespace lupine::kconfig

#endif  // SRC_KCONFIG_INTERNING_H_
