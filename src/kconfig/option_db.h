// The option database: every configuration option of the (synthetic)
// Linux 4.0 tree, indexed by interned id.
#ifndef SRC_KCONFIG_OPTION_DB_H_
#define SRC_KCONFIG_OPTION_DB_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/kconfig/interning.h"
#include "src/kconfig/option.h"

namespace lupine::kconfig {

class OptionDb {
 public:
  OptionDb();
  // Not copyable: a copy would share serial_ and with it the resolver's
  // per-database closure cache. Moves keep the serial.
  OptionDb(const OptionDb&) = delete;
  OptionDb& operator=(const OptionDb&) = delete;
  OptionDb(OptionDb&&) = default;
  OptionDb& operator=(OptionDb&&) = default;

  // Registers an option; returns false (and ignores it) on duplicate name.
  // [[nodiscard]] because a dropped registration silently loses the option's
  // size/dependency data — callers that rely on uniqueness by construction
  // must assert or (void)-cast explicitly.
  [[nodiscard]] bool Add(OptionInfo info);

  // O(1)-ish lookup by interned id (one hash over a 4-byte key, no string
  // hashing). Returns nullptr for ids not registered in this database.
  const OptionInfo* FindById(OptionId id) const;

  // Interned adjacency of one option, precomputed at Add time so the
  // resolver's closure walks never touch option-name strings.
  struct OptionEdges {
    OptionId self = kNoOption;
    std::vector<OptionId> depends_on;
    std::vector<OptionId> selects;
    std::vector<OptionId> conflicts;
  };
  const OptionEdges* EdgesById(OptionId id) const;

  size_t size() const { return options_.size(); }
  const std::vector<OptionInfo>& options() const { return options_; }

  // Identity of this database instance; keys the resolver's per-database
  // closure cache. Unique per logical database.
  uint64_t serial() const { return serial_; }

  size_t CountInDir(SourceDir dir) const;

  // The synthetic Linux 4.0 option tree (15,953 options; see linux_db.cc for
  // how named behaviour-relevant options and per-directory filler compose).
  static const OptionDb& Linux40();

 private:
  static uint64_t NextSerial();

  std::vector<OptionInfo> options_;
  std::vector<OptionEdges> edges_;                  // Parallel to options_.
  std::unordered_map<OptionId, size_t> id_index_;   // Interned id -> index.
  uint64_t serial_;
};

}  // namespace lupine::kconfig

#endif  // SRC_KCONFIG_OPTION_DB_H_
