// A kernel configuration: the set of enabled options plus build knobs.
//
// Internally the option set is an id-indexed bitset over interned option
// names (see interning.h) plus a small side table for explicit values other
// than "y". The string-keyed API is a thin shim over the id-based one;
// membership tests and bulk enables on the build hot path are O(1) bit ops
// and copying a Config is a couple of small memcpys instead of a
// std::map<std::string, std::string> deep copy.
#ifndef SRC_KCONFIG_CONFIG_H_
#define SRC_KCONFIG_CONFIG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/kconfig/option_db.h"

namespace lupine::kconfig {

// Compiler optimization target (Lupine's -tiny uses -Os; everything else -O2).
enum class CompileMode { kO2, kOs };

class Config {
 public:
  Config() = default;
  explicit Config(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // Bool options (string shim).
  void Enable(const std::string& option) {
    EnableId(OptionInterner::Global().Intern(option));
  }
  void Disable(const std::string& option);
  bool IsEnabled(const std::string& option) const;

  // Valued options (ints / strings); also marks the option enabled.
  void SetValue(const std::string& option, const std::string& value);

  // Id-based hot path (used by Resolver, ImageBuilder, feature derivation).
  void EnableId(OptionId id);
  bool IsEnabledId(OptionId id) const { return bits::Test(enabled_, id); }
  // View into the stored value ("y" for plain-enabled options, "" when the
  // option is absent).
  //
  // LIFETIME: the view aliases the side-table entry. Any mutator that can
  // touch the side table (SetValue, Disable, EnableId/Enable) invalidates
  // it — rehashing or erasure frees the backing string. Copy into a
  // std::string before mutating, as DeriveFeatures does for PANIC_TIMEOUT.
  // value_generation() snapshots let debug builds assert a view was not
  // held across a mutation (see ValueViewGuard).
  std::string_view ValueOfId(OptionId id) const;
  // Enabled ids in ascending id order.
  std::vector<OptionId> EnabledIds() const;
  // Enabled ids sorted by interned name: the one lexicographic order, which
  // every name-sorted view of a Config reads.
  std::vector<OptionId> EnabledIdsByName() const;
  // Raw membership bitset of enabled (value != "n") options.
  const std::vector<uint64_t>& enabled_bits() const { return enabled_; }

  size_t EnabledCount() const { return present_count_; }

  CompileMode compile_mode() const { return compile_mode_; }
  void set_compile_mode(CompileMode mode) { compile_mode_ = mode; }

  // Whether the out-of-tree KML patch has been applied to the source tree.
  // The KERNEL_MODE_LINUX option is only legal to enable when this is set
  // (enforced by the Resolver).
  bool kml_patch_applied() const { return kml_patch_applied_; }
  void set_kml_patch_applied(bool applied) { kml_patch_applied_ = applied; }

  // Set algebra used by the configuration-diversity analysis (Fig. 5).
  // Options present in `this` but not in `other`, sorted lexicographically.
  std::vector<std::string> Minus(const Config& other) const;

  // True when a kernel built from `other` can serve this configuration:
  // every enabled option of `this` is enabled in `other` with an identical
  // value, and the build knobs (compile mode, KML patch) match. Used by the
  // cross-build batching mode to prove a per-app config against
  // lupine-general before substituting the shared kernel.
  bool IsSubsetOf(const Config& other) const;

  // Bumped by every mutation that can invalidate ValueOfId views (side-table
  // writes and erasures). Debug-time detection of use-after-mutation on the
  // returned string_views.
  uint64_t value_generation() const { return value_generation_; }

 private:
  std::string name_;
  // present_: the option has an entry (any value, including "n").
  // enabled_: present and value != "n" — the set IsEnabled answers for.
  std::vector<uint64_t> present_;
  std::vector<uint64_t> enabled_;
  // Values other than the implicit "y", keyed by id (includes "n" entries).
  std::unordered_map<OptionId, std::string> valued_;
  size_t present_count_ = 0;
  CompileMode compile_mode_ = CompileMode::kO2;
  bool kml_patch_applied_ = false;
  uint64_t value_generation_ = 0;
};

// Asserts (in debug builds) that a Config was not mutated while a value view
// was live. Construct right after ValueOfId; Check() fails once any
// side-table mutation happened on the watched Config.
class ValueViewGuard {
 public:
  explicit ValueViewGuard(const Config& config)
      : config_(&config), generation_(config.value_generation()) {}
  bool Check() const { return config_->value_generation() == generation_; }

 private:
  const Config* config_;
  uint64_t generation_;
};

}  // namespace lupine::kconfig

#endif  // SRC_KCONFIG_CONFIG_H_
