#include "src/kconfig/config.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "src/kconfig/presets.h"

namespace lupine::kconfig {
namespace {

// The enabled names sorted as strings, without going through
// EnabledIdsByName.
std::vector<std::string> SortedNames(const Config& config) {
  std::vector<std::string> names;
  for (OptionId id : config.EnabledIds()) {
    names.push_back(OptionInterner::Global().NameOf(id));
  }
  std::sort(names.begin(), names.end());
  return names;
}

// The names behind EnabledIdsByName, in its order.
std::vector<std::string> NamesByName(const Config& config) {
  std::vector<std::string> names;
  for (OptionId id : config.EnabledIdsByName()) {
    names.push_back(OptionInterner::Global().NameOf(id));
  }
  return names;
}

// The stored value of `name`: "" when it was never interned.
std::string_view ValueOf(const Config& config, std::string_view name) {
  const OptionId id = OptionInterner::Global().Find(name);
  return id == kNoOption ? std::string_view() : config.ValueOfId(id);
}

TEST(ConfigTest, EnableDisable) {
  Config c("test");
  EXPECT_FALSE(c.IsEnabled("FUTEX"));
  c.Enable("FUTEX");
  EXPECT_TRUE(c.IsEnabled("FUTEX"));
  EXPECT_EQ(c.EnabledCount(), 1u);
  c.Disable("FUTEX");
  EXPECT_FALSE(c.IsEnabled("FUTEX"));
  EXPECT_EQ(c.EnabledCount(), 0u);
}

TEST(ConfigTest, ValuedOptions) {
  Config c;
  c.SetValue("NR_CPUS", "1");
  EXPECT_TRUE(c.IsEnabled("NR_CPUS"));
  EXPECT_EQ(ValueOf(c, "NR_CPUS"), "1");
  EXPECT_EQ(ValueOf(c, "MISSING"), "");
}

TEST(ConfigTest, MinusComputesDifference) {
  Config a;
  a.Enable("X");
  a.Enable("Y");
  Config b;
  b.Enable("Y");
  auto diff = a.Minus(b);
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0], "X");
  EXPECT_TRUE(b.Minus(a).empty());
}

TEST(ConfigTest, EnabledOptionsSortedAndComplete) {
  Config c;
  c.Enable("B");
  c.Enable("A");
  auto options = NamesByName(c);
  ASSERT_EQ(options.size(), 2u);
  EXPECT_EQ(options[0], "A");
  EXPECT_EQ(options[1], "B");

  const Config microvm = MicrovmConfig();
  ASSERT_EQ(microvm.EnabledIds().size(), 833u);
  EXPECT_EQ(NamesByName(microvm), SortedNames(microvm));
}

TEST(ConfigTest, ValueGenerationTracksSideTableMutations) {
  // Every mutator that can invalidate a ValueOfId view bumps the
  // generation; reads never do.
  Config c;
  const uint64_t start = c.value_generation();
  c.SetValue("NR_CPUS", "4");
  EXPECT_GT(c.value_generation(), start);

  const uint64_t after_set = c.value_generation();
  (void)ValueOf(c, "NR_CPUS");
  (void)c.IsEnabled("NR_CPUS");
  EXPECT_EQ(c.value_generation(), after_set);

  c.Disable("NR_CPUS");
  EXPECT_GT(c.value_generation(), after_set);

  const uint64_t after_disable = c.value_generation();
  c.Enable("PANIC_TIMEOUT");
  EXPECT_GT(c.value_generation(), after_disable);
}

TEST(ConfigTest, ValueViewGuardDetectsMutationUnderALiveView) {
  Config c;
  c.SetValue("NR_CPUS", "4");
  std::string_view view = ValueOf(c, "NR_CPUS");
  ValueViewGuard guard(c);
  EXPECT_TRUE(guard.Check());
  EXPECT_EQ(view, "4");

  // The copy-before-mutate discipline (see ValueOfId's lifetime note): take
  // the value, then mutate. The guard flags the stale view.
  std::string copy(view);
  c.SetValue("NR_CPUS", "8");
  EXPECT_FALSE(guard.Check());
  EXPECT_EQ(copy, "4");  // The copy is unaffected.
}

TEST(ConfigTest, IsSubsetOfComparesOptionsValuesAndKnobs) {
  Config small;
  small.Enable("FUTEX");
  small.SetValue("NR_CPUS", "1");
  Config big = small;
  big.Enable("EPOLL");
  EXPECT_TRUE(small.IsSubsetOf(big));
  EXPECT_FALSE(big.IsSubsetOf(small));
  EXPECT_TRUE(small.IsSubsetOf(small));

  // A clashing value breaks the subset even when the option set is covered.
  Config clash = big;
  clash.SetValue("NR_CPUS", "4");
  EXPECT_FALSE(small.IsSubsetOf(clash));

  // Build knobs must match: a -tiny or KML-patched kernel is not a superset
  // of a plain one.
  Config tiny = big;
  tiny.set_compile_mode(CompileMode::kOs);
  EXPECT_FALSE(small.IsSubsetOf(tiny));
  Config kml = big;
  kml.set_kml_patch_applied(true);
  EXPECT_FALSE(small.IsSubsetOf(kml));
}

}  // namespace
}  // namespace lupine::kconfig
