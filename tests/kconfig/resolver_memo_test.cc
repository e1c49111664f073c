// Closure memoization must be invisible: the memoized replay path and the
// reference BFS walk (memoization off) produce byte-identical reports,
// configs, fingerprints and error statuses on every input the fleet pipeline
// exercises.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/multik.h"
#include "src/kconfig/option_names.h"
#include "src/kconfig/presets.h"
#include "src/kconfig/resolver.h"

namespace lupine::kconfig {
namespace {

// RAII: force the global memoization flag for one scope.
class MemoizationGuard {
 public:
  explicit MemoizationGuard(bool enabled) : prev_(Resolver::MemoizationEnabled()) {
    Resolver::SetMemoizationEnabled(enabled);
  }
  ~MemoizationGuard() { Resolver::SetMemoizationEnabled(prev_); }

 private:
  bool prev_;
};

struct Outcome {
  bool ok = false;
  Err err = Err::kOk;
  std::string message;
  std::vector<std::string> auto_enabled;
  Config config;
};

Outcome EnableAll(const Config& base, const std::vector<std::string>& options, bool memoize) {
  MemoizationGuard guard(memoize);
  Outcome outcome;
  outcome.config = base;
  Resolver resolver(OptionDb::Linux40());
  for (const auto& option : options) {
    auto report = resolver.Enable(outcome.config, option);
    if (!report.ok()) {
      outcome.err = report.status().err();
      outcome.message = report.status().message();
      return outcome;
    }
    outcome.auto_enabled.insert(outcome.auto_enabled.end(), report->auto_enabled.begin(),
                                report->auto_enabled.end());
  }
  outcome.ok = true;
  return outcome;
}

// Same enabled options with the same values and build knobs.
bool SameConfig(const Config& a, const Config& b) {
  return a.EnabledIds() == b.EnabledIds() && a.IsSubsetOf(b) && b.IsSubsetOf(a);
}

void ExpectIdentical(const Config& base, const std::vector<std::string>& options) {
  Outcome memoized = EnableAll(base, options, /*memoize=*/true);
  Outcome walked = EnableAll(base, options, /*memoize=*/false);
  EXPECT_EQ(memoized.ok, walked.ok);
  EXPECT_EQ(memoized.err, walked.err);
  EXPECT_EQ(memoized.message, walked.message);
  EXPECT_EQ(memoized.auto_enabled, walked.auto_enabled);
  EXPECT_TRUE(SameConfig(memoized.config, walked.config));
  EXPECT_EQ(core::KernelCache::ConfigFingerprint(memoized.config),
            core::KernelCache::ConfigFingerprint(walked.config));
}

TEST(ResolverMemoTest, Top20AppOptionsResolveIdentically) {
  for (const auto& app : Top20AppNames()) {
    SCOPED_TRACE(app);
    ExpectIdentical(LupineBase(), AppExtraOptions(app));
  }
}

TEST(ResolverMemoTest, HighFanoutOptionsFromEmptyConfig) {
  // From an empty config nothing is pre-enabled, so the memoized replay path
  // (rather than the pruned-walk fallback) is exercised end to end.
  for (const std::string option : {names::kIpv6, names::kSelinux, names::kCpusets,
                                   names::kVirtioNet, names::kNetNs}) {
    SCOPED_TRACE(option);
    ExpectIdentical(Config(), {option});
  }
}

TEST(ResolverMemoTest, LupineGeneralUnionResolvesIdentically) {
  // The union of every app's options atop lupine-base — the lupine-general
  // construction path, where later options are partially pre-enabled by
  // earlier ones (the pruned-walk fallback).
  std::vector<std::string> all;
  for (const auto& app : Top20AppNames()) {
    const auto& extra = AppExtraOptions(app);
    all.insert(all.end(), extra.begin(), extra.end());
  }
  ExpectIdentical(LupineBase(), all);
}

TEST(ResolverMemoTest, ErrorStatusesMatchByteForByte) {
  // Unknown option.
  ExpectIdentical(LupineBase(), {"NO_SUCH_OPTION"});
  // KML without the patch applied.
  ExpectIdentical(LupineBase(), {names::kKml});
  // KML conflict with PARAVIRT on a patched tree.
  Config patched = LupineBase();
  patched.set_kml_patch_applied(true);
  ASSERT_TRUE(patched.IsEnabled(names::kParavirt));
  ExpectIdentical(patched, {names::kKml});
}

TEST(ResolverMemoTest, WarmCacheRepeatsAreStable) {
  MemoizationGuard guard(true);
  Resolver resolver(OptionDb::Linux40());
  Config first = LupineBase();
  auto first_report = resolver.Enable(first, "IPV6");
  ASSERT_TRUE(first_report.ok());
  for (int i = 0; i < 3; ++i) {
    Config repeat = LupineBase();
    auto report = resolver.Enable(repeat, "IPV6");
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->auto_enabled, first_report->auto_enabled);
    EXPECT_TRUE(SameConfig(repeat, first));
  }
}

TEST(ResolverMemoTest, GlobalKillSwitchDisablesReplay) {
  // Flipping the global flag must not change results, only the path taken.
  Config with_memo = LupineBase();
  Config without_memo = LupineBase();
  {
    MemoizationGuard guard(true);
    Resolver resolver(OptionDb::Linux40());
    ASSERT_TRUE(resolver.Enable(with_memo, "IPV6").ok());
  }
  {
    MemoizationGuard guard(false);
    Resolver resolver(OptionDb::Linux40());
    ASSERT_TRUE(resolver.Enable(without_memo, "IPV6").ok());
  }
  EXPECT_TRUE(SameConfig(with_memo, without_memo));
}

}  // namespace
}  // namespace lupine::kconfig
