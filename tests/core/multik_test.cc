#include "src/core/multik.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "src/kconfig/option_names.h"
#include "src/kconfig/presets.h"
#include "src/workload/app_bench.h"

namespace lupine::core {
namespace {

TEST(MultikTest, LanguageRuntimesShareOneKernel) {
  // golang, python, openjdk, php and hello-world all need zero options
  // beyond lupine-base (Table 3): one kernel serves all five.
  KernelCache cache;
  for (const std::string app : {"golang", "python", "openjdk", "php", "hello-world"}) {
    auto artifact = cache.GetOrBuild(app);
    ASSERT_TRUE(artifact.ok()) << app;
  }
  auto stats = cache.stats();
  EXPECT_EQ(stats.apps, 5u);
  EXPECT_EQ(stats.distinct_kernels, 1u);
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.bytes_saved(), 4 * stats.bytes_stored);
}

TEST(MultikTest, DistinctOptionSetsGetDistinctKernels) {
  KernelCache cache;
  ASSERT_TRUE(cache.GetOrBuild("redis").ok());
  ASSERT_TRUE(cache.GetOrBuild("nginx").ok());
  auto stats = cache.stats();
  EXPECT_EQ(stats.distinct_kernels, 2u);
}

TEST(MultikTest, RepeatRequestsHitTheCache) {
  KernelCache cache;
  auto first = cache.GetOrBuild("redis");
  auto second = cache.GetOrBuild("redis");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value(), second.value());  // Same artifact pointer.
  auto stats = cache.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.builds, 1u);
}

TEST(MultikTest, SharedKernelDistinctRootfs) {
  KernelCache cache;
  auto golang = cache.GetOrBuild("golang");
  auto python = cache.GetOrBuild("python");
  ASSERT_TRUE(golang.ok());
  ASSERT_TRUE(python.ok());
  EXPECT_EQ((*golang)->kernel, (*python)->kernel);  // Shared image.
  EXPECT_NE((*golang)->rootfs, (*python)->rootfs);  // Own filesystem.
}

TEST(MultikTest, Top20FleetStats) {
  KernelCache cache;
  for (const auto& app : kconfig::Top20AppNames()) {
    ASSERT_TRUE(cache.GetOrBuild(app).ok()) << app;
  }
  auto stats = cache.stats();
  EXPECT_EQ(stats.apps, 20u);
  // 5 zero-option apps share one kernel; every other set is unique here.
  EXPECT_EQ(stats.distinct_kernels, 16u);
  EXPECT_GT(stats.bytes_saved(), 10 * kMiB);
}

TEST(MultikTest, CachedArtifactsBootAndRun) {
  KernelCache cache;
  auto artifact = cache.GetOrBuild("redis");
  ASSERT_TRUE(artifact.ok());
  auto vm = (*artifact)->Launch();
  ASSERT_TRUE(workload::BootAppServer(*vm, "Ready to accept connections"));
}

TEST(MultikTest, FingerprintIgnoresConfigName) {
  kconfig::Config a = kconfig::LupineBase();
  kconfig::Config b = kconfig::LupineBase();
  b.set_name("renamed");
  EXPECT_EQ(KernelCache::ConfigFingerprint(a), KernelCache::ConfigFingerprint(b));
  b.Enable("FUTEX");
  EXPECT_NE(KernelCache::ConfigFingerprint(a), KernelCache::ConfigFingerprint(b));
}

// The string-keyed fingerprint: the enabled names sorted as strings (not
// through EnabledIdsByName), a value lookup per name.
std::string ReferenceFingerprint(const kconfig::Config& config) {
  std::vector<std::string> names;
  for (kconfig::OptionId id : config.EnabledIds()) {
    names.push_back(kconfig::OptionInterner::Global().NameOf(id));
  }
  std::sort(names.begin(), names.end());
  std::ostringstream text;
  for (const auto& option : names) {
    text << option << "=" << config.ValueOfId(kconfig::OptionInterner::Global().Find(option))
         << ";";
  }
  text << "mode=" << (config.compile_mode() == kconfig::CompileMode::kOs ? "Os" : "O2");
  text << ";kml=" << (config.kml_patch_applied() ? 1 : 0);
  return std::to_string(std::hash<std::string>{}(text.str()));
}

TEST(MultikTest, FingerprintMatchesTheStringKeyedReference) {
  namespace n = kconfig::names;
  std::vector<kconfig::Config> configs = {kconfig::MicrovmConfig(), kconfig::LupineBase(),
                                          kconfig::LupineGeneral()};
  for (const auto& app : kconfig::Top20AppNames()) {
    auto config = kconfig::LupineForApp(app);
    ASSERT_TRUE(config.ok()) << app;
    configs.push_back(config.take());
  }
  kconfig::Config valued = kconfig::LupineGeneral();
  valued.SetValue(n::kPanicTimeout, "-1");
  valued.SetValue(n::kExt2Fs, "m");
  configs.push_back(valued);
  kconfig::Config tiny = kconfig::LupineBase();
  tiny.set_compile_mode(kconfig::CompileMode::kOs);
  configs.push_back(tiny);
  kconfig::Config kml = kconfig::LupineBase();
  kml.set_kml_patch_applied(true);
  kml.Enable(n::kKml);
  configs.push_back(kml);

  for (const auto& config : configs) {
    EXPECT_EQ(KernelCache::ConfigFingerprint(config), ReferenceFingerprint(config))
        << config.name() << " (" << config.EnabledIds().size() << " options)";
  }

  // A name first interned after every fingerprint above ranked its options,
  // sorting between two of them.
  kconfig::Config late = kconfig::LupineBase();
  ASSERT_TRUE(late.IsEnabled("BASE_CORE_0004") && late.IsEnabled("BASE_CORE_0005"));
  late.Enable("BASE_CORE_0004_LATE");
  EXPECT_EQ(KernelCache::ConfigFingerprint(late), ReferenceFingerprint(late));
}

}  // namespace
}  // namespace lupine::core
