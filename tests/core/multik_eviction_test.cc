// Bounded retention in the KernelCache: size-aware LRU budgets for kernel
// images and app artifacts, pinning of everything a caller still holds, and
// bounded memory under a fleet that keeps cycling through apps.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <variant>
#include <vector>

#include "src/core/multik.h"
#include "src/kconfig/presets.h"
#include "src/telemetry/journal.h"

namespace lupine::core {
namespace {

TEST(MultikEvictionTest, ChurningAppsStaysUnderTheKernelByteBudget) {
  // Measure one image to size the budget.
  Bytes image_size = 0;
  {
    KernelCache probe;
    auto artifact = probe.GetOrBuild("hello-world");
    ASSERT_TRUE(artifact.ok());
    image_size = (*artifact)->kernel->size;
  }

  CacheBudget kernel_budget;
  kernel_budget.max_bytes = 4 * image_size;
  // Keep the artifact budget tighter than the kernel budget: stored
  // artifacts pin their kernels, so a roomy artifact store would hold the
  // kernel store over its byte budget through pins alone.
  CacheBudget artifact_budget;
  artifact_budget.max_entries = 2;
  KernelCache cache(BuildOptions{}, artifact_budget, kernel_budget);

  const auto& apps = kconfig::Top20AppNames();
  for (size_t i = 0; i < 100; ++i) {
    auto artifact = cache.GetOrBuild(apps[i % apps.size()]);
    ASSERT_TRUE(artifact.ok()) << "iteration " << i;
    auto stats = cache.stats();
    // The returned artifact pins its own kernel, so the live store may carry
    // the budget plus the single pinned image, never more.
    EXPECT_LE(stats.bytes_stored, kernel_budget.max_bytes + (*artifact)->kernel->size)
        << "iteration " << i;
  }

  auto stats = cache.stats();
  EXPECT_GT(stats.kernel_evictions, 50u);
  EXPECT_GT(stats.artifact_evictions, 50u);
  EXPECT_GT(stats.bytes_evicted, 0u);
  // bytes_if_unshared keeps counting evicted apps: the savings figure
  // reflects the whole churn, not just the resident slice.
  EXPECT_GT(stats.bytes_if_unshared, stats.bytes_stored);
}

TEST(MultikEvictionTest, HeldArtifactsPinTheirKernels) {
  CacheBudget one_entry;
  one_entry.max_entries = 1;
  KernelCache cache(BuildOptions{}, one_entry, one_entry);
  auto held = cache.GetOrBuild("redis");
  ASSERT_TRUE(held.ok());
  // Build nginx and drop the reference, then postgres: only unpinned
  // entries may go.
  ASSERT_TRUE(cache.GetOrBuild("nginx").ok());
  ASSERT_TRUE(cache.GetOrBuild("postgres").ok());

  // redis (held) survived both levels; nginx (dropped) was evicted.
  auto stats = cache.stats();
  EXPECT_GE(stats.artifact_evictions, 1u);
  EXPECT_GE(stats.kernel_evictions, 1u);
  const size_t builds_before = stats.builds;
  auto again = cache.GetOrBuild("redis");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *held);  // Same artifact object, no rebuild.
  EXPECT_EQ(cache.stats().builds, builds_before);
}

TEST(MultikEvictionTest, EvictedKernelIsRebuiltOnDemand) {
  CacheBudget artifact_budget;
  artifact_budget.max_entries = 1;
  CacheBudget kernel_budget;
  kernel_budget.max_entries = 1;
  KernelCache cache(BuildOptions{}, artifact_budget, kernel_budget);

  ASSERT_TRUE(cache.GetOrBuild("redis").ok());
  ASSERT_TRUE(cache.GetOrBuild("nginx").ok());  // Evicts redis at both levels.
  EXPECT_EQ(cache.stats().distinct_kernels, 1u);

  const size_t builds_before = cache.stats().builds;
  ASSERT_TRUE(cache.GetOrBuild("redis").ok());  // Miss: transparent rebuild.
  EXPECT_EQ(cache.stats().builds, builds_before + 1);
}

TEST(MultikEvictionTest, BothTiersJournalEvictionsUnderTheirKey) {
  CacheBudget one_entry;
  one_entry.max_entries = 1;
  KernelCache cache(BuildOptions{}, one_entry, one_entry);
  telemetry::Journal journal;
  cache.set_journal(&journal);

  std::string redis_fingerprint;
  {
    auto redis = cache.GetOrBuild("redis");
    ASSERT_TRUE(redis.ok());
    redis_fingerprint = (*redis)->fingerprint;
  }
  ASSERT_TRUE(cache.GetOrBuild("nginx").ok());  // Evicts redis at both levels.
  ASSERT_EQ(cache.stats().artifact_evictions, 1u);
  ASSERT_EQ(cache.stats().kernel_evictions, 1u);

  std::set<std::string> evicted;
  for (const telemetry::Event& event : journal.Snapshot(/*include_schedule_scoped=*/true)) {
    if (event.source != "kernel-cache" || event.type != "evict") {
      continue;
    }
    for (const telemetry::Field& field : event.fields) {
      if (field.key == "key") {
        evicted.insert(std::get<std::string>(field.value));
      }
    }
  }
  // The artifact tier keys artifacts by app name.
  EXPECT_EQ(evicted, (std::set<std::string>{"redis", redis_fingerprint}));
}

}  // namespace
}  // namespace lupine::core
