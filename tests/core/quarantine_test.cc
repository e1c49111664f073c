// Artifact quarantine: rebuild-once-then-poison containment for cached
// artifacts whose launches keep failing.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/core/multik.h"

namespace lupine::core {
namespace {

// A cache on a manual quarantine clock, so TTL expiry is a test decision.
struct ManualClockCache {
  KernelCache cache;
  Nanos now = 0;

  explicit ManualClockCache(QuarantinePolicy policy = {}) {
    cache.set_quarantine(policy);
    cache.set_quarantine_clock([this] { return now; });
  }
};

TEST(QuarantineTest, RebuildOnceThenPoisonThenTtlProbe) {
  ManualClockCache fixture;
  KernelCache& cache = fixture.cache;
  ASSERT_TRUE(cache.GetOrBuild("redis").ok());
  const size_t rootfs_builds = cache.rootfs_stats().builds;

  // Strike one: the artifact (and its rootfs blob) is dropped for a rebuild.
  cache.ReportLaunchFailure("redis");
  EXPECT_EQ(cache.stats().quarantine_rebuilds, 1u);
  ASSERT_TRUE(cache.GetOrBuild("redis").ok());
  EXPECT_EQ(cache.rootfs_stats().builds, rootfs_builds + 1);
  EXPECT_EQ(cache.rootfs_stats().invalidations, 1u);

  // Strike two: the rebuild failed too — the key is poisoned and GetOrBuild
  // fails fast with a quarantine denial.
  cache.ReportLaunchFailure("redis");
  EXPECT_EQ(cache.stats().quarantine_poisoned, 1u);
  auto denied = cache.GetOrBuild("redis");
  ASSERT_FALSE(denied.ok());
  EXPECT_TRUE(KernelCache::IsQuarantineDenial(denied.status()));
  EXPECT_FALSE(cache.GetOrBuild("redis").ok());
  EXPECT_EQ(cache.stats().quarantine_denials, 2u);

  // Other apps are unaffected.
  EXPECT_TRUE(cache.GetOrBuild("nginx").ok());

  // TTL passes: one probe rebuild is allowed through, with a fresh cycle.
  fixture.now += QuarantinePolicy{}.poison_ttl + 1;
  ASSERT_TRUE(cache.GetOrBuild("redis").ok());
  cache.ReportLaunchFailure("redis");
  EXPECT_EQ(cache.stats().quarantine_rebuilds, 2u);  // Fresh rebuild grant.
  EXPECT_EQ(cache.stats().quarantine_poisoned, 1u);
}

TEST(QuarantineTest, DisabledPolicyNeverDropsOrDenies) {
  ManualClockCache fixture(QuarantinePolicy{.enabled = false});
  KernelCache& cache = fixture.cache;
  ASSERT_TRUE(cache.GetOrBuild("redis").ok());
  for (int i = 0; i < 10; ++i) {
    cache.ReportLaunchFailure("redis");
  }
  EXPECT_TRUE(cache.GetOrBuild("redis").ok());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.quarantine_failures, 0u);
  EXPECT_EQ(stats.quarantine_rebuilds, 0u);
  EXPECT_EQ(stats.quarantine_poisoned, 0u);
  EXPECT_EQ(stats.quarantine_denials, 0u);
}

TEST(QuarantineTest, PoisonedReportsAreIgnoredUntilProbe) {
  ManualClockCache fixture;
  KernelCache& cache = fixture.cache;
  ASSERT_TRUE(cache.GetOrBuild("redis").ok());
  cache.ReportLaunchFailure("redis");
  cache.ReportLaunchFailure("redis");
  ASSERT_EQ(cache.stats().quarantine_poisoned, 1u);
  // Stragglers mid-flight keep reporting; the state machine must not spin.
  cache.ReportLaunchFailure("redis");
  cache.ReportLaunchFailure("redis");
  EXPECT_EQ(cache.stats().quarantine_poisoned, 1u);
  EXPECT_EQ(cache.stats().quarantine_rebuilds, 1u);
}

// Storm: concurrent GetOrBuild + failure reports on one key must stay
// consistent (no lost counts, no deadlock, denial status well-formed).
// Boot()-free and fiber-free.
TEST(QuarantineStormTest, ConcurrentReportsAndRequestsStayConsistent) {
  KernelCache cache;
  Nanos now = 0;  // Never advances: poison never expires mid-storm.
  cache.set_quarantine_clock([&now] { return now; });
  ASSERT_TRUE(cache.GetOrBuild("redis").ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::atomic<size_t> denials{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &denials] {
      for (int i = 0; i < kPerThread; ++i) {
        auto artifact = cache.GetOrBuild("redis");
        if (!artifact.ok()) {
          EXPECT_TRUE(KernelCache::IsQuarantineDenial(artifact.status()));
          denials.fetch_add(1);
          continue;
        }
        cache.ReportLaunchFailure("redis");
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const auto stats = cache.stats();
  // Every loop iteration either reported a failure or was denied.
  EXPECT_EQ(stats.quarantine_failures + denials.load(),
            static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.quarantine_denials, denials.load());
  EXPECT_EQ(stats.quarantine_rebuilds, 1u);
  EXPECT_EQ(stats.quarantine_poisoned, 1u);
}

}  // namespace
}  // namespace lupine::core
