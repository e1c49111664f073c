// Concurrency semantics of the single-flight KernelCache: no matter how many
// threads race GetOrBuild, each distinct kernel fingerprint is built exactly
// once and every caller sees the same stable artifact pointers. Run under
// ThreadSanitizer in CI.
#include "src/core/multik.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "src/kconfig/presets.h"

namespace lupine::core {
namespace {

TEST(MultikConcurrencyTest, ParallelFleetBuildsEachKernelOnce) {
  constexpr size_t kThreads = 8;
  const std::vector<std::string>& apps = kconfig::Top20AppNames();
  KernelCache cache;

  std::atomic<bool> start{false};
  std::vector<std::map<std::string, KernelCache::ArtifactPtr>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!start.load()) {
        std::this_thread::yield();
      }
      // Rotate the start index so threads collide on different apps first.
      for (size_t i = 0; i < apps.size(); ++i) {
        const std::string& app = apps[(i + t) % apps.size()];
        auto artifact = cache.GetOrBuild(app);
        ASSERT_TRUE(artifact.ok()) << app;
        seen[t][app] = *artifact;
      }
    });
  }
  start.store(true);
  for (auto& thread : threads) {
    thread.join();
  }

  auto stats = cache.stats();
  EXPECT_EQ(stats.apps, apps.size());
  EXPECT_EQ(stats.requests, kThreads * apps.size());
  // 5 zero-option apps share one kernel; every other option set is unique —
  // and single-flight means racing threads never build one twice.
  EXPECT_EQ(stats.distinct_kernels, 16u);
  EXPECT_EQ(stats.builds, stats.distinct_kernels);

  // Every thread got the same stable artifact (and kernel) pointer per app.
  for (size_t t = 1; t < kThreads; ++t) {
    for (const auto& [app, artifact] : seen[0]) {
      EXPECT_EQ(seen[t].at(app), artifact) << app;
      EXPECT_EQ(seen[t].at(app)->kernel, artifact->kernel) << app;
    }
  }
}

TEST(MultikConcurrencyTest, HammeringOneAppBuildsOnce) {
  constexpr size_t kThreads = 8;
  constexpr size_t kRequestsPerThread = 4;
  KernelCache cache;

  std::atomic<bool> start{false};
  std::vector<KernelCache::ArtifactPtr> artifacts(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!start.load()) {
        std::this_thread::yield();
      }
      for (size_t i = 0; i < kRequestsPerThread; ++i) {
        auto artifact = cache.GetOrBuild("node");
        ASSERT_TRUE(artifact.ok());
        artifacts[t] = *artifact;
      }
    });
  }
  start.store(true);
  for (auto& thread : threads) {
    thread.join();
  }

  auto stats = cache.stats();
  EXPECT_EQ(stats.apps, 1u);
  EXPECT_EQ(stats.requests, kThreads * kRequestsPerThread);
  EXPECT_EQ(stats.builds, 1u);
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(artifacts[t], artifacts[0]);
  }
}

TEST(MultikConcurrencyTest, FingerprintSharingAppsRaceToOneBuild) {
  // The five zero-option apps have distinct names but identical specialized
  // configurations. Requested concurrently (one thread each), the
  // fingerprint-level flight must still collapse them into a single build.
  const std::vector<std::string> runtimes = {"golang", "python", "openjdk", "php",
                                             "hello-world"};
  KernelCache cache;
  std::atomic<bool> start{false};
  std::vector<std::thread> threads;
  for (const auto& app : runtimes) {
    threads.emplace_back([&cache, &start, &app] {
      while (!start.load()) {
        std::this_thread::yield();
      }
      auto artifact = cache.GetOrBuild(app);
      ASSERT_TRUE(artifact.ok()) << app;
    });
  }
  start.store(true);
  for (auto& thread : threads) {
    thread.join();
  }

  auto stats = cache.stats();
  EXPECT_EQ(stats.apps, runtimes.size());
  EXPECT_EQ(stats.distinct_kernels, 1u);
  EXPECT_EQ(stats.builds, 1u);
}

TEST(MultikConcurrencyTest, MissingAppFailsEveryCallerWithoutPoisoning) {
  KernelCache cache;
  std::atomic<bool> start{false};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      while (!start.load()) {
        std::this_thread::yield();
      }
      auto artifact = cache.GetOrBuild("no-such-app");
      if (!artifact.ok()) {
        failures.fetch_add(1);
      }
    });
  }
  start.store(true);
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 4u);
  // A failure leaves no cached flight behind: a real app still works.
  EXPECT_TRUE(cache.GetOrBuild("redis").ok());
}

}  // namespace
}  // namespace lupine::core
