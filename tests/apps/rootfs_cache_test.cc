// RootfsCache: content-addressed keying, single-flight deduplication under
// thread storms, and size-aware LRU eviction with pinned-entry protection.
// The threaded tests run under ThreadSanitizer in CI (no VMs are booted).
#include "src/apps/rootfs_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "src/apps/builtin.h"

namespace lupine::apps {
namespace {

ContainerImage Image(const std::string& app) {
  RegisterBuiltinApps();
  const AppManifest* manifest = FindManifest(app);
  EXPECT_NE(manifest, nullptr) << app;
  return MakeAlpineImage(*manifest);
}

TEST(RootfsCacheTest, KeyIsStableAndCoversImageFields) {
  const ContainerImage redis = Image("redis");
  EXPECT_EQ(RootfsCache::CacheKey(redis, {}), RootfsCache::CacheKey(redis, {}));
  EXPECT_NE(RootfsCache::CacheKey(redis, {}), RootfsCache::CacheKey(Image("nginx"), {}));

  // Every field that reaches the blob must reach the key.
  ContainerImage tweaked = redis;
  tweaked.env["EXTRA"] = "1";
  EXPECT_NE(RootfsCache::CacheKey(redis, {}), RootfsCache::CacheKey(tweaked, {}));
  tweaked = redis;
  tweaked.entrypoint.push_back("--appendonly");
  EXPECT_NE(RootfsCache::CacheKey(redis, {}), RootfsCache::CacheKey(tweaked, {}));
}

TEST(RootfsCacheTest, KmlOptionNeverCollapsesIntoThePlainKey) {
  // A KML rootfs carries the KML-patched musl: same image, different blob.
  const ContainerImage image = Image("redis");
  RootfsOptions plain;
  RootfsOptions kml;
  kml.kml_libc = true;
  EXPECT_NE(RootfsCache::CacheKey(image, plain), RootfsCache::CacheKey(image, kml));

  RootfsCache cache;
  auto plain_blob = cache.GetOrBuild(image, plain);
  auto kml_blob = cache.GetOrBuild(image, kml);
  EXPECT_NE(plain_blob, kml_blob);
  EXPECT_NE(plain_blob->blob(), kml_blob->blob());
  EXPECT_EQ(cache.stats().builds, 2u);
}

TEST(RootfsCacheTest, SecondRequestIsAHitOnTheSameBlob) {
  RootfsCache cache;
  const ContainerImage image = Image("nginx");
  auto first = cache.GetOrBuild(image, {});
  auto second = cache.GetOrBuild(image, {});
  EXPECT_EQ(first, second);  // Same shared blob, not a copy.
  auto stats = cache.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.bytes_stored, first->blob().size());
}

TEST(RootfsCacheTest, EightThreadStormBuildsEachDistinctKeyOnce) {
  constexpr size_t kThreads = 8;
  constexpr size_t kRequestsPerThread = 8;
  const std::vector<ContainerImage> images = {Image("redis"), Image("nginx"),
                                              Image("hello-world")};
  RootfsCache cache;
  std::atomic<bool> start{false};
  std::vector<RootfsCache::ImagePtr> first_blob(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!start.load()) {
        std::this_thread::yield();
      }
      for (size_t i = 0; i < kRequestsPerThread; ++i) {
        // Rotate so threads collide on different images first.
        const ContainerImage& image = images[(i + t) % images.size()];
        auto blob = cache.GetOrBuild(image, {});
        ASSERT_NE(blob, nullptr);
        if (i == 0 && t % images.size() == 0) {
          first_blob[t] = blob;
        }
      }
    });
  }
  start.store(true);
  for (auto& thread : threads) {
    thread.join();
  }
  auto stats = cache.stats();
  EXPECT_EQ(stats.requests, kThreads * kRequestsPerThread);
  EXPECT_EQ(stats.builds, images.size());  // One build per distinct key.
  EXPECT_EQ(stats.hits, stats.requests - stats.builds);
}

TEST(RootfsCacheTest, EvictionDropsTheLeastRecentlyUsedFirst) {
  CacheBudget budget;
  budget.max_entries = 2;
  RootfsCache cache(budget);
  const ContainerImage redis = Image("redis");
  const ContainerImage nginx = Image("nginx");
  const ContainerImage hello = Image("hello-world");
  (void)cache.GetOrBuild(redis, {});
  (void)cache.GetOrBuild(nginx, {});
  // Touch redis so nginx becomes the LRU entry, then overflow the budget.
  (void)cache.GetOrBuild(redis, {});
  (void)cache.GetOrBuild(hello, {});
  auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);

  // redis and hello survived (hits); nginx was rebuilt (a miss).
  const size_t builds_before = cache.stats().builds;
  (void)cache.GetOrBuild(redis, {});
  (void)cache.GetOrBuild(hello, {});
  EXPECT_EQ(cache.stats().builds, builds_before);
  (void)cache.GetOrBuild(nginx, {});
  EXPECT_EQ(cache.stats().builds, builds_before + 1);
}

TEST(RootfsCacheTest, HeldBlobsArePinnedAgainstEviction) {
  CacheBudget budget;
  budget.max_bytes = 1;  // Nothing fits.
  RootfsCache cache(budget);
  const ContainerImage redis = Image("redis");
  auto held = cache.GetOrBuild(redis, {});  // Keep a live reference.
  (void)cache.GetOrBuild(Image("nginx"), {});
  (void)cache.GetOrBuild(Image("hello-world"), {});  // Its insertion trims.

  // nginx (unreferenced) went; redis is pinned by `held` and stays a hit.
  auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);  // redis and hello-world.
  EXPECT_EQ(stats.evictions, 1u);
  const size_t builds_before = stats.builds;
  EXPECT_EQ(cache.GetOrBuild(redis, {}), held);
  EXPECT_EQ(cache.stats().builds, builds_before);

  // Dropping the pin makes the entry evictable on the next pass.
  held.reset();
  (void)cache.GetOrBuild(Image("nginx"), {});
  (void)cache.GetOrBuild(redis, {});
  EXPECT_EQ(cache.stats().builds, builds_before + 2);
}

TEST(RootfsCacheTest, ChurningKeysStayUnderTheByteBudget) {
  const ContainerImage base = Image("hello-world");
  const Bytes blob_size = RootfsCache(CacheBudget{}).GetOrBuild(base, {})->blob().size();

  CacheBudget budget;
  budget.max_bytes = 4 * blob_size;
  RootfsCache cache(budget);
  for (int i = 0; i < 100; ++i) {
    ContainerImage churn = base;
    churn.env["CHURN"] = std::to_string(i);  // 100 distinct keys.
    (void)cache.GetOrBuild(churn, {});
    EXPECT_LE(cache.stats().bytes_stored, budget.max_bytes) << "iteration " << i;
  }
  auto stats = cache.stats();
  EXPECT_EQ(stats.builds, 100u);
  EXPECT_GE(stats.evictions, 90u);
  EXPECT_GT(stats.bytes_evicted, 0u);
}

}  // namespace
}  // namespace lupine::apps
