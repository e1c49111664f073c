// SnapshotCache retention and restore-failure quarantine. Pure cache-level
// tests — snapshots here are synthetic (no guest boots), so the suite runs
// everywhere including the tsan leg via the storm suite below.
#include "src/core/snapshot_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/telemetry/journal.h"
#include "src/telemetry/metrics.h"

namespace lupine::core {
namespace {

guestos::Snapshot MakeSnapshot(const std::string& key, Bytes bytes = 8 * kMiB) {
  guestos::Snapshot snapshot;
  snapshot.key = key;
  snapshot.app = "synthetic";
  snapshot.memory = 128 * kMiB;
  snapshot.captured_bytes = bytes;
  snapshot.capture_ns = Millis(4);
  snapshot.restore_ns = Millis(2);
  snapshot.state_digest = 0x5eed;
  return snapshot;
}

TEST(SnapshotCacheTest, KeySeparatesItsComponents) {
  // "ab"+"c" vs "a"+"bc" must not collide.
  EXPECT_NE(SnapshotCache::Key("ab", "c", 1), SnapshotCache::Key("a", "bc", 1));
  EXPECT_NE(SnapshotCache::Key("a", "b", 64 * kMiB), SnapshotCache::Key("a", "b", 128 * kMiB));
}

TEST(SnapshotCacheTest, PutThenFindHitsAndCountsBytes) {
  SnapshotCache cache;
  cache.Put(MakeSnapshot("k1"));
  EXPECT_TRUE(cache.Contains("k1"));
  EXPECT_NE(cache.Find("k1"), nullptr);
  EXPECT_EQ(cache.Find("missing"), nullptr);
  auto stats = cache.stats();
  EXPECT_EQ(stats.captures, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes_stored, 8 * kMiB);
}

TEST(SnapshotCacheTest, FirstCaptureWins) {
  SnapshotCache cache;
  auto first = cache.Put(MakeSnapshot("k1", 8 * kMiB));
  auto second = cache.Put(MakeSnapshot("k1", 16 * kMiB));
  // The duplicate is dropped; both callers hold the canonical snapshot.
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.stats().duplicate_captures, 1u);
  EXPECT_EQ(cache.stats().bytes_stored, 8 * kMiB);
}

TEST(SnapshotCacheTest, LruEvictsOldestUnpinnedWhenOverBudget) {
  SnapshotCache cache({.max_bytes = 20 * kMiB});
  cache.Put(MakeSnapshot("a", 8 * kMiB));
  cache.Put(MakeSnapshot("b", 8 * kMiB));
  // Touch "a" so "b" is the LRU victim when "c" overflows the budget.
  (void)cache.Find("a");
  cache.Put(MakeSnapshot("c", 8 * kMiB));
  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_FALSE(cache.Contains("b"));
  EXPECT_TRUE(cache.Contains("c"));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().bytes_evicted, 8 * kMiB);
}

TEST(SnapshotCacheTest, PinnedEntriesSurviveEviction) {
  SnapshotCache cache({.max_bytes = 20 * kMiB});
  // Hold a reference to "a" — a restore in flight / parked warm guest.
  SnapshotCache::SnapshotPtr pinned = cache.Put(MakeSnapshot("a", 8 * kMiB));
  cache.Put(MakeSnapshot("b", 8 * kMiB));
  cache.Put(MakeSnapshot("c", 8 * kMiB));
  EXPECT_TRUE(cache.Contains("a"));   // Pinned: skipped by the evictor.
  EXPECT_FALSE(cache.Contains("b"));  // Oldest unpinned paid instead.
  EXPECT_GT(cache.stats().bytes_pinned, 0u);
}

TEST(SnapshotCacheTest, RestoreFailureDropsOnceThenPoisonsThenProbes) {
  SnapshotCache cache;
  Nanos now = 0;
  cache.set_quarantine_clock([&now] { return now; });
  cache.set_quarantine({.enabled = true, .poison_ttl = Millis(100)});

  cache.Put(MakeSnapshot("k"));
  // Strike 1: the entry is dropped so the next boot recaptures.
  cache.ReportRestoreFailure("k");
  EXPECT_FALSE(cache.Contains("k"));
  EXPECT_EQ(cache.stats().drops, 1u);
  EXPECT_EQ(cache.stats().poisoned, 0u);

  // Recapture, then strike 2: the key is poisoned and the suspect bytes are
  // dropped — finds deny fast until the TTL, so the fleet cold-boots.
  cache.Put(MakeSnapshot("k"));
  cache.ReportRestoreFailure("k");
  EXPECT_EQ(cache.stats().poisoned, 1u);
  EXPECT_FALSE(cache.Contains("k"));
  EXPECT_EQ(cache.Find("k"), nullptr);
  EXPECT_GE(cache.stats().denials, 1u);

  // A cold boot during the TTL recaptures; finds still deny fast.
  cache.Put(MakeSnapshot("k"));
  EXPECT_EQ(cache.Find("k"), nullptr);
  EXPECT_GE(cache.stats().denials, 2u);

  // TTL passes: the next find is the half-open probe and serves the
  // recaptured entry.
  now = Millis(150);
  SnapshotCache::SnapshotPtr probe = cache.Find("k");
  EXPECT_NE(probe, nullptr);
  // A failure during the half-open window re-poisons immediately.
  cache.ReportRestoreFailure("k");
  EXPECT_EQ(cache.stats().poisoned, 2u);
  EXPECT_EQ(cache.Find("k"), nullptr);

  // Recovery: TTL passes again, the recapture lands, and the probe restore
  // succeeds this time.
  now = Millis(300);
  cache.Put(MakeSnapshot("k"));
  EXPECT_NE(cache.Find("k"), nullptr);
}

TEST(SnapshotCacheTest, DisabledQuarantineNeverDropsOrDenies) {
  SnapshotCache cache;
  cache.set_quarantine({.enabled = false});
  cache.Put(MakeSnapshot("k"));
  for (int i = 0; i < 5; ++i) {
    cache.ReportRestoreFailure("k");
  }
  EXPECT_TRUE(cache.Contains("k"));
  EXPECT_NE(cache.Find("k"), nullptr);
  EXPECT_EQ(cache.stats().drops, 0u);
  EXPECT_EQ(cache.stats().poisoned, 0u);
}

TEST(SnapshotCacheTest, PublishesMetricsAndJournalEvents) {
  telemetry::MetricRegistry metrics;
  telemetry::Journal journal;
  SnapshotCache cache;
  cache.set_metrics(&metrics);
  cache.set_journal(&journal);

  auto snapshot = cache.Put(MakeSnapshot("k"));
  (void)cache.Find("k");
  (void)cache.Find("missing");
  cache.RecordRestore(*snapshot, true);
  cache.RecordRestore(*snapshot, false);

  EXPECT_EQ(metrics.GetCounter("snapshot.capture").value(), 1u);
  EXPECT_EQ(metrics.GetCounter("snapshot.hit").value(), 1u);
  EXPECT_EQ(metrics.GetCounter("snapshot.miss").value(), 1u);
  EXPECT_EQ(metrics.GetCounter("snapshot.restore").value(), 1u);
  EXPECT_EQ(metrics.GetCounter("snapshot.restore_failure").value(), 1u);
  cache.PublishMetrics(metrics);
  EXPECT_EQ(metrics.GetGauge("snapshotcache.entries").value(), 1);

  // Cache decisions are schedule-scoped: present in the full export only.
  const auto events = journal.Snapshot(true);
  bool saw_capture = false;
  bool saw_restore = false;
  for (const auto& event : events) {
    saw_capture = saw_capture || event.type == "snapshot-capture";
    saw_restore = saw_restore || event.type == "snapshot-restore";
  }
  EXPECT_TRUE(saw_capture);
  EXPECT_TRUE(saw_restore);
  EXPECT_EQ(journal.ExportJsonl(false), "");
}

TEST(QuarantineStormTest, ConcurrentSnapshotPutsFindsAndFailuresStayConsistent) {
  SnapshotCache cache({.max_bytes = 64 * kMiB});
  cache.set_quarantine({.enabled = true, .poison_ttl = Millis(1)});
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 200; ++i) {
        const std::string key = std::string("k").append(std::to_string(i % 5));
        cache.Put(MakeSnapshot(key, 4 * kMiB));
        SnapshotCache::SnapshotPtr found = cache.Find(key);
        if (found != nullptr) {
          cache.RecordRestore(*found, (i + t) % 7 != 0);
        }
        if ((i + t) % 13 == 0) {
          cache.ReportRestoreFailure(key);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  auto stats = cache.stats();
  EXPECT_EQ(stats.captures + stats.duplicate_captures, 8u * 200u);
  EXPECT_LE(stats.bytes_stored, 64 * kMiB);
  EXPECT_LE(stats.entries, 5u);
}

}  // namespace
}  // namespace lupine::core
