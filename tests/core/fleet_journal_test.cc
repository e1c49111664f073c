// Flight-recorder integration over RunFleetBoot. FleetJournalStorm is
// Boot()-only (no guest fiber runs). The determinism storm is the
// acceptance test for the journal contract: the canonical export must be
// byte-identical across 1/2/4/8 workers for a fixed (plan, seed).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/fleet_boot.h"
#include "src/kconfig/presets.h"
#include "src/telemetry/journal.h"
#include "src/telemetry/metrics.h"
#include "src/util/fault.h"
#include "src/util/retry.h"

namespace lupine::core {
namespace {

KernelCache& Cache() {
  static KernelCache* cache = [] {
    auto* owned = new KernelCache();
    owned->set_quarantine({.enabled = false});
    return owned;
  }();
  return *cache;
}

RetryPolicy FastRetry(int max_attempts) {
  RetryPolicy retry;
  retry.max_attempts = max_attempts;
  retry.backoff.initial = Millis(10);
  retry.backoff.jitter = 0.0;
  return retry;
}

TEST(FleetJournalStorm, CanonicalExportIsByteIdenticalAcrossWorkerCounts) {
  // Probabilistic faults are the acid test: every retry/deadline/failure
  // event must land at a task-relative virtual offset that only depends on
  // (plan, seed, task index) — never on which worker replayed the task.
  FaultPlan plan;
  plan.seed = 99;
  plan.Add({.site = FaultSite::kBootInitcall, .probability = 0.3});
  plan.Add({.site = FaultSite::kBootDecompress, .probability = 0.1});

  std::string reference;
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    telemetry::Journal journal;
    FleetBootOptions options;
    options.workers = workers;
    options.rounds = 2;
    options.retry = FastRetry(4);
    options.fault_plan = &plan;
    options.journal = &journal;
    auto result = RunFleetBoot(Cache(), options);
    ASSERT_TRUE(result.ok()) << "workers=" << workers;
    ASSERT_EQ(journal.ExportJsonl(true).find(R"("type":"dropped")"), std::string::npos)
        << "ring too small for byte-identity";

    const std::string jsonl = journal.ExportJsonl();
    EXPECT_NE(jsonl.find("\"type\":\"task-start\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"type\":\"retry\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"type\":\"task-done\""), std::string::npos);
    if (reference.empty()) {
      reference = jsonl;
      continue;
    }
    EXPECT_EQ(jsonl, reference) << "workers=" << workers;
  }
}

TEST(FleetJournalStorm, FullExportAddsScheduleScopedEvents) {
  // A private cache with the journal as sink: cache hit/miss events are
  // schedule-scoped, so they appear only in the full export.
  KernelCache cache;
  cache.set_quarantine({.enabled = false});
  telemetry::Journal journal;
  cache.set_journal(&journal);
  FleetBootOptions options;
  options.workers = 4;
  options.rounds = 2;
  options.journal = &journal;
  auto result = RunFleetBoot(cache, options);
  ASSERT_TRUE(result.ok());
  // The full record is a superset of the canonical one; the cache emits
  // schedule-scoped hit/miss events on every run, so it is a strict superset.
  const size_t canonical = journal.Snapshot(/*include_schedule_scoped=*/false).size();
  const size_t full = journal.Snapshot(/*include_schedule_scoped=*/true).size();
  EXPECT_GT(full, canonical);
  EXPECT_NE(journal.ExportJsonl(true).find("\"source\":\"kernel-cache\""),
            std::string::npos);
}

TEST(FleetJournalStorm, CounterTracksFoldTaskRecords) {
  FleetBootOptions options;
  options.apps = {"hello-world", "redis", "nginx"};
  options.workers = 2;
  auto result = RunFleetBoot(Cache(), options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->counter_tracks.empty());
  bool saw_inflight = false;
  for (const telemetry::CounterSeries& series : result->counter_tracks) {
    ASSERT_FALSE(series.points.empty()) << series.name;
    // Points are time-ordered with one sample per distinct timestamp.
    for (size_t i = 1; i < series.points.size(); ++i) {
      EXPECT_GT(series.points[i].first, series.points[i - 1].first) << series.name;
    }
    if (series.name == "fleet.tasks_inflight") {
      saw_inflight = true;
      // Every task starts and ends: the track returns to zero.
      EXPECT_DOUBLE_EQ(series.points.back().second, 0.0);
    }
  }
  EXPECT_TRUE(saw_inflight);
}

TEST(FleetJournalStorm, RootfsCorruptionIsRetriedAndRecovers) {
  // The regression the chaos bench exposed: injected rootfs corruption used
  // to surface as a permanent parse error (kInval) and bypass the retry
  // policy entirely — retries: 0, recovered: 0 at every probability. It is
  // transient bad-block I/O and must requalify for retry (kIo).
  FaultPlan plan = FaultPlan{}.FireAlways(FaultSite::kRootfsCorrupt, /*max_fires=*/1);
  telemetry::Journal journal;
  FleetBootOptions options;
  options.apps = {"hello-world", "redis"};
  options.retry = FastRetry(3);
  options.fault_plan = &plan;
  options.journal = &journal;
  auto result = RunFleetBoot(Cache(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->boots, 2u);
  EXPECT_EQ(result->failures, 0u);
  EXPECT_EQ(result->retries, 2u);
  EXPECT_EQ(result->recovered, 2u);
  EXPECT_EQ(result->unretried_failures, 0u);
  EXPECT_NE(journal.ExportJsonl().find("\"type\":\"retry\""), std::string::npos);
}

TEST(FleetJournalStorm, PermanentErrorsSurfaceAsUnretried) {
  // 1 MiB cannot hold any guest: the boot fails with kNoMem, which is
  // deterministic — retrying would OOM identically. The failure must be
  // counted (and journaled) as unretried instead of vanishing into the
  // aggregate failure count.
  telemetry::MetricRegistry registry;
  telemetry::Journal journal;
  FleetBootOptions options;
  options.apps = {"hello-world"};
  options.memory = 1 * kMiB;
  options.retry = FastRetry(3);
  options.metrics = &registry;
  options.journal = &journal;
  auto result = RunFleetBoot(Cache(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->boots, 0u);
  EXPECT_EQ(result->failures, 1u);
  EXPECT_EQ(result->retries, 0u);
  EXPECT_EQ(result->unretried_failures, 1u);
  EXPECT_EQ(registry.GetGauge("fleet.unretried_failures").value(), 1);
  EXPECT_NE(journal.ExportJsonl().find("\"type\":\"unretried\""), std::string::npos);
}

}  // namespace
}  // namespace lupine::core
