// Fleet boot with a snapshot store: planned capture/restore, the launch-cost
// split, and the storm determinism contract. FleetSnapshotStormTest is
// Boot/Restore-only (no fiber runs).
#include <gtest/gtest.h>

#include <string>

#include "src/core/fleet_boot.h"
#include "src/core/snapshot_cache.h"
#include "src/kconfig/presets.h"
#include "src/telemetry/journal.h"
#include "src/util/fault.h"

namespace lupine::core {
namespace {

KernelCache& Cache() {
  static KernelCache* cache = [] {
    auto* owned = new KernelCache();
    FleetBootOptions warmup;
    auto warm = RunFleetBoot(*owned, warmup);
    if (!warm.ok()) {
      ADD_FAILURE() << "cache warmup: " << warm.status().ToString();
    }
    return owned;
  }();
  return *cache;
}

TEST(FleetSnapshotStormTest, FirstTaskPerKeyCapturesAndTheRestRestore) {
  SnapshotCache snapshots;
  FleetBootOptions options;
  options.workers = 4;
  options.rounds = 3;
  options.snapshots = &snapshots;
  auto result = RunFleetBoot(Cache(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // One capture per distinct snapshot key; every other launch restores.
  // Top-20 runtimes share kernels (and some share rootfs blobs), so the
  // distinct-key count is the store's entry count, not the app count.
  const size_t distinct_keys = snapshots.stats().entries;
  EXPECT_GT(distinct_keys, 0u);
  EXPECT_EQ(result->snapshot_captures, distinct_keys);
  EXPECT_EQ(result->snapshot_restores, result->boots - result->snapshot_captures);
  EXPECT_EQ(result->snapshot_restore_failures, 0u);
  EXPECT_EQ(result->failures, 0u);

  // The launch-cost split is the headline: mean restore well under half the
  // mean cold boot.
  ASSERT_GT(result->snapshot_restores, 0u);
  ASSERT_GT(result->snapshot_captures, 0u);
  const double mean_restore = static_cast<double>(result->virtual_restore_total) /
                              static_cast<double>(result->snapshot_restores);
  const double mean_cold = static_cast<double>(result->virtual_coldboot_total) /
                           static_cast<double>(result->snapshot_captures);
  EXPECT_LT(mean_restore, mean_cold * 0.5);
}

TEST(FleetSnapshotStormTest, PrebakedStoreRestoresEverywhere) {
  SnapshotCache snapshots;
  FleetBootOptions seed_run;
  seed_run.snapshots = &snapshots;
  auto seeded = RunFleetBoot(Cache(), seed_run);
  ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
  ASSERT_GT(snapshots.stats().entries, 0u);

  // Second fleet against the now-populated store: zero captures, all restores.
  FleetBootOptions options;
  options.workers = 4;
  options.snapshots = &snapshots;
  auto result = RunFleetBoot(Cache(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->snapshot_captures, 0u);
  EXPECT_EQ(result->snapshot_restores, result->boots);
}

TEST(FleetSnapshotStormTest, SnapshotFleetBeatsColdFleetOnVirtualTime) {
  FleetBootOptions cold;
  cold.rounds = 2;
  auto cold_result = RunFleetBoot(Cache(), cold);
  ASSERT_TRUE(cold_result.ok()) << cold_result.status().ToString();

  SnapshotCache snapshots;
  FleetBootOptions warm = cold;
  warm.snapshots = &snapshots;
  auto warm_result = RunFleetBoot(Cache(), warm);
  ASSERT_TRUE(warm_result.ok()) << warm_result.status().ToString();

  // Captures cost extra virtual time, but round 2's restores more than pay
  // for them: the snapshot fleet finishes earlier.
  EXPECT_LT(warm_result->virtual_boot_total, cold_result->virtual_boot_total);
}

TEST(FleetSnapshotStormTest, RestoreFaultFallsBackToColdBootAndQuarantines) {
  SnapshotCache snapshots;
  FaultPlan plan;
  // Every redis restore attempt fails: drop-once, recapture, then poison.
  plan.Add({.site = FaultSite::kSnapshotRestore,
            .trigger_on = 1,
            .period = 1,
            .app = "redis"});
  FleetBootOptions options;
  options.apps = {"redis"};
  options.rounds = 6;
  options.workers = 2;
  options.snapshots = &snapshots;
  options.fault_plan = &plan;
  options.retry.max_attempts = 2;  // Failed restore retries as a cold boot.
  auto result = RunFleetBoot(Cache(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_GT(result->snapshot_restore_failures, 0u);
  EXPECT_GT(result->recovered, 0u);  // Retried tasks completed cold.
  EXPECT_EQ(result->failures, 0u);
  auto stats = snapshots.stats();
  EXPECT_GT(stats.drops + stats.poisoned, 0u);
}

TEST(FleetSnapshotStormTest, JournalAndFigureBytesAreWorkerCountInvariant) {
  struct Run {
    std::string journal;
    size_t captures = 0;
    size_t restores = 0;
    Nanos restore_total = 0;
    Nanos coldboot_total = 0;
    Nanos makespan = 0;
  };
  auto run = [](size_t workers) {
    telemetry::Journal journal;
    SnapshotCache snapshots;
    FleetBootOptions options;
    options.workers = workers;
    options.rounds = 2;
    options.snapshots = &snapshots;
    options.journal = &journal;
    auto result = RunFleetBoot(Cache(), options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    Run r;
    r.journal = journal.ExportJsonl(false);
    if (result.ok()) {
      r.captures = result->snapshot_captures;
      r.restores = result->snapshot_restores;
      r.restore_total = result->virtual_restore_total;
      r.coldboot_total = result->virtual_coldboot_total;
      r.makespan = result->virtual_makespan;
    }
    return r;
  };
  const Run base = run(1);
  EXPECT_FALSE(base.journal.empty());
  for (size_t workers : {2u, 4u, 8u}) {
    const Run other = run(workers);
    EXPECT_EQ(base.journal, other.journal) << workers << " workers";
    EXPECT_EQ(base.captures, other.captures) << workers << " workers";
    EXPECT_EQ(base.restores, other.restores) << workers << " workers";
    EXPECT_EQ(base.restore_total, other.restore_total) << workers << " workers";
    EXPECT_EQ(base.coldboot_total, other.coldboot_total) << workers << " workers";
  }
}

}  // namespace
}  // namespace lupine::core
