// Fleet scheduling: the provisioning stage DAG over RunFleetBoot, with
// stealing off (kStaticShards) or on (kPipelined). The FleetSchedStorm suite
// is Boot()-only — no fiber ever runs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/fleet_boot.h"
#include "src/kconfig/presets.h"
#include "src/telemetry/export.h"
#include "src/telemetry/journal.h"
#include "src/util/fault.h"
#include "src/util/retry.h"

namespace lupine::core {
namespace {

// One cache for the schedule-comparison tests, quarantine off (these tests
// pin exact fault logs and makespans; quarantine dropping artifacts
// mid-test would fold rebuild noise into them) and warmed up front — ctest
// runs each test in its own process, so without the warmup boot the first
// run of every test would pay cold provisioning and skew the comparisons.
KernelCache& Cache() {
  static KernelCache* cache = [] {
    auto* owned = new KernelCache();
    owned->set_quarantine({.enabled = false});
    FleetBootOptions warmup;
    auto warm = RunFleetBoot(*owned, warmup);
    if (!warm.ok()) {
      ADD_FAILURE() << "cache warmup: " << warm.status().ToString();
    }
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

size_t CountOccurrences(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(FleetSchedStorm, FaultLogIdenticalAcrossWorkersAndSchedules) {
  // The replay-determinism contract, now across scheduling policies too:
  // each task's injector and retrier are functions of (plan, task index,
  // app), so the fault schedule — and the canonical journal, stamped with
  // task-relative offsets — cannot depend on which deque a task ran from or
  // whether it was stolen.
  FaultPlan plan;
  plan.seed = 7;
  plan.Add({.site = FaultSite::kBootInitcall, .probability = 0.3});
  plan.Add({.site = FaultSite::kBootDecompress, .probability = 0.1});

  std::vector<std::string> reference_log;
  std::string reference_journal;
  size_t reference_retries = 0;
  size_t reference_failures = 0;
  bool first = true;
  for (FleetSchedule schedule : {FleetSchedule::kStaticShards, FleetSchedule::kPipelined}) {
    for (size_t workers : {1u, 2u, 4u, 8u}) {
      FleetBootOptions options;
      options.workers = workers;
      options.rounds = 2;
      options.schedule = schedule;
      options.retry = FastRetry(4);
      options.fault_plan = &plan;
      telemetry::Journal journal;
      options.journal = &journal;
      auto result = RunFleetBoot(Cache(), options);
      ASSERT_TRUE(result.ok()) << "workers=" << workers;
      ASSERT_EQ(journal.ExportJsonl(true).find(R"("type":"dropped")"), std::string::npos);
      if (first) {
        reference_log = result->fault_log;
        reference_journal = journal.ExportJsonl();
        reference_retries = result->retries;
        reference_failures = result->failures;
        first = false;
        EXPECT_FALSE(reference_log.empty());  // p=0.3 over 40 tasks fires.
        continue;
      }
      EXPECT_EQ(result->fault_log, reference_log) << "workers=" << workers;
      EXPECT_EQ(journal.ExportJsonl(), reference_journal) << "workers=" << workers;
      EXPECT_EQ(result->retries, reference_retries) << "workers=" << workers;
      EXPECT_EQ(result->failures, reference_failures) << "workers=" << workers;
    }
  }
}

TEST(FleetSchedStorm, StealingDrainsAroundASkewedApp) {
  // One rule wedges every postgres boot for an extra 630 virtual ms, ~10x a
  // normal boot. Static sharding strands those boots on their home shard
  // while siblings idle; stealing must beat it at 4 and 8 workers.
  FaultPlan plan;
  plan.Add({.site = FaultSite::kBootStall,
            .trigger_on = 1,
            .period = 1,
            .app = "postgres",
            .stall = Millis(630)});
  for (size_t workers : {4u, 8u}) {
    FleetBootOptions options;
    options.workers = workers;
    options.rounds = 2;
    options.fault_plan = &plan;

    options.schedule = FleetSchedule::kStaticShards;
    auto static_run = RunFleetBoot(Cache(), options);
    ASSERT_TRUE(static_run.ok());

    options.schedule = FleetSchedule::kPipelined;
    auto stealing_run = RunFleetBoot(Cache(), options);
    ASSERT_TRUE(stealing_run.ok());

    EXPECT_LT(stealing_run->virtual_makespan, static_run->virtual_makespan)
        << "workers=" << workers;
    EXPECT_GT(stealing_run->steals, 0u) << "workers=" << workers;
    // Same fleet, same faults: only the placement moved, never the work.
    EXPECT_EQ(stealing_run->virtual_boot_total, static_run->virtual_boot_total);
    EXPECT_EQ(stealing_run->boots, static_run->boots);
  }
}

TEST(FleetSchedStorm, ColdCacheStaticAndPipelinedRunTheSameStages) {
  // Fresh caches: both schedules submit the same stage DAG (one kernel task
  // per distinct fingerprint, one rootfs task per distinct rootfs key, each
  // boot behind its stages), so they provision and charge exactly the same
  // work. Stealing off moves nothing between deques; stealing on can only
  // shorten the makespan.
  FleetBootOptions options;
  options.workers = 4;

  KernelCache static_cache;
  options.schedule = FleetSchedule::kStaticShards;
  auto static_run = RunFleetBoot(static_cache, options);
  ASSERT_TRUE(static_run.ok()) << static_run.status().ToString();

  KernelCache pipelined_cache;
  options.schedule = FleetSchedule::kPipelined;
  auto pipelined = RunFleetBoot(pipelined_cache, options);
  ASSERT_TRUE(pipelined.ok()) << pipelined.status().ToString();

  EXPECT_EQ(pipelined_cache.stats().builds, static_cache.stats().builds);
  EXPECT_EQ(pipelined_cache.rootfs_stats().builds, static_cache.rootfs_stats().builds);
  EXPECT_EQ(pipelined->virtual_boot_total, static_run->virtual_boot_total);
  EXPECT_EQ(static_run->steals, 0u);
  EXPECT_LE(pipelined->virtual_makespan, static_run->virtual_makespan);
  EXPECT_EQ(static_run->boots, kconfig::Top20AppNames().size());
  EXPECT_EQ(pipelined->boots, kconfig::Top20AppNames().size());
}

TEST(FleetSchedStorm, WorkerTimelinesRenderAsChromeTrace) {
  // Scheduler telemetry: one timeline per worker, one span per boot task,
  // and the Chrome trace export carries one complete event per span with a
  // tid per worker row.
  FleetBootOptions options;
  options.workers = 4;
  auto result = RunFleetBoot(Cache(), options);
  ASSERT_TRUE(result.ok());

  const size_t fleet = kconfig::Top20AppNames().size();
  ASSERT_EQ(result->worker_timelines.size(), 4u);
  ASSERT_EQ(result->worker_queue_peak.size(), 4u);
  size_t spans = 0;
  for (const auto& timeline : result->worker_timelines) {
    spans += timeline.spans().size();
  }
  EXPECT_EQ(spans, fleet);

  const std::string trace = telemetry::ToChromeTrace(result->worker_timelines);
  EXPECT_EQ(CountOccurrences(trace, "\"ph\": \"X\""), fleet);
  EXPECT_NE(trace.find("\"tid\": 0"), std::string::npos);
  EXPECT_EQ(trace.front(), '[');
  EXPECT_EQ(trace.back(), ']');
}

}  // namespace
}  // namespace lupine::core
