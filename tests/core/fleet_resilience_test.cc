// Fleet resilience: retries, the boot deadline and quarantine composed over
// RunFleetBoot. Boot()-only — no guest fiber ever runs.
#include <gtest/gtest.h>

#include <vector>

#include "src/core/fleet_boot.h"
#include "src/kconfig/presets.h"
#include "src/telemetry/metrics.h"
#include "src/util/fault.h"
#include "src/util/retry.h"

namespace lupine::core {
namespace {

// One warm cache for the whole file, quarantine off: these tests pin exact
// retry/deadline counts, and quarantine dropping artifacts mid-test would
// fold rebuild noise into them. Quarantine gets its own fresh-cache tests.
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

TEST(FleetResilienceStormTest, RetriesRecoverCappedInitcallFaults) {
  // Every task's first two boots hit an initcall fault; the third is clean.
  // With 3 attempts the fleet must complete with zero lost boots.
  FaultPlan plan = FaultPlan{}.FireAlways(FaultSite::kBootInitcall, /*max_fires=*/2);
  FleetBootOptions options;
  options.workers = 4;
  options.retry = FastRetry(3);
  options.fault_plan = &plan;
  auto result = RunFleetBoot(Cache(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const size_t fleet = kconfig::Top20AppNames().size();
  EXPECT_EQ(result->boots, fleet);
  EXPECT_EQ(result->failures, 0u);
  EXPECT_EQ(result->retries, 2 * fleet);
  EXPECT_EQ(result->launch_failures, 2 * fleet);
  EXPECT_EQ(result->recovered, fleet);
  EXPECT_GT(result->virtual_recovery_total, 0);
  // Every task fired twice and logged it.
  EXPECT_EQ(result->fault_log.size(), fleet);
}

TEST(FleetResilienceStormTest, TooFewAttemptsLoseTheFleet) {
  FaultPlan plan = FaultPlan{}.FireAlways(FaultSite::kBootInitcall, /*max_fires=*/2);
  FleetBootOptions options;
  options.apps = {"hello-world", "redis"};
  options.retry = FastRetry(2);  // One short: both fires burn both attempts.
  options.fault_plan = &plan;
  auto result = RunFleetBoot(Cache(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->boots, 0u);
  EXPECT_EQ(result->failures, 2u);
  EXPECT_EQ(result->retries, 2u);
  EXPECT_EQ(result->recovered, 0u);
}

TEST(FleetResilienceStormTest, FaultLogIdenticalAcrossWorkerCounts) {
  // The replay-determinism contract: each task's injector and retrier are
  // seeded by the task index, so (plan, seed) fix every fault and every
  // retry whatever the sharding. Probabilistic rules are the acid test.
  FaultPlan plan;
  plan.seed = 99;
  plan.Add({.site = FaultSite::kBootInitcall, .probability = 0.3});
  plan.Add({.site = FaultSite::kBootDecompress, .probability = 0.1});

  std::vector<std::string> reference_log;
  size_t reference_retries = 0;
  size_t reference_failures = 0;
  bool first = true;
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    FleetBootOptions options;
    options.workers = workers;
    options.rounds = 2;
    options.retry = FastRetry(4);
    options.fault_plan = &plan;
    auto result = RunFleetBoot(Cache(), options);
    ASSERT_TRUE(result.ok()) << "workers=" << workers;
    if (first) {
      reference_log = result->fault_log;
      reference_retries = result->retries;
      reference_failures = result->failures;
      first = false;
      EXPECT_FALSE(reference_log.empty());  // p=0.3 over 40 tasks fires.
      continue;
    }
    EXPECT_EQ(result->fault_log, reference_log) << "workers=" << workers;
    EXPECT_EQ(result->retries, reference_retries) << "workers=" << workers;
    EXPECT_EQ(result->failures, reference_failures) << "workers=" << workers;
  }
}

TEST(FleetResilienceStormTest, BootDeadlineKillsStalledBootAndRetries) {
  // One kBootStall fire wedges the first boot for 60 virtual seconds. The
  // deadline caps the damage at 1s, the retry boots clean.
  FaultPlan plan = FaultPlan{}.FireAlways(FaultSite::kBootStall, /*max_fires=*/1);
  FleetBootOptions options;
  options.apps = {"hello-world"};
  options.retry = FastRetry(2);
  options.boot_deadline = Seconds(1);
  options.fault_plan = &plan;
  auto result = RunFleetBoot(Cache(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->boots, 1u);
  EXPECT_EQ(result->failures, 0u);
  EXPECT_EQ(result->deadline_exceeded, 1u);
  EXPECT_EQ(result->retries, 1u);
  EXPECT_EQ(result->recovered, 1u);
  // The killed attempt is charged the deadline, never the 60s stall.
  EXPECT_LT(result->virtual_makespan, Seconds(5));
  EXPECT_GT(result->virtual_makespan, Seconds(1));
}

TEST(FleetResilienceStormTest, WithoutDeadlineTheStallIsPaidInFull) {
  FaultPlan plan = FaultPlan{}.FireAlways(FaultSite::kBootStall, /*max_fires=*/1);
  FleetBootOptions options;
  options.apps = {"hello-world"};
  options.fault_plan = &plan;  // Default retry (1 attempt), no deadline.
  auto result = RunFleetBoot(Cache(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->boots, 1u);  // The stalled boot still completes...
  EXPECT_EQ(result->deadline_exceeded, 0u);
  EXPECT_GT(result->virtual_makespan, Seconds(60));  // ...60 virtual s later.
}

TEST(FleetResilienceStormTest, QuarantineCapsPoisonedRootfsBlastRadius) {
  // Every boot hits rootfs corruption. Uncontained, 3 rounds x 2 apps would
  // crash-loop 6 launches; rebuild-once-then-poison caps it at 2 per app.
  KernelCache cache;  // Fresh cache, quarantine on (the default policy).
  cache.set_quarantine_clock([] { return Nanos{0}; });  // TTL never expires.
  FaultPlan plan = FaultPlan{}.FireAlways(FaultSite::kRootfsCorrupt);
  FleetBootOptions options;
  options.apps = {"hello-world", "redis"};
  options.workers = 1;  // Serial: quarantine counts are exact.
  options.rounds = 3;
  options.fault_plan = &plan;
  auto result = RunFleetBoot(cache, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->boots, 0u);
  EXPECT_EQ(result->failures, 6u);          // Every task still fails...
  EXPECT_EQ(result->launch_failures, 4u);   // ...but only 2 per app launched.
  EXPECT_EQ(result->quarantined, 2u);       // Round 3 was denied up front.
  const auto stats = cache.stats();
  EXPECT_EQ(stats.quarantine_rebuilds, 2u);
  EXPECT_EQ(stats.quarantine_poisoned, 2u);
  EXPECT_EQ(stats.quarantine_denials, 2u);
}

TEST(FleetResilienceStormTest, ResilienceCountersLandInTelemetry) {
  FaultPlan plan = FaultPlan{}.FireAlways(FaultSite::kBootInitcall, /*max_fires=*/1);
  telemetry::MetricRegistry registry;
  FleetBootOptions options;
  options.apps = {"hello-world"};
  options.retry = FastRetry(2);
  options.fault_plan = &plan;
  options.metrics = &registry;
  auto result = RunFleetBoot(Cache(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(registry.GetGauge("fleet.retries").value(), 1);
  EXPECT_EQ(registry.GetGauge("fleet.launch_failures").value(), 1);
  EXPECT_EQ(registry.GetGauge("fleet.recovered").value(), 1);
  EXPECT_EQ(registry.GetGauge("fleet.deadline_exceeded").value(), 0);
  EXPECT_EQ(registry.GetGauge("fleet.quarantined").value(), 0);
}

}  // namespace
}  // namespace lupine::core
