// Parallel fleet boot: every test is Boot()-only — no guest fiber ever
// runs. FleetBootStormTest covers cold and warm storms and the virtual
// timeline; FleetBootTest covers admission and artifact failures.
#include "src/core/fleet_boot.h"

#include <gtest/gtest.h>

#include "src/kconfig/presets.h"

namespace lupine::core {
namespace {

// One warm cache for the whole file: artifacts are immutable and the boot
// figures are deterministic, so sharing only saves build time. The warmup
// boot matters — ctest runs each test in its own process, and cold
// provisioning is charged in virtual time (ProvisionCostModel), so a cold
// first run would skew the virtual makespan/total comparisons below.
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

TEST(FleetBootStormTest, EightWorkerStormBuildsEachRootfsOnce) {
  KernelCache cache;  // Fresh: this test is about cold-cache build counts.
  FleetBootOptions options;
  options.workers = 8;
  options.rounds = 2;
  auto result = RunFleetBoot(cache, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const size_t fleet = kconfig::Top20AppNames().size();
  EXPECT_EQ(result->boots, 2 * fleet);
  EXPECT_EQ(result->failures, 0u);

  // Eight racing workers, two rounds: still exactly one rootfs build per
  // distinct (container image, RootfsOptions) pair and one kernel build per
  // distinct fingerprint.
  auto rootfs = cache.rootfs_stats();
  EXPECT_EQ(rootfs.builds, fleet);
  EXPECT_EQ(rootfs.hits + rootfs.builds, rootfs.requests);
  EXPECT_EQ(cache.stats().builds, 16u);  // 5 runtimes share lupine-base.
}

TEST(FleetBootStormTest, WarmStormsBuildNoRootfs) {
  FleetBootOptions options;
  options.workers = 8;
  (void)RunFleetBoot(Cache(), options);  // Warm every artifact.
  const size_t rootfs_builds = Cache().rootfs_stats().builds;
  const size_t kernel_builds = Cache().stats().builds;

  options.rounds = 3;
  auto result = RunFleetBoot(Cache(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->failures, 0u);
  EXPECT_EQ(Cache().rootfs_stats().builds, rootfs_builds);
  EXPECT_EQ(Cache().stats().builds, kernel_builds);
}

TEST(FleetBootStormTest, VirtualMakespanScalesWithWorkers) {
  FleetBootOptions options;
  options.rounds = 2;
  options.workers = 1;
  auto serial = RunFleetBoot(Cache(), options);
  ASSERT_TRUE(serial.ok());
  options.workers = 4;
  auto pooled = RunFleetBoot(Cache(), options);
  ASSERT_TRUE(pooled.ok());

  // Virtual time is deterministic, so this is an exact property of the
  // sharding, not a host-speed flake: four workers' makespan is the largest
  // shard, well under half the serial sum.
  EXPECT_EQ(serial->virtual_makespan, serial->virtual_boot_total);
  EXPECT_EQ(pooled->virtual_boot_total, serial->virtual_boot_total);
  EXPECT_GE(serial->virtual_makespan, 2 * pooled->virtual_makespan);
  EXPECT_GE(pooled->boots_per_virtual_sec, 2.0 * serial->boots_per_virtual_sec);
}

TEST(FleetBootStormTest, VirtualTimelineIsDeterministic) {
  FleetBootOptions options;
  options.workers = 3;
  auto first = RunFleetBoot(Cache(), options);
  auto second = RunFleetBoot(Cache(), options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->virtual_makespan, second->virtual_makespan);
  EXPECT_EQ(first->worker_virtual, second->worker_virtual);
}

TEST(FleetBootTest, AdmissionControllerKeepsFleetUnderBudget) {
  vmm::FleetAdmissionController admission({1 * kGiB});
  telemetry::MetricRegistry registry;
  admission.set_metrics(&registry);

  FleetBootOptions options;
  options.workers = 4;
  options.memory = 512 * kMiB;
  options.min_memory = 64 * kMiB;  // Degradation floor when the host is full.
  options.admission = &admission;
  options.metrics = &registry;
  auto result = RunFleetBoot(Cache(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const size_t fleet = kconfig::Top20AppNames().size();
  // Every launch goes through the controller; with a 64 MiB floor available
  // nothing is ever rejected, so every app still boots.
  EXPECT_EQ(result->boots, fleet);
  EXPECT_EQ(result->failures, 0u);
  EXPECT_EQ(result->rejected, 0u);
  EXPECT_EQ(result->admitted + result->degraded, fleet);

  // The budget is a hard ceiling: the controller's high-water mark — which
  // the rollup adopts as fleet_resident_peak — never exceeds it.
  EXPECT_LE(admission.stats().peak_committed, 1 * kGiB);
  EXPECT_EQ(result->fleet_resident_peak, admission.stats().peak_committed);
  EXPECT_EQ(admission.stats().committed, 0u);  // Clean drain on VM exit.
  EXPECT_EQ(admission.stats().requests, fleet);

  // Rollups are populated per worker and fleet-wide.
  EXPECT_EQ(result->worker_resident_peak.size(), 4u);
  EXPECT_GT(result->fleet_resident_sum, 0u);
  EXPECT_EQ(registry.GetCounter("admission.requests").value(), fleet);
}

TEST(FleetBootTest, AdmissionRejectionsCountAsFailures) {
  // A budget no request can ever fit in: every launch is rejected up front.
  vmm::FleetAdmissionController admission({16 * kMiB});
  FleetBootOptions options;
  options.apps = {"hello-world", "redis"};
  options.memory = 512 * kMiB;  // No min_memory: nothing to degrade to.
  options.admission = &admission;
  auto result = RunFleetBoot(Cache(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->boots, 0u);
  EXPECT_EQ(result->failures, 2u);
  EXPECT_EQ(result->rejected, 2u);
  EXPECT_EQ(admission.stats().rejected, 2u);
}

TEST(FleetBootTest, ArtifactFailurePropagatesAsStatus) {
  KernelCache cache;
  FleetBootOptions options;
  options.apps = {"no-such-app"};
  auto result = RunFleetBoot(cache, options);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace lupine::core
