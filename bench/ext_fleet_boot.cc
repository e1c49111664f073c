// Extension: parallel fleet boot throughput. MultiK-style deployments boot
// whole fleets of specialized unikernels; this benchmark measures how boot
// throughput scales when the fleet is sharded across monitor workers, with
// every artifact served warm from the content-addressed caches.
//
// Methodology: core::RunFleetBoot runs the fleet as one task DAG on the
// work-stealing scheduler (a VM's fibers are thread-local, so each boot
// runs start to finish on one worker) and reports the *virtual* makespan of
// the scheduler's deterministic replay over the simulated task costs
// (monitor start -> init exec, plus any cold provisioning stages). That
// figure is a property of the simulation, so the reported speedups do not
// depend on how many host cores this process is given (CI runners often
// pin it to one). Host wall time is included as an informational column
// only.
//
// Legs:
//   1. Worker sweep — boots rounds x top-20 VMs at 1/2/4/8 workers from one
//      warm KernelCache; reports virtual boots/sec and speedup vs serial,
//      and asserts-by-reporting that the warm storms rebuilt zero rootfs
//      blobs and zero kernels.
//   2. Cross-build batching — a fresh cache with batch_general=true proves
//      each per-app config against lupine-general and serves the shared
//      kernel: one build for the whole fleet.
//   3. Skewed fleet — a fault rule wedges every postgres boot for an extra
//      630 virtual ms (~10x a normal boot), and the leg compares stealing
//      off (static) against stealing on (pipelined) at 1/2/4/8 workers:
//      static strands the skew on one shard, stealing drains the other
//      deques around it.
//   4. Cold cache — every worker count provisions a fresh cache under the
//      default schedule: the stage DAG overlaps kernel builds, rootfs
//      assembly and the boots behind them across workers.
//
// Results go to stdout and BENCH_fleet_boot.json (a CI artifact). Exit code
// is always 0: regression gating belongs to the CI dashboards.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/fleet_boot.h"
#include "src/core/multik.h"
#include "src/kconfig/presets.h"
#include "src/util/fault.h"
#include "src/util/table.h"

using namespace lupine;

namespace {

const char* ScheduleName(core::FleetSchedule schedule) {
  switch (schedule) {
    case core::FleetSchedule::kStaticShards:
      return "static";
    case core::FleetSchedule::kPipelined:
      return "pipelined";
  }
  return "?";
}

}  // namespace

int main() {
  PrintBanner("Extension: parallel fleet boot (virtual-timeline throughput)");

  constexpr size_t kRounds = 5;  // 5 x 20 apps = 100 boots per sweep point.
  const std::vector<size_t> worker_counts = {1, 2, 4, 8};
  const size_t fleet_size = kconfig::Top20AppNames().size();

  // --- 1. Worker sweep over a warm cache -----------------------------------
  core::KernelCache cache;
  {
    core::FleetBootOptions warmup;
    auto warm = core::RunFleetBoot(cache, warmup);
    if (!warm.ok()) {
      std::fprintf(stderr, "warmup: %s\n", warm.status().ToString().c_str());
      return 0;
    }
  }
  const size_t rootfs_builds_warm = cache.rootfs_stats().builds;
  const size_t kernel_builds_warm = cache.stats().builds;

  struct SweepPoint {
    size_t workers = 0;
    core::FleetBootResult result;
  };
  std::vector<SweepPoint> sweep;
  for (size_t workers : worker_counts) {
    core::FleetBootOptions options;
    options.workers = workers;
    options.rounds = kRounds;
    auto result = core::RunFleetBoot(cache, options);
    if (!result.ok()) {
      std::fprintf(stderr, "workers=%zu: %s\n", workers, result.status().ToString().c_str());
      return 0;
    }
    sweep.push_back({workers, *result});
  }
  const size_t redundant_rootfs_builds = cache.rootfs_stats().builds - rootfs_builds_warm;
  const size_t redundant_kernel_builds = cache.stats().builds - kernel_builds_warm;
  const double serial_ms = static_cast<double>(sweep.front().result.virtual_makespan) / 1e6;

  Table table({"workers", "boots", "virtual ms", "boots/sec (virtual)", "speedup", "wall ms"});
  for (const SweepPoint& point : sweep) {
    const double virtual_ms = static_cast<double>(point.result.virtual_makespan) / 1e6;
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx", serial_ms / virtual_ms);
    table.AddRow(static_cast<double>(point.workers), static_cast<double>(point.result.boots),
                 virtual_ms, point.result.boots_per_virtual_sec, speedup,
                 point.result.wall_ms);
  }
  table.Print();
  std::printf("\nfleet: %zu apps x %zu rounds per point; warm cache\n", fleet_size, kRounds);
  std::printf("redundant builds during storms: %zu rootfs, %zu kernels (want 0/0)\n",
              redundant_rootfs_builds, redundant_kernel_builds);

  // --- 2. Cross-build batching against lupine-general ----------------------
  core::BuildOptions batch_options;
  batch_options.batch_general = true;
  core::KernelCache batched(batch_options);
  size_t batch_failures = 0;
  for (const auto& app : kconfig::Top20AppNames()) {
    if (!batched.GetOrBuild(app).ok()) {
      ++batch_failures;
    }
  }
  auto batch_stats = batched.stats();
  std::printf("\nbatching: %zu apps -> %zu kernel builds, %zu served the shared "
              "lupine-general image (%zu failures)\n",
              fleet_size, batch_stats.builds, batch_stats.general_served, batch_failures);

  // --- 3. Skewed fleet: stealing off vs on -------------------------------
  // One rule gives every postgres boot an extra 630 virtual ms of decompress
  // stall — roughly 10x a normal warm boot. Static sharding strands all of
  // postgres's boots on one shard; stealing lets idle workers drain the
  // other deques around the wedge.
  constexpr size_t kSkewRounds = 4;
  FaultPlan skew_plan;
  skew_plan.Add({.site = FaultSite::kBootStall,
                 .trigger_on = 1,
                 .period = 1,
                 .app = "postgres",
                 .stall = Millis(630)});
  const std::vector<core::FleetSchedule> schedules = {core::FleetSchedule::kStaticShards,
                                                      core::FleetSchedule::kPipelined};

  struct SchedPoint {
    size_t workers = 0;
    core::FleetSchedule schedule = core::FleetSchedule::kStaticShards;
    core::FleetBootResult result;
  };
  std::vector<SchedPoint> skew;
  for (size_t workers : worker_counts) {
    for (core::FleetSchedule schedule : schedules) {
      core::FleetBootOptions options;
      options.workers = workers;
      options.rounds = kSkewRounds;
      options.schedule = schedule;
      options.fault_plan = &skew_plan;
      auto result = core::RunFleetBoot(cache, options);
      if (!result.ok()) {
        std::fprintf(stderr, "skew %s workers=%zu: %s\n", ScheduleName(schedule), workers,
                     result.status().ToString().c_str());
        return 0;
      }
      skew.push_back({workers, schedule, *result});
    }
  }
  std::printf("\nskewed fleet (postgres boots +630ms, %zu rounds, warm cache):\n", kSkewRounds);
  Table skew_table({"workers", "schedule", "virtual ms", "steals", "vs static"});
  for (size_t i = 0; i < skew.size(); ++i) {
    const SchedPoint& point = skew[i];
    const double virtual_ms = static_cast<double>(point.result.virtual_makespan) / 1e6;
    // The static point for this worker count leads its group.
    const double static_ms =
        static_cast<double>(skew[i - i % schedules.size()].result.virtual_makespan) / 1e6;
    char gain[32];
    std::snprintf(gain, sizeof(gain), "%.2fx", static_ms / virtual_ms);
    skew_table.AddRow(static_cast<double>(point.workers), ScheduleName(point.schedule),
                      virtual_ms, static_cast<double>(point.result.steals), gain);
  }
  skew_table.Print();

  // --- 4. Cold cache: the stage DAG on fresh caches -----------------------
  // Every point provisions a fresh cache, so each distinct kernel fingerprint
  // and rootfs key is built exactly once per point, as its own task that
  // overlaps the other stages and the boots across workers. Stealing off
  // reads nearly the same makespan here (a boot runs where its last stage
  // completed), so the leg reports the default schedule only.
  std::vector<SchedPoint> cold;
  for (size_t workers : worker_counts) {
    core::KernelCache fresh;
    core::FleetBootOptions options;
    options.workers = workers;
    options.rounds = 1;
    auto result = core::RunFleetBoot(fresh, options);
    if (!result.ok()) {
      std::fprintf(stderr, "cold workers=%zu: %s\n", workers,
                   result.status().ToString().c_str());
      return 0;
    }
    cold.push_back({workers, options.schedule, *result});
  }
  std::printf("\ncold cache (fresh cache per point, 1 round, %s):\n",
              ScheduleName(cold.front().schedule));
  Table cold_table({"workers", "virtual ms", "steals", "speedup"});
  const double cold_serial_ms = static_cast<double>(cold.front().result.virtual_makespan) / 1e6;
  for (const SchedPoint& point : cold) {
    const double virtual_ms = static_cast<double>(point.result.virtual_makespan) / 1e6;
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx", cold_serial_ms / virtual_ms);
    cold_table.AddRow(static_cast<double>(point.workers), virtual_ms,
                      static_cast<double>(point.result.steals), speedup);
  }
  cold_table.Print();

  // --- 5. JSON artifact ----------------------------------------------------
  std::FILE* json = std::fopen("BENCH_fleet_boot.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"fleet_size\": %zu,\n", fleet_size);
    std::fprintf(json, "  \"rounds\": %zu,\n", kRounds);
    std::fprintf(json, "  \"boots_per_point\": %zu,\n", fleet_size * kRounds);
    std::fprintf(json, "  \"sweep\": [\n");
    for (size_t i = 0; i < sweep.size(); ++i) {
      const SweepPoint& point = sweep[i];
      const double virtual_ms = static_cast<double>(point.result.virtual_makespan) / 1e6;
      std::fprintf(json,
                   "    {\"workers\": %zu, \"boots\": %zu, \"failures\": %zu, "
                   "\"virtual_makespan_ms\": %.3f, \"boots_per_virtual_sec\": %.3f, "
                   "\"speedup_vs_serial\": %.3f, \"wall_ms\": %.3f}%s\n",
                   point.workers, point.result.boots, point.result.failures, virtual_ms,
                   point.result.boots_per_virtual_sec, serial_ms / virtual_ms,
                   point.result.wall_ms, i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"redundant_rootfs_builds\": %zu,\n", redundant_rootfs_builds);
    std::fprintf(json, "  \"redundant_kernel_builds\": %zu,\n", redundant_kernel_builds);
    std::fprintf(json, "  \"batching_kernel_builds\": %zu,\n", batch_stats.builds);
    std::fprintf(json, "  \"batching_general_served\": %zu,\n", batch_stats.general_served);
    std::fprintf(json, "  \"batching_distinct_kernels\": %zu,\n", batch_stats.distinct_kernels);
    auto write_sched_points = [json](const char* key, const std::vector<SchedPoint>& points) {
      std::fprintf(json, "  \"%s\": [\n", key);
      for (size_t i = 0; i < points.size(); ++i) {
        const SchedPoint& point = points[i];
        std::fprintf(json,
                     "    {\"workers\": %zu, \"schedule\": \"%s\", "
                     "\"virtual_makespan_ms\": %.3f, \"steals\": %zu, "
                     "\"worker_queue_peak\": %zu}%s\n",
                     point.workers, ScheduleName(point.schedule),
                     static_cast<double>(point.result.virtual_makespan) / 1e6,
                     point.result.steals,
                     point.result.worker_queue_peak.empty()
                         ? size_t{0}
                         : *std::max_element(point.result.worker_queue_peak.begin(),
                                             point.result.worker_queue_peak.end()),
                     i + 1 < points.size() ? "," : "");
      }
      std::fprintf(json, "  ]%s\n", std::string(key) == "cold" ? "" : ",");
    };
    write_sched_points("skew", skew);
    write_sched_points("cold", cold);
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_fleet_boot.json\n");
  }
  return 0;
}
