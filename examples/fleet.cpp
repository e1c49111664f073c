// Deploy the whole top-20 fleet through the MultiK-style kernel cache:
// identical specializations share one kernel image, every app keeps its own
// rootfs, and the whole fleet is then run under a Supervisor with injected
// faults — one member crashes once and is restarted with backoff, one
// crash-loops and is quarantined as degraded, the rest stay up.
//
// The build phase fans the fleet out as one scheduler task per app on every
// host core: KernelCache is thread-safe with single-flight deduplication,
// so the 16 runtimes that share the zero-option lupine-base kernel trigger
// exactly one build among them no matter how the workers interleave.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "src/apps/manifest.h"
#include "src/core/fleet_boot.h"
#include "src/core/multik.h"
#include "src/kconfig/presets.h"
#include "src/telemetry/export.h"
#include "src/telemetry/metrics.h"
#include "src/util/fault.h"
#include "src/util/scheduler.h"
#include "src/vmm/supervisor.h"
#include "src/workload/app_bench.h"

using namespace lupine;

int main() {
  core::KernelCache cache;
  WorkStealingScheduler::Options sched_options;
  sched_options.workers = std::max(1u, std::thread::hardware_concurrency());

  const std::vector<std::string> fleet = kconfig::Top20AppNames();
  std::printf("Building kernels for the top-20 Docker Hub applications (%zu workers)...\n\n",
              sched_options.workers);
  const auto build_start = std::chrono::steady_clock::now();
  // One slot per app, each written only by its own build task.
  std::vector<Result<core::KernelCache::ArtifactPtr>> artifacts(
      fleet.size(), Result<core::KernelCache::ArtifactPtr>(Err::kAgain, "not built"));
  {
    WorkStealingScheduler builds(sched_options);
    for (size_t i = 0; i < fleet.size(); ++i) {
      WorkStealingScheduler::TaskSpec spec;
      spec.body = [&cache, &fleet, &artifacts, i] {
        artifacts[i] = cache.GetOrBuild(fleet[i]);
        return Nanos{0};
      };
      spec.label = fleet[i];
      spec.home = static_cast<int>(i % sched_options.workers);
      builds.Submit(std::move(spec));
    }
    builds.Run();
  }
  const auto build_elapsed =
      std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                            build_start);

  std::printf("%-16s %-10s %s\n", "app", "image", "kernel fingerprint");
  for (size_t i = 0; i < fleet.size(); ++i) {
    const auto& artifact = artifacts[i];
    if (!artifact.ok()) {
      std::fprintf(stderr, "%s: %s\n", fleet[i].c_str(), artifact.status().ToString().c_str());
      return 1;
    }
    std::printf("%-16s %-10s %p\n", fleet[i].c_str(),
                FormatSize((*artifact)->kernel->size).c_str(),
                static_cast<const void*>((*artifact)->kernel.get()));
  }
  std::printf("\nparallel fleet build wall time: %lld us\n",
              static_cast<long long>(build_elapsed.count()));

  auto stats = cache.stats();
  std::printf("\nfleet: %zu apps, %zu distinct kernels (%zu builds for %zu requests)\n",
              stats.apps, stats.distinct_kernels, stats.builds, stats.requests);
  std::printf("image bytes without sharing: %s\n",
              FormatSize(stats.bytes_if_unshared).c_str());
  std::printf("image bytes stored:          %s (saved %s)\n",
              FormatSize(stats.bytes_stored).c_str(), FormatSize(stats.bytes_saved()).c_str());
  auto rootfs_stats = cache.rootfs_stats();
  std::printf("rootfs cache: %zu requests, %zu builds, %zu hits (%s stored)\n",
              rootfs_stats.requests, rootfs_stats.builds, rootfs_stats.hits,
              FormatSize(rootfs_stats.bytes_stored).c_str());

  // Boot two fleet members that share the zero-option kernel — in parallel,
  // one scheduler task each (each VM's fibers are thread-local, so
  // independent VMs run concurrently).
  std::printf("\nBooting golang and hello-world on their shared kernel...\n");
  struct BootOutcome {
    int exit_code = 0;
    Nanos to_init = 0;
  };
  const std::vector<std::string> boot_apps = {"golang", "hello-world"};
  std::vector<BootOutcome> outcomes(boot_apps.size());
  {
    WorkStealingScheduler boots(sched_options);
    for (size_t i = 0; i < boot_apps.size(); ++i) {
      WorkStealingScheduler::TaskSpec spec;
      spec.body = [&cache, &boot_apps, &outcomes, i] {
        auto artifact = cache.GetOrBuild(boot_apps[i]);
        auto vm = (*artifact)->Launch(128 * kMiB);
        auto result = vm->BootAndRun();
        outcomes[i] = {result.exit_code, vm->boot_report().to_init};
        return Nanos{0};
      };
      spec.label = boot_apps[i];
      spec.home = static_cast<int>(i % sched_options.workers);
      boots.Submit(std::move(spec));
    }
    boots.Run();
  }
  for (size_t i = 0; i < boot_apps.size(); ++i) {
    std::printf("  %-12s exit=%d boot=%s\n", boot_apps[i].c_str(), outcomes[i].exit_code,
                FormatDuration(outcomes[i].to_init).c_str());
  }

  // And one server with its own specialized kernel.
  auto redis = cache.GetOrBuild("redis");
  auto vm = (*redis)->Launch();
  bool ready = workload::BootAppServer(*vm, "Ready to accept connections");
  std::printf("  %-12s %s\n", "redis", ready ? "serving" : "FAILED");
  if (!ready) {
    return 1;
  }

  // --- The fleet under a Supervisor, with injected faults -------------------
  // redis panics once (a wild access in ring 0 early in boot) and must come
  // back after one backoff; mysql dies in an initcall on every boot and must
  // end up quarantined as degraded without disturbing the other 18 members.
  std::printf("\nSupervising the top-20 fleet under injected faults...\n");

  // Injectors live outside the VMs so the schedule survives restarts: redis's
  // single kAppFault is consumed on attempt 1 and attempt 2 runs clean.
  FaultInjector redis_faults(FaultPlan{}.FireOnce(FaultSite::kAppFault, 10));
  FaultInjector mysql_faults(FaultPlan{}.FireAlways(FaultSite::kBootInitcall));

  vmm::SupervisorPolicy policy;
  policy.crash_loop_failures = 3;
  vmm::Supervisor supervisor(policy);
  // Telemetry: the supervisor streams incident counters, backoff and
  // time-to-healthy histograms into the registry; the cache snapshot and the
  // JSON export land at the end of the run.
  telemetry::MetricRegistry registry;
  supervisor.set_metrics(&registry);
  // Flight recorder: every supervisor incident, fleet-boot lifecycle step,
  // admission verdict, and cache hit/miss/evict below lands in one journal.
  telemetry::Journal journal;
  supervisor.set_journal(&journal);
  for (const auto& app : kconfig::Top20AppNames()) {
    auto artifact = cache.GetOrBuild(app);
    if (!artifact.ok()) {
      std::fprintf(stderr, "%s: %s\n", app.c_str(), artifact.status().ToString().c_str());
      return 1;
    }
    const apps::AppManifest* manifest = apps::FindManifest(app);
    FaultInjector* faults = nullptr;
    if (app == "redis") {
      faults = &redis_faults;
    } else if (app == "mysql") {
      faults = &mysql_faults;
    }
    core::KernelCache::ArtifactPtr artifact_ptr = *artifact;
    std::string marker =
        manifest->kind == apps::AppKind::kServer ? manifest->ready_line : "";
    supervisor.AddMember(
        app, [artifact_ptr, faults] { return artifact_ptr->Launch(512 * kMiB, faults); },
        marker);
  }

  size_t unsettled = supervisor.Run();
  std::printf("\nredis incident timeline:\n%s", supervisor.TimelineText("redis").c_str());
  std::printf("\nmysql incident timeline:\n%s", supervisor.TimelineText("mysql").c_str());
  std::printf("\nfleet after %s: %zu healthy, %zu completed, %zu degraded\n",
              FormatDuration(supervisor.clock().now()).c_str(),
              supervisor.count(vmm::MemberState::kHealthy),
              supervisor.count(vmm::MemberState::kCompleted),
              supervisor.count(vmm::MemberState::kDegraded));

  // --- Pipelined fleet boot + Chrome trace export ---------------------------
  // A cold cache and the default pipelined schedule: kernel-build and rootfs
  // tasks are split out per distinct stage key, so one app's kernel build
  // overlaps another's rootfs assembly and the boots behind them. The
  // per-worker virtual timelines render as a chrome://tracing / Perfetto
  // document (one thread row per worker).
  std::printf("\nPipelined cold-cache fleet boot (4 workers, work stealing)...\n");
  core::KernelCache cold_cache;
  cold_cache.set_journal(&journal);
  core::FleetBootOptions fleet_options;
  fleet_options.apps = {"nginx", "redis", "golang", "python", "node", "hello-world"};
  fleet_options.workers = 4;
  fleet_options.journal = &journal;
  auto fleet_run = core::RunFleetBoot(cold_cache, fleet_options);
  if (!fleet_run.ok()) {
    std::fprintf(stderr, "fleet boot: %s\n", fleet_run.status().ToString().c_str());
    return 1;
  }
  std::printf("  %zu boots, makespan %s, %zu steals\n", fleet_run->boots,
              FormatDuration(fleet_run->virtual_makespan).c_str(), fleet_run->steals);
  // One merged Perfetto document: worker span rows, journal instants, and
  // counter tracks (tasks in flight, resident bytes, cumulative boots).
  const std::string trace = telemetry::ToChromeTrace(fleet_run->worker_timelines, journal,
                                                     fleet_run->counter_tracks);
  if (Status s = telemetry::WriteFile("fleet_trace.json", trace); !s.ok()) {
    std::fprintf(stderr, "trace export: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("  wrote fleet_trace.json (load it in chrome://tracing or Perfetto)\n");
  // The canonical journal export: schedule-scoped events (steals, admission
  // verdicts, cache races) are excluded, so this file is byte-identical no
  // matter how many workers replayed the fleet.
  if (Status s = telemetry::WriteFile("fleet_journal.jsonl", journal.ExportJsonl()); !s.ok()) {
    std::fprintf(stderr, "journal export: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("  wrote fleet_journal.jsonl (%zu events recorded)\n", journal.size());

  // Everything above also landed in the metric registry — export it as the
  // same JSON document the benches write to BENCH_*.json artifacts.
  cache.PublishMetrics(registry);
  std::printf("\ntelemetry snapshot (JSON export):\n%s\n",
              telemetry::ExportJson(registry).c_str());

  const bool ok = unsettled == 1 &&  // mysql degraded is the only unsettled member
                  supervisor.state("redis") == vmm::MemberState::kHealthy &&
                  supervisor.stats("redis").attempts == 2 &&
                  supervisor.state("mysql") == vmm::MemberState::kDegraded;
  std::printf("%s\n", ok ? "fleet supervision OK" : "fleet supervision FAILED");
  return ok ? 0 : 1;
}
