// Extension: fleet build throughput. The MultiK deployment story (Section 6)
// assumes specializing a kernel per application is cheap enough to do at
// fleet scale; this benchmark measures the specialize→resolve→build pipeline
// itself. Three measurements:
//
//   1. Resolve latency — dependency resolution for each top-20 app, with the
//      resolver's closure memoization off (every Enable re-walks the
//      depends_on/select graph, the pre-optimization behavior) vs on.
//   2. Fleet build throughput — serial, memoization off (baseline) vs one
//      scheduler task per app over the single-flight KernelCache on every
//      host core, memoization on.
//   3. Cache effectiveness — requests vs actual kernel builds for the fleet
//      (16 of the 20 apps share the zero-option lupine-base kernel).
//
// Results go to stdout and BENCH_build_throughput.json, which CI's benchdiff
// step checks against bench/baselines/: the cache counts are gated, the
// wall-clock figures and the host thread count are informational. The exit
// code is always 0.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/multik.h"
#include "src/kconfig/presets.h"
#include "src/kconfig/resolver.h"
#include "src/util/table.h"
#include "src/util/scheduler.h"

using namespace lupine;

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// Resolves every top-20 app config `rounds` times; returns total milliseconds.
double TimeResolves(int rounds) {
  const auto& apps = kconfig::Top20AppNames();
  const auto start = Clock::now();
  for (int round = 0; round < rounds; ++round) {
    for (const auto& app : apps) {
      auto config = kconfig::LupineForApp(app);
      if (!config.ok()) {
        std::fprintf(stderr, "resolve %s: %s\n", app.c_str(),
                     config.status().ToString().c_str());
      }
    }
  }
  return ElapsedMs(start);
}

// Builds the whole fleet through a fresh KernelCache; returns wall ms.
double TimeFleetBuild(bool parallel, size_t threads, core::KernelCache::Stats* stats_out) {
  core::KernelCache cache;
  const auto& apps = kconfig::Top20AppNames();
  const auto start = Clock::now();
  if (parallel) {
    std::vector<Status> statuses(apps.size());
    WorkStealingScheduler::Options options;
    options.workers = threads;
    WorkStealingScheduler scheduler(options);
    for (size_t i = 0; i < apps.size(); ++i) {
      WorkStealingScheduler::TaskSpec spec;
      spec.body = [&cache, &apps, &statuses, i] {
        statuses[i] = cache.GetOrBuild(apps[i]).status();
        return Nanos{0};
      };
      spec.label = apps[i];
      spec.home = static_cast<int>(i % threads);
      scheduler.Submit(std::move(spec));
    }
    scheduler.Run();
    for (size_t i = 0; i < apps.size(); ++i) {
      if (!statuses[i].ok()) {
        std::fprintf(stderr, "build %s: %s\n", apps[i].c_str(),
                     statuses[i].ToString().c_str());
      }
    }
  } else {
    for (const auto& app : apps) {
      auto artifact = cache.GetOrBuild(app);
      if (!artifact.ok()) {
        std::fprintf(stderr, "build %s: %s\n", app.c_str(),
                     artifact.status().ToString().c_str());
      }
    }
  }
  const double elapsed = ElapsedMs(start);
  if (stats_out != nullptr) {
    *stats_out = cache.stats();
  }
  return elapsed;
}

double BestOf(int rounds, const std::function<double()>& run) {
  double best = run();
  for (int i = 1; i < rounds; ++i) {
    best = std::min(best, run());
  }
  return best;
}

}  // namespace

int main() {
  PrintBanner("Extension: fleet build throughput (specialize/resolve/build pipeline)");

  constexpr int kResolveRounds = 50;  // 50 x 20 apps per timing.
  constexpr int kBuildRounds = 3;     // Best-of over fresh caches.
  const size_t threads = std::max(1u, std::thread::hardware_concurrency());
  const size_t fleet_size = kconfig::Top20AppNames().size();

  // --- 1. Resolve latency, memoized vs not ---------------------------------
  kconfig::Resolver::SetMemoizationEnabled(false);
  const double resolve_walk_ms = TimeResolves(kResolveRounds);
  kconfig::Resolver::SetMemoizationEnabled(true);
  (void)TimeResolves(1);  // Warm the closure cache once.
  const double resolve_memo_ms = TimeResolves(kResolveRounds);
  const double resolves = static_cast<double>(kResolveRounds) * fleet_size;

  // --- 2. Fleet build throughput, serial vs pooled -------------------------
  kconfig::Resolver::SetMemoizationEnabled(false);
  const double serial_ms =
      BestOf(kBuildRounds, [] { return TimeFleetBuild(false, 1, nullptr); });
  kconfig::Resolver::SetMemoizationEnabled(true);
  core::KernelCache::Stats stats;
  const double parallel_ms = BestOf(
      kBuildRounds, [threads, &stats] { return TimeFleetBuild(true, threads, &stats); });

  const double serial_bps = fleet_size / (serial_ms / 1000.0);
  const double parallel_bps = fleet_size / (parallel_ms / 1000.0);
  const double speedup = serial_ms / parallel_ms;
  const double resolve_speedup = resolve_walk_ms / resolve_memo_ms;
  const double hit_rate =
      stats.requests == 0
          ? 0.0
          : 1.0 - static_cast<double>(stats.builds) / static_cast<double>(stats.requests);

  Table table({"metric", "serial/walk", "pooled/memo", "speedup"});
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", resolve_speedup);
  table.AddRow("resolve us/app", resolve_walk_ms * 1000.0 / resolves,
               resolve_memo_ms * 1000.0 / resolves, buf);
  std::snprintf(buf, sizeof(buf), "%.2fx", speedup);
  table.AddRow("fleet build ms", serial_ms, parallel_ms, buf);
  table.AddRow("builds/sec", serial_bps, parallel_bps, "");
  table.Print();

  std::printf("\nworkers: %zu, fleet: %zu apps\n", threads, fleet_size);
  std::printf("cache: %zu requests, %zu kernel builds, %zu distinct kernels "
              "(hit rate %.0f%%)\n",
              stats.requests, stats.builds, stats.distinct_kernels, hit_rate * 100.0);

  // --- 3. JSON artifact ----------------------------------------------------
  std::FILE* json = std::fopen("BENCH_build_throughput.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"threads\": %zu,\n", threads);
    std::fprintf(json, "  \"fleet_size\": %zu,\n", fleet_size);
    std::fprintf(json, "  \"resolve_us_per_app_unmemoized\": %.3f,\n",
                 resolve_walk_ms * 1000.0 / resolves);
    std::fprintf(json, "  \"resolve_us_per_app_memoized\": %.3f,\n",
                 resolve_memo_ms * 1000.0 / resolves);
    std::fprintf(json, "  \"resolve_speedup\": %.3f,\n", resolve_speedup);
    std::fprintf(json, "  \"serial_fleet_build_ms\": %.3f,\n", serial_ms);
    std::fprintf(json, "  \"parallel_fleet_build_ms\": %.3f,\n", parallel_ms);
    std::fprintf(json, "  \"serial_builds_per_sec\": %.3f,\n", serial_bps);
    std::fprintf(json, "  \"parallel_builds_per_sec\": %.3f,\n", parallel_bps);
    std::fprintf(json, "  \"fleet_build_speedup\": %.3f,\n", speedup);
    std::fprintf(json, "  \"cache_requests\": %zu,\n", stats.requests);
    std::fprintf(json, "  \"cache_builds\": %zu,\n", stats.builds);
    std::fprintf(json, "  \"distinct_kernels\": %zu,\n", stats.distinct_kernels);
    std::fprintf(json, "  \"cache_hit_rate\": %.3f\n", hit_rate);
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_build_throughput.json\n");
  }
  return 0;
}
