// Extension: chaos sweep over the fleet resilience layer. The paper's
// posture (Section 2.2) is that a Lupine guest cannot recover itself — the
// application runs in ring 0 — so every recovery mechanism lives monitor
// side: per-task retries with deterministic backoff, a boot deadline and
// artifact quarantine. This benchmark injects seeded fault schedules into
// whole fleet boots and measures what those mechanisms buy.
//
// Legs:
//   1. Baseline — the top-20 fleet, no faults, the reference makespan.
//   2. Chaos sweep — FaultSite x probability grid. Every task owns a private
//      injector forked off (plan seed, task index), so each point is
//      deterministic and independent of worker count. Reports completion
//      rate, retries, deadline kills, makespan inflation vs baseline and the
//      mean virtual time-to-recovery.
//   3. Recover-all — bench/plans/boot_initcall_twice.json caps the initcall
//      fault at 2 fires per task: with 3 retry attempts the fleet must
//      complete with zero lost boots.
//   4. Poisoned rootfs — bench/plans/poisoned_rootfs.json corrupts every
//      boot. Quarantine caps failed launches per app at 2
//      (rebuild-once-then-poison) instead of rounds x workers crash loops.
//
// Results go to stdout and BENCH_chaos.json (a CI artifact). Exit code is
// always 0: regression gating belongs to the CI dashboards.
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/fleet_boot.h"
#include "src/core/multik.h"
#include "src/kconfig/presets.h"
#include "src/util/fault.h"
#include "src/util/retry.h"
#include "src/util/table.h"

using namespace lupine;

namespace {

// Loads a fault plan from bench/plans/, falling back to the embedded copy of
// the same document when the bench runs from a directory the repo checkout
// is not visible from (CI artifact stages, bare build dirs).
FaultPlan LoadPlan(const char* filename, const char* embedded) {
  for (const std::string dir : {"bench/plans/", "../bench/plans/", "../../bench/plans/"}) {
    std::FILE* file = std::fopen((dir + filename).c_str(), "rb");
    if (file == nullptr) {
      continue;
    }
    std::string text;
    char buffer[4096];
    size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
      text.append(buffer, n);
    }
    std::fclose(file);
    auto plan = FaultPlanFromJson(text);
    if (plan.ok()) {
      return *plan;
    }
    std::fprintf(stderr, "%s%s: %s (using embedded copy)\n", dir.c_str(), filename,
                 plan.status().ToString().c_str());
    break;
  }
  auto plan = FaultPlanFromJson(embedded);
  return plan.ok() ? *plan : FaultPlan{};
}

// The retry schedule every chaos leg uses: small deterministic backoffs so
// recovery time is visible but doesn't dominate the makespan.
RetryPolicy ChaosRetry(int max_attempts) {
  RetryPolicy retry;
  retry.max_attempts = max_attempts;
  retry.backoff.initial = Millis(10);
  retry.backoff.cap = Millis(200);
  return retry;
}

}  // namespace

int main() {
  PrintBanner("Extension: chaos sweep (fault sites x probability, fleet resilience)");

  const size_t fleet_size = kconfig::Top20AppNames().size();
  constexpr size_t kWorkers = 4;
  constexpr size_t kRounds = 2;
  const size_t tasks = fleet_size * kRounds;

  // One warm cache for the baseline + sweep; quarantine off so every failed
  // launch is priced by retry alone and the counts stay deterministic.
  core::KernelCache cache;
  cache.set_quarantine({.enabled = false});

  // --- 1. Baseline ----------------------------------------------------------
  core::FleetBootOptions baseline_options;
  baseline_options.workers = kWorkers;
  baseline_options.rounds = kRounds;
  auto baseline = core::RunFleetBoot(cache, baseline_options);
  if (!baseline.ok()) {
    std::fprintf(stderr, "baseline: %s\n", baseline.status().ToString().c_str());
    return 0;
  }
  const double baseline_ms = static_cast<double>(baseline->virtual_makespan) / 1e6;
  std::printf("baseline: %zu boots, virtual makespan %.3f ms\n\n", baseline->boots,
              baseline_ms);

  // --- 2. Chaos sweep -------------------------------------------------------
  const std::vector<FaultSite> sites = {FaultSite::kBootDecompress, FaultSite::kBootInitcall,
                                        FaultSite::kRootfsCorrupt, FaultSite::kBootStall};
  const std::vector<double> probabilities = {0.05, 0.2, 0.5};

  struct SweepPoint {
    FaultSite site;
    double probability;
    core::FleetBootResult result;
  };
  std::vector<SweepPoint> sweep;
  for (FaultSite site : sites) {
    for (double probability : probabilities) {
      FaultPlan plan;
      plan.seed = 42;
      plan.Add({.site = site, .probability = probability});

      core::FleetBootOptions options;
      options.workers = kWorkers;
      options.rounds = kRounds;
      options.retry = ChaosRetry(4);
      options.boot_deadline = Seconds(2);  // Caps a kBootStall wedge at 2s, not 60s.
      options.fault_plan = &plan;
      auto result = core::RunFleetBoot(cache, options);
      if (!result.ok()) {
        std::fprintf(stderr, "%s p=%.2f: %s\n", FaultSiteName(site), probability,
                     result.status().ToString().c_str());
        return 0;
      }
      sweep.push_back({site, probability, *result});
    }
  }

  Table table({"site", "p", "boots", "completion", "retries", "deadline kills",
               "makespan infl.", "mean recovery ms"});
  for (const SweepPoint& point : sweep) {
    const double completion = static_cast<double>(point.result.boots) / tasks;
    const double inflation =
        static_cast<double>(point.result.virtual_makespan) / 1e6 / baseline_ms;
    const double recovery_ms =
        point.result.recovered == 0
            ? 0.0
            : static_cast<double>(point.result.virtual_recovery_total) / 1e6 /
                  static_cast<double>(point.result.recovered);
    table.AddRow(FaultSiteName(point.site), point.probability,
                 static_cast<double>(point.result.boots), completion,
                 static_cast<double>(point.result.retries),
                 static_cast<double>(point.result.deadline_exceeded), inflation, recovery_ms);
  }
  table.Print();

  // --- 3. Recover-all: capped fault + retries => zero lost boots -----------
  const FaultPlan recover_plan = LoadPlan(
      "boot_initcall_twice.json",
      R"({"seed": 42, "rules": [{"site": "boot-initcall", "trigger_on": 1, "period": 1, "probability": 0, "max_fires": 2}]})");
  core::FleetBootOptions recover_options;
  recover_options.workers = kWorkers;
  recover_options.retry = ChaosRetry(3);
  recover_options.fault_plan = &recover_plan;
  auto recover = core::RunFleetBoot(cache, recover_options);
  if (!recover.ok()) {
    std::fprintf(stderr, "recover-all: %s\n", recover.status().ToString().c_str());
    return 0;
  }
  std::printf("\nrecover-all: %zu/%zu boots, %zu lost, %zu retries, %zu recovered "
              "(want 0 lost: the initcall fault stops after 2 fires per task)\n",
              recover->boots, fleet_size, recover->failures, recover->retries,
              recover->recovered);

  // --- 4. Poisoned rootfs: quarantine caps the blast radius ----------------
  const FaultPlan poison_plan = LoadPlan(
      "poisoned_rootfs.json",
      R"({"seed": 7, "rules": [{"site": "rootfs-corrupt", "trigger_on": 1, "period": 1, "probability": 0, "max_fires": -1}]})");
  core::KernelCache poisoned_cache;  // Fresh cache, quarantine on (the default).
  constexpr size_t kPoisonRounds = 3;
  core::FleetBootOptions poison_options;
  poison_options.workers = 1;  // Serial: quarantine counts are exact.
  poison_options.rounds = kPoisonRounds;
  poison_options.fault_plan = &poison_plan;
  auto poisoned = core::RunFleetBoot(poisoned_cache, poison_options);
  if (!poisoned.ok()) {
    std::fprintf(stderr, "poisoned-rootfs: %s\n", poisoned.status().ToString().c_str());
    return 0;
  }
  const auto poison_stats = poisoned_cache.stats();
  std::printf("\npoisoned-rootfs: %zu rounds x %zu apps, %zu failed launches "
              "(uncontained: %zu), %zu quarantine denials, %zu rebuilds, %zu poisoned\n",
              kPoisonRounds, fleet_size, poisoned->launch_failures,
              kPoisonRounds * fleet_size, poisoned->quarantined,
              poison_stats.quarantine_rebuilds, poison_stats.quarantine_poisoned);

  // --- 5. JSON artifact ----------------------------------------------------
  std::FILE* json = std::fopen("BENCH_chaos.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"fleet_size\": %zu,\n", fleet_size);
    std::fprintf(json, "  \"tasks_per_point\": %zu,\n", tasks);
    std::fprintf(json, "  \"baseline_makespan_ms\": %.3f,\n", baseline_ms);
    std::fprintf(json, "  \"sweep\": [\n");
    for (size_t i = 0; i < sweep.size(); ++i) {
      const SweepPoint& point = sweep[i];
      const double makespan_ms = static_cast<double>(point.result.virtual_makespan) / 1e6;
      const double recovery_ms =
          point.result.recovered == 0
              ? 0.0
              : static_cast<double>(point.result.virtual_recovery_total) / 1e6 /
                    static_cast<double>(point.result.recovered);
      std::fprintf(json,
                   "    {\"site\": \"%s\", \"probability\": %.2f, \"boots\": %zu, "
                   "\"failures\": %zu, \"completion_rate\": %.4f, \"retries\": %zu, "
                   "\"launch_failures\": %zu, \"deadline_exceeded\": %zu, "
                   "\"recovered\": %zu, \"makespan_ms\": %.3f, "
                   "\"makespan_inflation\": %.4f, \"mean_recovery_ms\": %.3f}%s\n",
                   FaultSiteName(point.site), point.probability, point.result.boots,
                   point.result.failures,
                   static_cast<double>(point.result.boots) / tasks, point.result.retries,
                   point.result.launch_failures, point.result.deadline_exceeded,
                   point.result.recovered, makespan_ms, makespan_ms / baseline_ms,
                   recovery_ms, i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json,
                 "  \"recover_all\": {\"boots\": %zu, \"failures\": %zu, \"retries\": %zu, "
                 "\"recovered\": %zu},\n",
                 recover->boots, recover->failures, recover->retries, recover->recovered);
    std::fprintf(json,
                 "  \"poisoned_rootfs\": {\"rounds\": %zu, \"launch_failures\": %zu, "
                 "\"uncontained_launches\": %zu, \"quarantined\": %zu, "
                 "\"quarantine_rebuilds\": %zu, \"quarantine_poisoned\": %zu}\n",
                 kPoisonRounds, poisoned->launch_failures, kPoisonRounds * fleet_size,
                 poisoned->quarantined, poison_stats.quarantine_rebuilds,
                 poison_stats.quarantine_poisoned);
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_chaos.json\n");
  }
  return 0;
}
