// Extension: fleet admission control under a host memory budget.
//
// A fleet host running hundreds of Fig. 8-sized unikernels dies of
// overcommit unless launches are gated. This benchmark boots the top-20
// fleet across 4 workers under a FleetAdmissionController and sweeps the
// host budget through four regimes:
//
//   unlimited  — budget 0: every launch admitted in full (baseline).
//   queueing   — 1 GiB budget, no degradation: workers' 512 MiB requests
//                exceed the budget, so launches block FIFO and drain as
//                earlier VMs exit.
//   degrading  — 1 GiB budget, 128 MiB floor: launches that do not fit in
//                full are granted their minimum instead of waiting.
//   rejecting  — 256 MiB budget: a 512 MiB request with no floor can never
//                fit and is rejected up front.
//
// Every scenario reports per-worker and fleet-wide resident-memory rollups
// and asserts-by-reporting that peak committed bytes stayed under budget.
// The queueing scenario's full metric registry (boot-phase histograms,
// admission counters, cache gauges) plus an exemplar provisioning+boot span
// pipeline are exported to BENCH_telemetry.json (a CI artifact). Exit code
// is always 0: regression gating belongs to the CI dashboards.
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "src/core/fleet_boot.h"
#include "src/core/multik.h"
#include "src/kconfig/presets.h"
#include "src/telemetry/export.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/span.h"
#include "src/util/table.h"
#include "src/vmm/admission.h"

using namespace lupine;

namespace {

struct Scenario {
  const char* name;
  Bytes budget;      // 0 = unlimited.
  Bytes min_memory;  // 0 = not degradable.
};

}  // namespace

int main() {
  PrintBanner("Extension: fleet admission control (host memory budget)");

  constexpr size_t kWorkers = 4;
  constexpr Bytes kVmMemory = 512 * kMiB;
  const size_t fleet_size = kconfig::Top20AppNames().size();

  // One warm cache for every scenario: admission is about memory, not builds.
  core::KernelCache cache;
  {
    core::FleetBootOptions warmup;
    auto warm = core::RunFleetBoot(cache, warmup);
    if (!warm.ok()) {
      std::fprintf(stderr, "warmup: %s\n", warm.status().ToString().c_str());
      return 0;
    }
  }

  const std::vector<Scenario> scenarios = {
      {"unlimited", 0, 0},
      {"queueing", 1 * kGiB, 0},
      {"degrading", 1 * kGiB, 128 * kMiB},
      {"rejecting", 256 * kMiB, 0},
  };

  struct Run {
    Scenario scenario;
    core::FleetBootResult result;
    vmm::FleetAdmissionController::Stats admission;
  };
  std::vector<Run> runs;
  // The queueing scenario's registry is the exported exemplar: it exercises
  // boot-phase histograms, admission counters, and the cache gauges at once.
  telemetry::MetricRegistry queueing_registry;

  for (const Scenario& scenario : scenarios) {
    telemetry::MetricRegistry local_registry;
    telemetry::MetricRegistry& registry =
        std::string(scenario.name) == "queueing" ? queueing_registry : local_registry;
    vmm::FleetAdmissionController admission({scenario.budget});
    admission.set_metrics(&registry);
    cache.set_metrics(&registry);

    core::FleetBootOptions options;
    options.workers = kWorkers;
    options.memory = kVmMemory;
    options.min_memory = scenario.min_memory;
    options.metrics = &registry;
    options.admission = &admission;
    auto result = core::RunFleetBoot(cache, options);
    cache.set_metrics(nullptr);
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", scenario.name, result.status().ToString().c_str());
      return 0;
    }
    runs.push_back({scenario, *result, admission.stats()});
  }

  Table table({"scenario", "budget", "boots", "admitted", "degraded", "queued", "rejected",
               "peak committed", "under budget"});
  for (const Run& run : runs) {
    const bool under = run.scenario.budget == 0 ||
                       run.admission.peak_committed <= run.scenario.budget;
    table.AddRow(run.scenario.name,
                 run.scenario.budget == 0 ? std::string("unlimited")
                                          : FormatSize(run.scenario.budget),
                 static_cast<double>(run.result.boots),
                 static_cast<double>(run.result.admitted),
                 static_cast<double>(run.result.degraded),
                 static_cast<double>(run.result.queue_waits),
                 static_cast<double>(run.result.rejected),
                 FormatSize(run.admission.peak_committed), under ? "yes" : "NO");
  }
  table.Print();
  std::printf("\nfleet: %zu apps x %zu workers, %s per VM\n", fleet_size, kWorkers,
              FormatSize(kVmMemory).c_str());
  for (const Run& run : runs) {
    std::printf("%-10s fleet resident peak %s, sum of VM peaks %s\n", run.scenario.name,
                FormatSize(run.result.fleet_resident_peak).c_str(),
                FormatSize(run.result.fleet_resident_sum).c_str());
  }

  // --- Deterministic admission mechanics -----------------------------------
  // The fleet sweep's queue/degrade counts depend on how much the workers'
  // grant lifetimes happen to overlap on this host; this leg forces each
  // verdict with explicit threads so the exported booleans are stable.
  // Budget 1280 MiB: two full 512 MiB grants fit, a third degrades to its
  // 128 MiB floor, and a fourth (no floor) queues until a release drains it.
  vmm::FleetAdmissionController mechanics({1280 * kMiB});
  vmm::Grant g1 = mechanics.Admit({"svc-a", 512 * kMiB, 0});
  vmm::Grant g2 = mechanics.Admit({"svc-b", 512 * kMiB, 0});
  vmm::Grant g3 = mechanics.Admit({"svc-c", 512 * kMiB, 128 * kMiB});
  const bool degraded_immediately = g3.valid() && g3.degraded() && !g3.waited();
  auto pending = std::async(std::launch::async,
                            [&] { return mechanics.Admit({"svc-d", 512 * kMiB, 0}); });
  while (mechanics.stats().waiting == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  g1.Release();  // 512 MiB back -> the queued launch fits in full and drains.
  vmm::Grant g4 = pending.get();
  const bool queued_then_drained = g4.valid() && g4.waited() && !g4.degraded();
  std::printf("\nmechanics: degrade-at-capacity %s, queue-then-drain-on-exit %s\n",
              degraded_immediately ? "ok" : "FAILED",
              queued_then_drained ? "ok" : "FAILED");

  // Exemplar pipeline: one artifact's host-wall provisioning spans spliced
  // with one VM's virtual boot spans (specialize -> ... -> app-main).
  telemetry::SpanTrace pipeline;
  core::KernelCache fresh;  // Cold, so the exemplar includes a real build.
  if (auto artifact = fresh.GetOrBuild("hello-world"); artifact.ok()) {
    if ((*artifact)->provisioning != nullptr) {
      pipeline.Extend(*(*artifact)->provisioning);
    }
    auto vm = (*artifact)->Launch(kVmMemory);
    if (vm->Boot().ok()) {
      (void)vm->RunToCompletion();
      pipeline.Extend(vm->boot_spans());
    }
  }

  std::string json = "{\n";
  json += "  \"fleet_size\": " + std::to_string(fleet_size) + ",\n";
  json += "  \"workers\": " + std::to_string(kWorkers) + ",\n";
  json += "  \"vm_memory_bytes\": " + std::to_string(kVmMemory) + ",\n";
  json += "  \"scenarios\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const Run& run = runs[i];
    json += "    {\"name\": \"" + std::string(run.scenario.name) + "\"";
    json += ", \"budget_bytes\": " + std::to_string(run.scenario.budget);
    json += ", \"min_memory_bytes\": " + std::to_string(run.scenario.min_memory);
    json += ", \"boots\": " + std::to_string(run.result.boots);
    json += ", \"failures\": " + std::to_string(run.result.failures);
    json += ", \"admitted\": " + std::to_string(run.result.admitted);
    json += ", \"degraded\": " + std::to_string(run.result.degraded);
    json += ", \"queue_waits\": " + std::to_string(run.result.queue_waits);
    json += ", \"rejected\": " + std::to_string(run.result.rejected);
    json += ", \"peak_committed_bytes\": " + std::to_string(run.admission.peak_committed);
    json += ", \"fleet_resident_peak_bytes\": " +
            std::to_string(run.result.fleet_resident_peak);
    json += ", \"fleet_resident_sum_bytes\": " +
            std::to_string(run.result.fleet_resident_sum);
    json += ", \"worker_resident_peak_bytes\": [";
    for (size_t w = 0; w < run.result.worker_resident_peak.size(); ++w) {
      json += (w > 0 ? ", " : "") + std::to_string(run.result.worker_resident_peak[w]);
    }
    json += "]}";
    json += i + 1 < runs.size() ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += "  \"mechanics\": {\"degrade_at_capacity\": " +
          std::string(degraded_immediately ? "true" : "false") +
          ", \"queue_then_drain_on_exit\": " +
          std::string(queued_then_drained ? "true" : "false") + "},\n";
  json += "  \"queueing_metrics\": " +
          telemetry::ToJson(queueing_registry.Collect(), "  ") + ",\n";
  json += "  \"exemplar_pipeline_spans\": " + telemetry::ToJson(pipeline, "  ") + "\n";
  json += "}\n";
  if (telemetry::WriteFile("BENCH_telemetry.json", json).ok()) {
    std::printf("\nwrote BENCH_telemetry.json\n");
  }
  return 0;
}
