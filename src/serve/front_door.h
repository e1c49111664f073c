// The serving front door: request-driven serving over snapshot/restore boot
// and a warm pool — cutting cold-start out of the request path.
//
// RunServing turns the repo's boot machinery into a request-serving system
// and measures what a tenant actually feels: time-to-first-response (TTFR)
// under an open-loop arrival process. It runs in three phases:
//
//   1. Prelude (real execution, serial). For every distinct app: build the
//      artifact, cold-boot one guest to measure boot cost, capture its
//      post-init snapshot (vmm::Vm::Capture) to price capture and
//      restore, and verify one Vm::Restore round-trips the state digest.
//      The per-app cost table — cold vs capture vs restore — is the
//      "restore is N x cheaper than boot" figure, measured, not assumed.
//
//   2. Discrete-event simulation (sequential, virtual clock). The arrival
//      trace (loadgen) is played against a model of the serving host:
//      8 concurrent instances, a per-app warm pool of 2 guests refilled
//      asynchronously (2 restores in flight per app), snapshot
//      restore on-demand when the pool is dry, cold boot (plus capture)
//      when no snapshot exists, and the drop-once-then-poison Quarantine
//      (util/retry.h) driven by injected kSnapshotRestore faults. Every
//      reported figure — TTFR percentiles, warm-hit ratio, per-request
//      records, canonical journal events (source "serve") — comes from
//      this phase, so the numbers are a pure function of (options, costs)
//      and byte-identical across worker counts by construction.
//
//   3. Host execution (optional, `execute`). The DES-planned request and
//      refill tasks run on util/scheduler worker threads against the REAL
//      subsystems — WarmPool, SnapshotCache, Vm::Restore, and non-blocking
//      FleetAdmissionController::TryAdmit — with arrivals as task release
//      times. Refill k chains on refill k-1 (per app) and the k-th
//      warm-planned request depends on the k-th refill, so a warm take
//      finds its guest by construction; any mismatch counts as a
//      divergence instead of corrupting the figures. Bodies never run
//      guest fibers (boot/restore only). Execution yields informational
//      telemetry only
//      (steals, wall clock, schedule-scoped events).
#ifndef SRC_SERVE_FRONT_DOOR_H_
#define SRC_SERVE_FRONT_DOOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/multik.h"
#include "src/core/snapshot_cache.h"
#include "src/serve/loadgen.h"
#include "src/telemetry/journal.h"
#include "src/telemetry/metrics.h"
#include "src/util/fault.h"
#include "src/util/retry.h"

namespace lupine::serve {

struct ServeOptions {
  std::vector<TenantSpec> tenants;   // Empty = invalid (nothing to serve).
  Nanos duration = Seconds(2);       // Arrival window on the virtual clock.
  uint64_t seed = 42;                // Arrival + service-jitter seed.
  size_t workers = 1;                // Host-execution worker threads.
  bool execute = true;               // Run phase 3 (real subsystems).
  Bytes memory = 128 * kMiB;         // Per-guest RAM.
  // Host RAM for the execution phase's non-blocking admission gate
  // (TryAdmit per launch; denials are informational). 0 = unlimited.
  Bytes host_budget = 0;
  // Restore-failure containment, mirrored by the DES model and applied to
  // `snapshots` for the execution phase.
  QuarantinePolicy quarantine;
  // Optional fault schedule; kSnapshotRestore rules drive restore failures
  // (per-app injectors forked off plan.seed, DES-evaluated — deterministic).
  const FaultPlan* fault_plan = nullptr;
  // Optional sinks (non-owning, must outlive the call). Canonical "serve"
  // events land at DES virtual times with schedule_scoped=false; the
  // execution phase adds schedule-scoped warm-pool/admission/cache events.
  telemetry::MetricRegistry* metrics = nullptr;
  telemetry::Journal* journal = nullptr;
};

struct RequestRecord {
  size_t index = 0;
  std::string app;
  Nanos arrival = 0;
  Nanos dispatch = 0;   // When a slot picked it up.
  Nanos ttfr = 0;       // arrival -> response complete.
  const char* path = "";  // warm | restore | cold | restore-fail-cold.
};

// Per-app measured launch economics (phase 1).
struct AppServeCost {
  std::string app;
  Nanos cold_ns = 0;     // Full boot to_init.
  Nanos capture_ns = 0;  // Snapshot serialization.
  Nanos restore_ns = 0;  // Restore-path launch (verified by a real restore).
  Nanos service_ns = 0;  // Mean service time used by the DES.
  double restore_ratio = 0.0;  // restore_ns / cold_ns.
};

struct ServeResult {
  // Deterministic serving figures (phases 1-2).
  size_t requests = 0;
  size_t warm_hits = 0;
  size_t restores = 0;          // On-demand restore launches (requests).
  size_t cold_boots = 0;        // Cold launches (incl. restore-fail fallback).
  size_t captures = 0;          // Snapshot publications during the run.
  size_t refills = 0;           // Successful off-path pool refills.
  size_t restore_failures = 0;  // Failed restores (on-demand + refill).
  size_t queue_waits = 0;       // Requests that waited for a slot.
  size_t quarantine_drops = 0;
  size_t quarantine_poisoned = 0;
  size_t quarantine_denials = 0;
  size_t probes = 0;            // Half-open probes after a poison TTL.
  double warm_hit_ratio = 0.0;  // warm_hits / requests.
  Nanos ttfr_p50 = 0;
  Nanos ttfr_p99 = 0;
  Nanos ttfr_max = 0;
  double ttfr_mean_ns = 0.0;
  Nanos queue_wait_p99 = 0;
  Nanos virtual_end = 0;        // Last response completion.
  std::vector<AppServeCost> costs;
  std::vector<RequestRecord> records;
  // DES counter tracks (queue depth, instances in flight, warm guests) for
  // the merged Perfetto document — deterministic like the records.
  std::vector<telemetry::CounterSeries> counter_tracks;

  // Host-execution telemetry (informational; zero when execute=false).
  size_t exec_warm_takes = 0;
  size_t exec_restores = 0;
  size_t exec_cold_boots = 0;
  size_t exec_captures = 0;
  size_t exec_refills = 0;
  size_t exec_divergence = 0;        // Planned path vs real-subsystem outcome.
  size_t exec_admission_denied = 0;  // TryAdmit denials (unlimited budget: 0).
  size_t steals = 0;                 // Replay steals across request tasks.
  Nanos exec_makespan = 0;           // Replay makespan of the task graph.
  double wall_ms = 0.0;
};

// Serves the configured tenant mix. `cache` provides artifacts; `snapshots`
// is the real snapshot store the prelude and execution phase exercise (its
// quarantine policy is set from options.quarantine). Fails only when an
// artifact cannot be built or a tenant list is empty.
Result<ServeResult> RunServing(core::KernelCache& cache, core::SnapshotCache& snapshots,
                               const ServeOptions& options);

}  // namespace lupine::serve

#endif  // SRC_SERVE_FRONT_DOOR_H_
