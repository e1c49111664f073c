// Fleet boot driver: boots a whole fleet of cached unikernels across worker
// threads and reports throughput on the virtual timeline.
//
// The fleet is one dependency DAG on util/scheduler's per-worker deques:
// one kernel-build task per distinct cold config fingerprint, one rootfs
// task per distinct cold rootfs key, and one launch task per boot depending
// on its app's stages. Cold-cache provisioning stages overlap across VMs instead of
// serializing inside the first boot that happens to need them; stage costs
// are the cache's deterministic ProvisionCostModel figures, charged in
// virtual time only when the stage is actually cold. Stealing on or off is
// the one scheduling knob (FleetSchedule): with it on, an idle worker
// drains the other deques, so one expensive boot (a stall fault) no longer
// wedges its home worker while siblings idle.
//
// Fibers are thread-local, so a VM lives and dies on the one worker thread
// that ran its task; migration happens before the task starts, never
// mid-boot. Every reported figure (makespan, per-worker busy time, steals,
// queue peaks) comes from the scheduler's deterministic virtual-time
// replay, so it is a property of the simulation, not of how many host cores
// this process happens to get — and fault logs and retry counts replay
// byte-identically across 1/2/4/8 workers in both schedules.
#ifndef SRC_CORE_FLEET_BOOT_H_
#define SRC_CORE_FLEET_BOOT_H_

#include <string>
#include <vector>

#include "src/core/multik.h"
#include "src/core/snapshot_cache.h"
#include "src/telemetry/journal.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/span.h"
#include "src/util/fault.h"
#include "src/util/retry.h"
#include "src/vmm/admission.h"

namespace lupine::core {

// How the fleet DAG maps onto workers.
enum class FleetSchedule {
  // Stealing off: every task runs on the worker whose deque it entered —
  // its home (index mod W) when ready at submission, else the worker that
  // completed its last dependency, so a boot whose last stage completes on
  // worker w runs on w. The static-shard baseline the benches compare
  // against.
  kStaticShards,
  // Stealing on (default): an idle worker takes the oldest task from
  // another worker's deque.
  kPipelined,
};

struct FleetBootOptions {
  std::vector<std::string> apps;  // Empty = the paper's top-20 list.
  size_t workers = 1;
  size_t rounds = 1;              // Each round boots every app once.
  Bytes memory = 512 * kMiB;
  // Optional, non-owning metric sink: per-boot `boot.to_init_ns{app}` /
  // `boot.phase_ns{phase}` / `vm.resident_peak_bytes` histograms, per-worker
  // `fleet.worker_resident_peak_bytes{worker}` gauges, fleet rollup gauges,
  // and — at the end of the run — the cache's PublishMetrics snapshot. Must
  // outlive the call; shared safely by all workers.
  telemetry::MetricRegistry* metrics = nullptr;
  // Optional, non-owning flight-recorder sink. Boot tasks emit structured
  // events (task-start, admit/reject, retry, deadline, quarantine-denied,
  // launch-failure, unretried, task-done) stamped with task-relative
  // virtual offsets — a pure function of (plan, seed, task index), so
  // Journal::ExportJsonl() is byte-identical across 1/2/4/8 workers like
  // the fault logs. Replay steal events land under source "sched" as
  // schedule-scoped events (full export / Perfetto only). Must outlive the
  // call; thread-safe.
  telemetry::Journal* journal = nullptr;
  // Optional, non-owning admission controller: every launch holds a Grant
  // for the VM's lifetime, so the whole fleet stays under the controller's
  // host budget (rejected launches count as failures).
  vmm::FleetAdmissionController* admission = nullptr;
  // Smallest RAM a degraded launch may be granted (0 = not degradable).
  Bytes min_memory = 0;

  // --- Resilience -----------------------------------------------------------
  // Per-task retry schedule: a failed attempt (boot or restore fault,
  // deadline kill) backs off deterministically and tries a fresh VM. The
  // default max_attempts=1 keeps the historical fail-once behavior. Each task
  // forks its jitter stream off (retry.seed, task index), so schedules are
  // identical however the fleet is sharded.
  RetryPolicy retry = {.max_attempts = 1};
  // Virtual-time limit on monitor start -> rootfs mounted, on the VM's own
  // clock (0 = unlimited). A boot that crosses it is treated as the monitor
  // killing the VM at that instant: the attempt fails with kTimedOut
  // (retryable), and the task is charged the deadline, not the stall (a
  // kBootStall fault inflates the decompress phase by 60 virtual seconds —
  // the deadline caps the damage). Restores have no boot and no deadline.
  Nanos boot_deadline = 0;
  // Optional fault schedule. Each boot task (round, app) owns a private
  // FaultInjector forked deterministically off plan.seed and the task index;
  // the injector survives the task's retries (a restarted VM continues the
  // schedule, it does not replay it), and per-task fault logs are returned
  // in task order — byte-identical across 1/2/4/8 workers. Must outlive the
  // call.
  const FaultPlan* fault_plan = nullptr;
  // Optional, non-owning snapshot store. With a store, the fleet plans
  // snapshot use up front: the first task per snapshot key
  // ({kernel fingerprint, rootfs key, RAM}) cold-boots and captures; every
  // later same-key task depends on that capture task in the schedule and
  // launches by restore instead of Boot(), so restore-vs-capture is a
  // property of the plan — byte-identical across worker counts — never a
  // lookup race. A key already resident in the store (pre-baked by a
  // previous run) skips the capture and restores everywhere. Restore
  // failures feed the store's drop-once-then-poison quarantine and the task
  // retries with a cold boot. Must outlive the call; thread-safe.
  SnapshotCache* snapshots = nullptr;

  // Worker scheduling policy (see FleetSchedule).
  FleetSchedule schedule = FleetSchedule::kPipelined;
};

struct FleetBootResult {
  size_t boots = 0;
  size_t failures = 0;
  Nanos virtual_makespan = 0;           // Replay makespan (latest completion).
  Nanos virtual_boot_total = 0;         // Sum of all task + provisioning costs.
  double boots_per_virtual_sec = 0.0;   // boots / virtual_makespan.
  double wall_ms = 0.0;                 // Host wall clock, informational.
  std::vector<Nanos> worker_virtual;    // Per-worker busy virtual time (replay).

  // Scheduler telemetry, all from the deterministic replay.
  size_t steals = 0;                      // Tasks that ran off-home.
  std::vector<size_t> worker_queue_peak;  // Max deque depth per worker.
  // Per-worker virtual timelines (one span per scheduler task, stages
  // included): the stage-overlap picture. telemetry::ToChromeTrace renders
  // them as a chrome://tracing / Perfetto document.
  std::vector<telemetry::SpanTrace> worker_timelines;

  // Memory rollups (Fig. 8 footprints, fleet-scale). A worker boots its
  // shard serially, so its concurrent residency is one VM: the per-worker
  // peak is its largest single-VM footprint.
  std::vector<Bytes> worker_resident_peak;  // Max VM peak per worker.
  Bytes fleet_resident_peak = 0;  // Sum of worker peaks (W VMs live at once);
                                  // with admission: the controller's
                                  // peak-committed bytes (true high water).
  Bytes fleet_resident_sum = 0;   // Sum of every VM's peak footprint.

  // Admission outcomes (all zero without a controller).
  size_t admitted = 0;   // Full-memory grants.
  size_t degraded = 0;   // min_memory grants.
  size_t rejected = 0;   // Never admitted; counted as failures too.
  size_t queue_waits = 0;  // Grants that blocked before being issued.

  // Resilience outcomes. `failures` stays what it was: tasks that never
  // completed (now: after retries were exhausted, denied or not worth it).
  size_t retries = 0;            // Re-attempts after retryable failures.
  size_t launch_failures = 0;    // Individual failed attempts (pre-retry).
  size_t deadline_exceeded = 0;  // Attempts killed by a stage deadline.
  size_t quarantined = 0;        // Launches denied by artifact quarantine.
  size_t recovered = 0;          // Tasks that failed at least once but completed.
  // Tasks that failed without a single retry because the error was
  // classified permanent (the observable for intentional fail-fast paths).
  size_t unretried_failures = 0;
  // Extra virtual time recovered tasks burned (failed attempts + backoffs):
  // divided by `recovered`, the fleet's mean virtual time-to-recovery.
  Nanos virtual_recovery_total = 0;

  // Snapshot/restore outcomes (all zero without options.snapshots).
  size_t snapshot_captures = 0;          // Cold boots that published a snapshot.
  size_t snapshot_restores = 0;          // Launches served by restore.
  size_t snapshot_restore_failures = 0;  // Restore attempts that failed.
  // Launch-cost split: to_init summed over restored vs cold-booted launches.
  // restore_total / restores vs coldboot_total / cold boots is the headline
  // "restore is N x cheaper than boot" figure.
  Nanos virtual_restore_total = 0;
  Nanos virtual_coldboot_total = 0;
  // One line per task, task order, only tasks whose injector fired:
  // "#<task> <app>: <site>@<evaluation>,...". Byte-identical across worker
  // counts for a given (plan, seed) — the replay-determinism contract.
  std::vector<std::string> fault_log;

  // Replay-derived counter tracks over the virtual timeline (tasks in
  // flight, resident bytes, cumulative boots) — the `ph:"C"` inputs to
  // telemetry::ToChromeTrace's merged Perfetto document.
  std::vector<telemetry::CounterSeries> counter_tracks;
};

// Boots `rounds` x `apps` VMs from `cache` artifacts on `workers` scheduler
// threads. Fails only when an artifact cannot be built at all; individual
// boot failures are counted in the result.
Result<FleetBootResult> RunFleetBoot(KernelCache& cache, const FleetBootOptions& options);

}  // namespace lupine::core

#endif  // SRC_CORE_FLEET_BOOT_H_
