#include "src/core/fleet_boot.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string_view>
#include <utility>

#include "src/kconfig/presets.h"
#include "src/util/scheduler.h"

namespace lupine::core {
namespace {

// One boot of one app. `index` is the task's global ordinal (round-major),
// which seeds its private fault injector and retrier — both are functions of
// the index alone, so outcomes are identical however tasks are scheduled.
struct BootTask {
  size_t index = 0;
  std::string app;
  // Snapshot plan (empty key = snapshots off for this task). `snapshot_capture`
  // marks the one task per key that cold-boots and publishes the snapshot;
  // every other same-key task restores (and depends on the capture task in
  // the schedule, so the lookup cannot race).
  std::string snapshot_key = {};
  bool snapshot_capture = false;
};

// Everything one boot task reports back. Each task body writes only its own
// slot, so no synchronization is needed beyond the scheduler's joins.
struct TaskOutcome {
  Nanos virtual_time = 0;
  size_t boots = 0;
  size_t failures = 0;
  Status status = Status::Ok();  // First artifact-build error, if any.
  Bytes resident_peak = 0;       // Largest single-VM footprint in the task.
  Bytes resident_sum = 0;        // Sum of VM peak footprints.
  size_t admitted = 0;
  size_t degraded = 0;
  size_t rejected = 0;
  size_t queue_waits = 0;
  size_t retries = 0;
  size_t launch_failures = 0;
  size_t deadline_exceeded = 0;
  size_t quarantined = 0;
  size_t recovered = 0;
  size_t unretried = 0;  // Permanent-error failures that never saw a retry.
  Nanos recovery_total = 0;
  size_t snapshot_captures = 0;
  size_t snapshot_restores = 0;
  size_t snapshot_restore_failures = 0;
  Nanos restore_total = 0;   // to_init over restored launches.
  Nanos coldboot_total = 0;  // to_init over cold-booted launches.
  std::vector<std::pair<size_t, std::string>> fault_logs;  // (task index, line).
};

// Flight-recorder emission for one boot task. `offset` is the task's
// accumulated virtual time at the event — a pure function of (plan, seed,
// task index), never of scheduling — so the journal's canonical export is
// byte-identical across worker counts.
void EmitTaskEvent(const FleetBootOptions& options, const BootTask& task, Nanos offset,
                   std::string_view type, std::vector<telemetry::Field> fields = {}) {
  if (options.journal == nullptr) {
    return;
  }
  std::vector<telemetry::Field> all;
  all.reserve(fields.size() + 2);
  all.push_back({"task", telemetry::FieldValue{static_cast<int64_t>(task.index)}});
  all.push_back({"app", telemetry::FieldValue{task.app}});
  for (telemetry::Field& field : fields) {
    all.push_back(std::move(field));
  }
  options.journal->Emit(offset, "fleet", type, std::move(all));
}

uint64_t TaskSeedFold(uint64_t seed, size_t index) {
  return seed ^ ((static_cast<uint64_t>(index) + 1) * 0x9E3779B97F4A7C15ull);
}

FaultInjector MakeTaskInjector(const FaultPlan* plan, size_t index,
                               const std::string& app) {
  if (plan == nullptr) {
    return FaultInjector();
  }
  // App-filtered rules first (a plan can skew one app's boots), then the
  // per-task seed fold. Both depend only on (plan, index, app), never on
  // which worker runs the task — the replay-determinism contract.
  FaultPlan forked = plan->ForApp(app);
  forked.seed = TaskSeedFold(plan->seed, index);
  return FaultInjector(forked);
}

std::string FormatFaultLog(const BootTask& task, const FaultInjector& injector) {
  std::string line = "#" + std::to_string(task.index) + " " + task.app + ":";
  const char* sep = " ";
  for (const FaultRecord& record : injector.log()) {
    line += sep;
    line += FaultSiteName(record.site);
    line += "@";
    line += std::to_string(record.evaluation);
    sep = ",";
  }
  return line;
}

Nanos InitExecNanos(const vmm::Vm& vm) {
  for (const guestos::BootPhase& phase : vm.kernel().boot_trace().phases) {
    if (phase.name == "init-exec") {
      return phase.duration;
    }
  }
  return 0;
}

// One launch attempt's verdict. kDenied attempts never consulted a VM
// (admission rejection, quarantine) and are not retried; kFatal aborts the
// whole fleet (an artifact that cannot be built at all).
struct AttemptResult {
  enum Kind { kSuccess, kFail, kDenied, kFatal };
  Kind kind = kFail;
  Status status = Status::Ok();
  Nanos charge = 0;     // Virtual time the failed attempt cost the task.
  bool report = false;  // Launch failure worth reporting to quarantine.
};

// One launch attempt: artifact fetch, admission, then restore or boot under
// the boot deadline, with counters landing in `outcome`.
AttemptResult RunBootAttempt(KernelCache& cache, const BootTask& task,
                             const FleetBootOptions& options, FaultInjector& injector,
                             Nanos offset, TaskOutcome& outcome) {
  AttemptResult result;
  auto artifact = cache.GetOrBuild(task.app);
  if (!artifact.ok()) {
    if (KernelCache::IsQuarantineDenial(artifact.status())) {
      ++outcome.quarantined;
      result.kind = AttemptResult::kDenied;
      EmitTaskEvent(options, task, offset, "quarantine-denied");
    } else if (IsRetryableError(artifact.status())) {
      ++outcome.launch_failures;
      result.kind = AttemptResult::kFail;
      EmitTaskEvent(options, task, offset, "launch-failure",
                    {{"error", telemetry::FieldValue{artifact.status().ToString()}}});
    } else {
      result.kind = AttemptResult::kFatal;
    }
    result.status = artifact.status();
    return result;
  }
  // The grant is declared before the VM so the VM is destroyed first and
  // the bytes return to the budget only once the guest is really gone.
  vmm::Grant grant;
  Bytes memory = options.memory;
  if (options.admission != nullptr) {
    grant = options.admission->Admit({task.app, options.memory, options.min_memory});
    if (!grant.valid()) {
      ++outcome.rejected;
      result.kind = AttemptResult::kDenied;
      result.status = Status(Err::kNoMem, "admission rejected " + task.app);
      EmitTaskEvent(options, task, offset, "reject");
      return result;
    }
    grant.degraded() ? ++outcome.degraded : ++outcome.admitted;
    if (grant.waited()) {
      ++outcome.queue_waits;
    }
    memory = grant.granted();
    EmitTaskEvent(options, task, offset, "admit",
                  {{"degraded", telemetry::FieldValue{grant.degraded()}},
                   {"waited", telemetry::FieldValue{grant.waited()}},
                   {"granted_bytes", telemetry::FieldValue{static_cast<uint64_t>(memory)}}});
  }

  std::unique_ptr<vmm::Vm> vm;
  SnapshotCache::SnapshotPtr snapshot;
  if (options.snapshots != nullptr && !task.snapshot_key.empty() &&
      !task.snapshot_capture) {
    snapshot = options.snapshots->Find(task.snapshot_key);
    if (snapshot != nullptr && snapshot->memory != memory) {
      snapshot = nullptr;  // A degraded grant cannot hold the full-RAM image.
    }
  }
  if (snapshot != nullptr) {
    // Warm launch: re-materialize the captured post-init state at restore
    // cost. The boot deadline does not apply (there is no boot); a failed
    // restore is charged the modeled restore cost, feeds the store's
    // drop-once-then-poison quarantine, and the retry cold-boots (the
    // suspect entry is gone by then).
    auto restored = vmm::Vm::Restore(*snapshot, injector.armed() ? &injector : nullptr);
    if (!restored.ok()) {
      options.snapshots->RecordRestore(*snapshot, false);
      options.snapshots->ReportRestoreFailure(task.snapshot_key);
      ++outcome.snapshot_restore_failures;
      ++outcome.launch_failures;
      result.kind = AttemptResult::kFail;
      result.status = restored.status();
      result.charge = snapshot->restore_ns;
      EmitTaskEvent(options, task, offset + result.charge, "launch-failure",
                    {{"error", telemetry::FieldValue{restored.status().ToString()}}});
      return result;
    }
    options.snapshots->RecordRestore(*snapshot, true);
    ++outcome.snapshot_restores;
    vm = restored.take();
    EmitTaskEvent(options, task, offset + vm->boot_report().to_init, "snapshot-restore",
                  {{"restore_ns",
                    telemetry::FieldValue{static_cast<uint64_t>(snapshot->restore_ns)}}});
  } else {
    vm = (*artifact)->Launch(memory, injector.armed() ? &injector : nullptr);
    DeadlineGuard boot_guard(vm->kernel().clock(), options.boot_deadline);
    if (Status s = vm->Boot(); !s.ok()) {
      // Failed boots charge the task the virtual instant the guest died —
      // or the deadline, had the monitor's timer fired first.
      ++outcome.launch_failures;
      result.kind = AttemptResult::kFail;
      result.status = s;
      result.charge = boot_guard.charged();
      result.report = true;
      if (boot_guard.expired()) {
        ++outcome.deadline_exceeded;
        EmitTaskEvent(options, task, offset + result.charge, "deadline",
                      {{"stage", telemetry::FieldValue{std::string("boot")}}});
      }
      EmitTaskEvent(options, task, offset + result.charge, "launch-failure",
                    {{"error", telemetry::FieldValue{s.ToString()}}});
      return result;
    }
    const Nanos boot_ns = vm->boot_report().to_init - InitExecNanos(*vm);
    if (Status s = DeadlineGuard::CheckElapsed("boot", options.boot_deadline, boot_ns);
        !s.ok()) {
      // The boot overran its deadline: the monitor would have killed the VM
      // at that instant (a kBootStall wedge costs the deadline, not 60s).
      ++outcome.deadline_exceeded;
      ++outcome.launch_failures;
      result.kind = AttemptResult::kFail;
      result.status = s;
      result.charge = options.boot_deadline;
      result.report = true;  // An artifact that stalls every boot is a bad artifact.
      EmitTaskEvent(options, task, offset + result.charge, "deadline",
                    {{"stage", telemetry::FieldValue{std::string("boot")}}});
      return result;
    }

    // Capture: publish this cold boot's post-init state. The guest is
    // paused while the monitor serializes its memory, so the cost lands on
    // the task's timeline, not the guest clock.
    if (options.snapshots != nullptr && task.snapshot_capture &&
        !options.snapshots->Contains(task.snapshot_key)) {
      auto captured = vm->Capture(task.snapshot_key, task.app);
      if (captured.ok()) {
        const Nanos capture_ns = captured.value().capture_ns;
        options.snapshots->Put(captured.take());
        ++outcome.snapshot_captures;
        outcome.virtual_time += capture_ns;
        EmitTaskEvent(options, task, offset + vm->boot_report().to_init + capture_ns,
                      "snapshot-capture",
                      {{"capture_ns", telemetry::FieldValue{static_cast<uint64_t>(capture_ns)}}});
      }
    }
  }

  result.kind = AttemptResult::kSuccess;
  ++outcome.boots;
  outcome.virtual_time += vm->boot_report().to_init;
  // Launch-cost split: a restored VM's to_init is its restore cost.
  (vm->restored() ? outcome.restore_total : outcome.coldboot_total) +=
      vm->boot_report().to_init;
  const Bytes peak = vm->kernel().mm().peak();
  outcome.resident_sum += peak;
  outcome.resident_peak = std::max(outcome.resident_peak, peak);
  if (options.metrics != nullptr) {
    options.metrics->GetHistogram("boot.to_init_ns", {{"app", task.app}})
        .Observe(static_cast<double>(vm->boot_report().to_init));
    const telemetry::SpanTrace spans = vm->boot_spans();
    for (const telemetry::Span& span : spans.spans()) {
      options.metrics->GetHistogram("boot.phase_ns", {{"phase", span.name}})
          .Observe(static_cast<double>(span.duration()));
    }
    options.metrics->GetHistogram("vm.resident_peak_bytes")
        .Observe(static_cast<double>(peak));
  }
  return result;
}

// One boot task end to end: the retry loop around RunBootAttempt, with
// quarantine feedback and recovery accounting. The VM of every attempt is
// created and destroyed inside this call, on the one worker thread running
// it (fibers are thread-local; migration happens before the task starts,
// never mid-boot).
void RunBootTask(KernelCache& cache, const BootTask& task,
                 const FleetBootOptions& options, TaskOutcome& outcome) {
  FaultInjector injector = MakeTaskInjector(options.fault_plan, task.index, task.app);
  Retrier retrier(options.retry, task.index);
  Nanos recovery = 0;  // Failed-attempt charges + backoff delays.
  Nanos elapsed = 0;   // Task-relative virtual offset for journal events.
  bool completed = false;
  EmitTaskEvent(options, task, 0, "task-start");
  for (int attempt = 0;; ++attempt) {
    AttemptResult result = RunBootAttempt(cache, task, options, injector, elapsed, outcome);
    if (result.kind == AttemptResult::kFatal) {
      outcome.status = result.status;
      return;
    }
    if (result.kind == AttemptResult::kSuccess) {
      completed = true;
      break;
    }
    if (result.kind == AttemptResult::kDenied) {
      break;
    }
    outcome.virtual_time += result.charge;
    recovery += result.charge;
    elapsed += result.charge;
    if (result.report) {
      cache.ReportLaunchFailure(task.app);
    }
    Retrier::Decision decision = retrier.OnFailure(result.status);
    if (!decision.retry) {
      if (std::string_view(decision.reason) == "permanent-error") {
        // The failure never entered the retry schedule: surface it instead
        // of letting it hide inside the aggregate failure count.
        ++outcome.unretried;
        EmitTaskEvent(options, task, elapsed, "unretried",
                      {{"error", telemetry::FieldValue{result.status.ToString()}}});
      }
      break;
    }
    ++outcome.retries;
    EmitTaskEvent(options, task, elapsed, "retry",
                  {{"attempt", telemetry::FieldValue{static_cast<int64_t>(attempt + 1)}},
                   {"delay_ns", telemetry::FieldValue{static_cast<int64_t>(decision.delay)}}});
    outcome.virtual_time += decision.delay;
    recovery += decision.delay;
    elapsed += decision.delay;
  }
  if (completed) {
    if (retrier.failures() > 0) {
      ++outcome.recovered;
      outcome.recovery_total += recovery;
    }
  } else {
    ++outcome.failures;
  }
  EmitTaskEvent(options, task, outcome.virtual_time, "task-done",
                {{"ok", telemetry::FieldValue{completed}},
                 {"attempts", telemetry::FieldValue{static_cast<int64_t>(retrier.failures()) +
                                                    (completed ? 1 : 0)}},
                 {"recovered", telemetry::FieldValue{completed && retrier.failures() > 0}}});
  if (injector.total_fires() > 0) {
    outcome.fault_logs.emplace_back(task.index, FormatFaultLog(task, injector));
  }
}

}  // namespace

Result<FleetBootResult> RunFleetBoot(KernelCache& cache, const FleetBootOptions& options) {
  const std::vector<std::string>& apps =
      options.apps.empty() ? kconfig::Top20AppNames() : options.apps;
  const size_t workers = std::max<size_t>(1, options.workers);
  const size_t rounds = std::max<size_t>(1, options.rounds);

  // The task list, round-major. Each task keeps its global ordinal: fault
  // schedules and retry jitter key off it, not off the worker, so those are
  // invariant across worker counts and schedules.
  std::vector<BootTask> boot_tasks;
  boot_tasks.reserve(rounds * apps.size());
  {
    size_t index = 0;
    for (size_t r = 0; r < rounds; ++r) {
      for (const std::string& app : apps) {
        boot_tasks.push_back({index, app});
        ++index;
      }
    }
  }

  // Stage plans, one per distinct app, computed serially up front. Pure
  // planning: stats and quarantine are untouched. This is also where an
  // unbuildable app (no manifest) fails the fleet before anything runs.
  std::map<std::string, KernelCache::ProvisionPlan> plans;
  for (const BootTask& task : boot_tasks) {
    if (plans.count(task.app) > 0) {
      continue;
    }
    auto plan = cache.PlanProvisioning(task.app);
    if (!plan.ok()) {
      return plan.status();
    }
    plans.emplace(task.app, plan.take());
  }

  // Snapshot plan: the globally-first task per snapshot key captures; later
  // same-key tasks restore and will depend on the capture task. A key
  // already resident (pre-baked store) restores everywhere with no capture
  // and no dep. Decided here, serially, so restore-vs-capture is a function
  // of the plan — never of which worker won a cache race.
  std::map<std::string, size_t> capture_owner;  // key -> capturing task index.
  if (options.snapshots != nullptr) {
    for (BootTask& task : boot_tasks) {
      const KernelCache::ProvisionPlan& plan = plans.at(task.app);
      task.snapshot_key =
          SnapshotCache::Key(plan.fingerprint, plan.rootfs_key, options.memory);
      if (options.snapshots->Contains(task.snapshot_key)) {
        continue;  // Restore with no dep.
      }
      auto [it, fresh] = capture_owner.try_emplace(task.snapshot_key, task.index);
      task.snapshot_capture = fresh;
    }
  }

  const auto wall_start = std::chrono::steady_clock::now();

  WorkStealingScheduler::Options sched_options;
  sched_options.workers = workers;
  sched_options.stealing = options.schedule == FleetSchedule::kPipelined;
  WorkStealingScheduler scheduler(sched_options);

  // Provisioning stages: one kernel task per distinct cold fingerprint, then
  // one rootfs task per distinct cold rootfs key, homed round-robin. Every
  // launch task depends on its app's stages, so cold provisioning overlaps
  // across workers in both schedules.
  std::map<std::string, size_t> kernel_stage;  // fingerprint -> task id.
  std::map<std::string, size_t> rootfs_stage;  // rootfs key -> task id.
  // Modeled virtual provisioning charged this run (the stage tasks) — part
  // of virtual_boot_total so schedule comparisons add up.
  Nanos provisioning_virtual = 0;
  size_t ordinal = 0;
  // Stage failures surface through the dependent launches' GetOrBuild, which
  // classifies them (retryable / fatal) like any launch.
  auto submit_stage = [&](std::map<std::string, size_t>& stages, const std::string& key,
                          std::string label, Nanos cost, std::function<void()> work) {
    if (stages.count(key) > 0) {
      return;
    }
    WorkStealingScheduler::TaskSpec spec;
    spec.body = [work = std::move(work), cost] {
      work();
      return cost;
    };
    spec.label = std::move(label);
    spec.home = static_cast<int>(ordinal++ % workers);
    stages.emplace(key, scheduler.Submit(std::move(spec)));
    provisioning_virtual += cost;
  };
  for (const BootTask& task : boot_tasks) {
    const KernelCache::ProvisionPlan& plan = plans.at(task.app);
    if (!plan.kernel_cached) {
      submit_stage(kernel_stage, plan.fingerprint, "build:" + task.app, plan.kernel_cost,
                   [&cache, app = task.app] { (void)cache.PrewarmKernel(app); });
    }
  }
  for (const BootTask& task : boot_tasks) {
    const KernelCache::ProvisionPlan& plan = plans.at(task.app);
    if (!plan.rootfs_cached) {
      submit_stage(rootfs_stage, plan.rootfs_key, "rootfs:" + task.app, plan.rootfs_cost,
                   [&cache, app = task.app] { (void)cache.PrewarmRootfs(app); });
    }
  }

  // One launch task per boot. Outcome slots are sized before any Submit so
  // the bodies' pointers into the vector stay stable; `sched_ids[index]`
  // maps a boot task to its scheduler task for replay-worker attribution.
  std::vector<TaskOutcome> outcomes(boot_tasks.size());
  std::vector<size_t> sched_ids(boot_tasks.size());
  std::atomic<bool> fatal{false};
  for (const BootTask& task : boot_tasks) {
    WorkStealingScheduler::TaskSpec spec;
    TaskOutcome* slot = &outcomes[task.index];
    spec.body = [&cache, &options, &fatal, slot, task] {
      if (fatal.load(std::memory_order_relaxed)) {
        return Nanos{0};  // Result is discarded on fatal; skip the work.
      }
      RunBootTask(cache, task, options, *slot);
      if (!slot->status.ok()) {
        fatal.store(true, std::memory_order_relaxed);
      }
      return slot->virtual_time;
    };
    spec.label = task.app + "#" + std::to_string(task.index);
    spec.home = static_cast<int>(task.index % workers);
    const KernelCache::ProvisionPlan& plan = plans.at(task.app);
    if (!plan.kernel_cached) {
      spec.deps.push_back(kernel_stage.at(plan.fingerprint));
    }
    if (!plan.rootfs_cached) {
      spec.deps.push_back(rootfs_stage.at(plan.rootfs_key));
    }
    // Restore tasks run after their key's capture task (boot tasks are
    // submitted in index order, so the capture task's scheduler id is
    // already known).
    if (!task.snapshot_key.empty() && !task.snapshot_capture) {
      auto owner = capture_owner.find(task.snapshot_key);
      if (owner != capture_owner.end() && owner->second != task.index) {
        spec.deps.push_back(sched_ids[owner->second]);
      }
    }
    sched_ids[task.index] = scheduler.Submit(std::move(spec));
  }

  WorkStealingScheduler::Report report = scheduler.Run();

  // First fatal status in task order wins (deterministic, unlike the host
  // race over which body noticed first).
  for (const TaskOutcome& outcome : outcomes) {
    if (!outcome.status.ok()) {
      return outcome.status;
    }
  }

  FleetBootResult result;
  std::vector<std::pair<size_t, std::string>> fault_logs;
  for (const TaskOutcome& outcome : outcomes) {
    result.boots += outcome.boots;
    result.failures += outcome.failures;
    result.virtual_boot_total += outcome.virtual_time;
    result.fleet_resident_sum += outcome.resident_sum;
    result.admitted += outcome.admitted;
    result.degraded += outcome.degraded;
    result.rejected += outcome.rejected;
    result.queue_waits += outcome.queue_waits;
    result.retries += outcome.retries;
    result.launch_failures += outcome.launch_failures;
    result.deadline_exceeded += outcome.deadline_exceeded;
    result.quarantined += outcome.quarantined;
    result.recovered += outcome.recovered;
    result.unretried_failures += outcome.unretried;
    result.virtual_recovery_total += outcome.recovery_total;
    result.snapshot_captures += outcome.snapshot_captures;
    result.snapshot_restores += outcome.snapshot_restores;
    result.snapshot_restore_failures += outcome.snapshot_restore_failures;
    result.virtual_restore_total += outcome.restore_total;
    result.virtual_coldboot_total += outcome.coldboot_total;
    fault_logs.insert(fault_logs.end(), outcome.fault_logs.begin(),
                      outcome.fault_logs.end());
  }
  result.virtual_boot_total += provisioning_virtual;

  // Replay-derived scheduling figures: makespan, per-worker busy time,
  // steals, queue peaks, and the per-worker span timelines.
  result.virtual_makespan = report.makespan;
  result.worker_virtual = report.worker_busy;
  result.steals = report.steals;
  result.worker_queue_peak = report.worker_queue_peak;
  result.worker_timelines.resize(workers);
  {
    std::vector<std::vector<const WorkStealingScheduler::TaskRecord*>> by_worker(workers);
    for (const WorkStealingScheduler::TaskRecord& record : report.tasks) {
      by_worker[static_cast<size_t>(record.worker)].push_back(&record);
    }
    for (size_t w = 0; w < workers; ++w) {
      std::sort(by_worker[w].begin(), by_worker[w].end(),
                [](const auto* a, const auto* b) {
                  return a->start != b->start ? a->start < b->start : a->id < b->id;
                });
      for (const auto* record : by_worker[w]) {
        result.worker_timelines[w].Record(record->label, record->start, record->end);
      }
    }
  }

  // Replay steal events: genuinely schedule-dependent (one worker never
  // steals), so they ride in the journal as schedule-scoped — part of the
  // full Perfetto record, excluded from the canonical deterministic export.
  if (options.journal != nullptr) {
    for (const WorkStealingScheduler::TaskRecord& record : report.tasks) {
      if (!record.stolen) {
        continue;
      }
      telemetry::Event event;
      event.at = record.start;
      event.source = "sched";
      event.type = "steal";
      event.schedule_scoped = true;
      event.fields = {{"label", telemetry::FieldValue{record.label}},
                      {"worker", telemetry::FieldValue{static_cast<int64_t>(record.worker)}}};
      options.journal->Emit(std::move(event));
    }
  }

  // Counter tracks over the replay timeline (ph:"C" inputs for the merged
  // Perfetto trace): tasks in flight, resident bytes, cumulative boots.
  {
    std::vector<std::pair<Nanos, double>> inflight;
    std::vector<std::pair<Nanos, double>> resident;
    std::vector<std::pair<Nanos, double>> cumulative;
    for (size_t slot = 0; slot < outcomes.size(); ++slot) {
      const WorkStealingScheduler::TaskRecord& record = report.tasks[sched_ids[slot]];
      inflight.emplace_back(record.start, 1.0);
      inflight.emplace_back(record.end, -1.0);
      const double peak = static_cast<double>(outcomes[slot].resident_peak);
      if (peak > 0.0) {
        resident.emplace_back(record.start, peak);
        resident.emplace_back(record.end, -peak);
      }
      if (outcomes[slot].boots > 0) {
        cumulative.emplace_back(record.end, static_cast<double>(outcomes[slot].boots));
      }
    }
    result.counter_tracks.push_back(
        telemetry::FoldCounterDeltas("fleet.tasks_inflight", std::move(inflight)));
    result.counter_tracks.push_back(
        telemetry::FoldCounterDeltas("fleet.resident_bytes", std::move(resident)));
    result.counter_tracks.push_back(
        telemetry::FoldCounterDeltas("fleet.boots_cumulative", std::move(cumulative)));
  }

  // Memory rollups, attributed to the replay's worker assignment: host
  // concurrency is W threads, so "one VM per worker at a time" still holds.
  result.worker_resident_peak.assign(workers, 0);
  for (size_t slot = 0; slot < outcomes.size(); ++slot) {
    const size_t w = static_cast<size_t>(report.tasks[sched_ids[slot]].worker);
    result.worker_resident_peak[w] =
        std::max(result.worker_resident_peak[w], outcomes[slot].resident_peak);
  }
  for (Bytes peak : result.worker_resident_peak) {
    result.fleet_resident_peak += peak;
  }

  // Fault logs merge in task order, independent of scheduling.
  std::sort(fault_logs.begin(), fault_logs.end());
  result.fault_log.reserve(fault_logs.size());
  for (auto& [index, line] : fault_logs) {
    result.fault_log.push_back(std::move(line));
  }
  if (options.admission != nullptr) {
    // The controller saw every concurrent grant — its high-water mark beats
    // the sum-of-worker-peaks approximation.
    result.fleet_resident_peak = options.admission->stats().peak_committed;
  }
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  if (result.virtual_makespan > 0) {
    result.boots_per_virtual_sec = static_cast<double>(result.boots) /
                                   (static_cast<double>(result.virtual_makespan) / 1e9);
  }
  if (options.metrics != nullptr) {
    for (size_t w = 0; w < result.worker_resident_peak.size(); ++w) {
      options.metrics
          ->GetGauge("fleet.worker_resident_peak_bytes", {{"worker", std::to_string(w)}})
          .Set(static_cast<int64_t>(result.worker_resident_peak[w]));
    }
    options.metrics->GetGauge("fleet.resident_peak_bytes")
        .Set(static_cast<int64_t>(result.fleet_resident_peak));
    options.metrics->GetGauge("fleet.resident_sum_bytes")
        .Set(static_cast<int64_t>(result.fleet_resident_sum));
    options.metrics->GetGauge("fleet.boots").Set(static_cast<int64_t>(result.boots));
    options.metrics->GetGauge("fleet.failures").Set(static_cast<int64_t>(result.failures));
    options.metrics->GetGauge("fleet.retries").Set(static_cast<int64_t>(result.retries));
    options.metrics->GetGauge("fleet.launch_failures")
        .Set(static_cast<int64_t>(result.launch_failures));
    options.metrics->GetGauge("fleet.deadline_exceeded")
        .Set(static_cast<int64_t>(result.deadline_exceeded));
    options.metrics->GetGauge("fleet.quarantined")
        .Set(static_cast<int64_t>(result.quarantined));
    options.metrics->GetGauge("fleet.recovered").Set(static_cast<int64_t>(result.recovered));
    options.metrics->GetGauge("fleet.unretried_failures")
        .Set(static_cast<int64_t>(result.unretried_failures));
    options.metrics->GetGauge("fleet.snapshot_captures")
        .Set(static_cast<int64_t>(result.snapshot_captures));
    options.metrics->GetGauge("fleet.snapshot_restores")
        .Set(static_cast<int64_t>(result.snapshot_restores));
    options.metrics->GetGauge("fleet.snapshot_restore_failures")
        .Set(static_cast<int64_t>(result.snapshot_restore_failures));
    options.metrics->GetGauge("fleet.steals").Set(static_cast<int64_t>(result.steals));
    for (size_t w = 0; w < result.worker_queue_peak.size(); ++w) {
      options.metrics
          ->GetGauge("fleet.worker_queue_peak", {{"worker", std::to_string(w)}})
          .Set(static_cast<int64_t>(result.worker_queue_peak[w]));
    }
    cache.PublishMetrics(*options.metrics);
    if (options.snapshots != nullptr) {
      options.snapshots->PublishMetrics(*options.metrics);
    }
  }
  return result;
}

}  // namespace lupine::core
