#include "src/vmm/vm.h"

#include <functional>

namespace lupine::vmm {

Vm::Vm(VmSpec spec, const guestos::AppRegistry* registry)
    : spec_(std::move(spec)),
      kernel_(std::make_unique<guestos::Kernel>(spec_.image, spec_.memory, registry,
                                                spec_.faults)) {}

Status Vm::Boot() {
  // Host-side monitor phase; the guest's phases land in the kernel's
  // BootTrace on the same virtual timeline, right after it.
  report_.monitor = MonitorSetupTime(spec_.monitor, spec_.image->size);
  kernel_->clock().Advance(report_.monitor);

  // Guest-side boot. A PCI-enabled kernel on a PCI-less monitor skips
  // enumeration; our feature check happens in the kernel, which prices PCI
  // enumeration only when configured (and QEMU-style monitors always expose
  // the bus, so the config decides).
  if (Status s = kernel_->Boot(*spec_.rootfs); !s.ok()) {
    return s;
  }

  // Start init (the application-specific startup script).
  auto init = kernel_->StartInit("/sbin/init");
  if (!init.ok()) {
    return init.status();
  }
  init_ = init.value();
  report_.to_init = report_.monitor + kernel_->boot_trace().Total();
  return Status::Ok();
}

telemetry::SpanTrace Vm::boot_spans() const {
  telemetry::SpanTrace spans;
  if (restored_) {
    spans.AddPhase("snapshot-restore", report_.to_init);
  } else if (init_ != nullptr) {
    spans.AddPhase("monitor:" + spec_.monitor.name, report_.monitor);
    for (const guestos::BootPhase& phase : kernel_->boot_trace().phases) {
      spans.AddPhase(phase.name, phase.duration);
    }
  }
  if (main_end_ >= 0) {
    spans.Record("app-main", main_start_, main_end_);
  }
  return spans;
}

Result<int> Vm::RunToCompletion() {
  if (init_ == nullptr) {
    return Status(Err::kInval, "VM not booted");
  }
  main_start_ = kernel_->clock().now();
  size_t blocked = kernel_->Run();
  main_end_ = kernel_->clock().now();
  if (kernel_->oom()) {
    return Status(Err::kNoMem, "guest ran out of memory");
  }
  if (kernel_->panicked()) {
    return Status(Err::kFault, "kernel panic: " + kernel_->panic_reason());
  }
  if (init_->exited) {
    return init_->exit_code;
  }
  return Status(Err::kAgain,
                std::to_string(blocked) + " guest thread(s) still blocked (server running)");
}

Result<guestos::Snapshot> Vm::Capture(std::string key, std::string app) const {
  if (kernel_->panicked()) {
    return Status(Err::kInval, "cannot snapshot a panicked guest");
  }
  if (kernel_->ProcessCount() == 0) {
    return Status(Err::kInval, "cannot snapshot before init started");
  }
  if (spec_.image == nullptr || spec_.rootfs == nullptr) {
    return Status(Err::kInval, "snapshot needs the kernel image and rootfs blob");
  }
  guestos::Snapshot snapshot;
  snapshot.key = std::move(key);
  snapshot.app = std::move(app);
  snapshot.kernel = spec_.image;
  snapshot.rootfs = spec_.rootfs;
  snapshot.memory = kernel_->mm().limit();
  snapshot.captured_bytes = kernel_->mm().peak();
  snapshot.capture_ns = guestos::SnapshotCaptureCost(kernel_->costs(), snapshot.captured_bytes);
  snapshot.restore_ns = guestos::SnapshotRestoreCost(kernel_->costs(), snapshot.captured_bytes);
  snapshot.state_digest = guestos::KernelStateDigest(*kernel_);
  return snapshot;
}

Result<std::unique_ptr<Vm>> Vm::Restore(const guestos::Snapshot& snapshot,
                                        FaultInjector* faults,
                                        const guestos::AppRegistry* registry) {
  if (snapshot.kernel == nullptr || snapshot.rootfs == nullptr) {
    return Status(Err::kInval, "snapshot is missing its immutable inputs");
  }
  // The memory file itself is the restore's failure surface (the replayed
  // boot already succeeded once): a corruption fault kills the restore
  // before any state is rebuilt.
  if (faults != nullptr && faults->Check(FaultSite::kSnapshotRestore)) {
    return Status(Err::kIo, "snapshot restore failed: memory file corrupt (" +
                                snapshot.key + ")");
  }

  VmSpec spec;
  spec.monitor = Firecracker();
  spec.image = snapshot.kernel;
  spec.rootfs = snapshot.rootfs;
  spec.memory = snapshot.memory;
  // No injector is threaded into the replay: the boot being re-materialized
  // is one that completed cleanly at capture time.
  auto vm = std::make_unique<Vm>(std::move(spec), registry);
  if (Status s = vm->Boot(); !s.ok()) {
    return Status(Err::kIo, "snapshot restore failed: re-materialization: " + s.ToString());
  }
  const uint64_t digest = guestos::KernelStateDigest(vm->kernel());
  if (digest != snapshot.state_digest) {
    return Status(Err::kIo, "snapshot restore failed: state digest mismatch (" +
                                snapshot.key + ")");
  }

  // Rebase the timeline: the replay charged full boot cost, but the restored
  // instance launches at restore cost. No fiber has run yet, so no absolute
  // deadline references the old timeline.
  vm->kernel_->clock().Rewind(snapshot.restore_ns);
  vm->report_ = BootReport{.monitor = 0, .to_init = snapshot.restore_ns};
  vm->restored_ = true;
  return vm;
}

Vm::RunResult Vm::BootAndRun() {
  RunResult result;
  result.status = Boot();
  if (!result.status.ok()) {
    result.console = kernel_->console().contents();
    return result;
  }
  auto run = RunToCompletion();
  if (run.ok()) {
    result.exit_code = run.value();
  } else {
    result.status = run.status();
  }
  result.console = kernel_->console().contents();
  return result;
}

Bytes MinMemoryProbe(Bytes low, Bytes high, const std::function<bool(Bytes)>& try_run) {
  // Round to whole MiB like the monitor's --mem-size flag.
  uint64_t lo = low / kMiB;
  uint64_t hi = high / kMiB;
  if (!try_run(hi * kMiB)) {
    return 0;  // Does not even run at the ceiling.
  }
  while (lo < hi) {
    uint64_t mid = (lo + hi) / 2;
    if (try_run(mid * kMiB)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return hi * kMiB;
}

}  // namespace lupine::vmm
