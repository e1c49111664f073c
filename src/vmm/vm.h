// Vm: a monitor + kernel image + rootfs + RAM, bootable and runnable.
#ifndef SRC_VMM_VM_H_
#define SRC_VMM_VM_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/guestos/kernel.h"
#include "src/guestos/snapshot.h"
#include "src/kbuild/image.h"
#include "src/telemetry/span.h"
#include "src/util/fault.h"
#include "src/vmm/monitor.h"

namespace lupine::vmm {

struct VmSpec {
  MonitorProfile monitor;
  // The kernel image and the rootfs image, shared with every VM booted from
  // them: the kernel keeps the image pointer, and the rootfs image holds the
  // mounted tree every boot starts from.
  std::shared_ptr<const kbuild::KernelImage> image;
  std::shared_ptr<const guestos::RootfsImage> rootfs;
  Bytes memory = 512 * kMiB; // Guest RAM (the paper's default).
  // Non-owning fault injector threaded through the guest kernel. Lives
  // outside the Vm so its counters survive a supervisor restart (a fresh Vm
  // on the same injector continues the fault schedule rather than replaying
  // it). nullptr = no faults.
  FaultInjector* faults = nullptr;
  // Precomputed image-invariant boot plan shared by every VM booting this
  // image (KernelCache derives it once per kernel). nullptr = derive at boot.
  std::shared_ptr<const guestos::BootPlan> boot_plan;
};

// One boot-time line item, monitor and guest phases interleaved.
struct BootReport {
  std::vector<guestos::BootPhase> phases;
  Nanos total = 0;
  // Boot time as Firecracker logs it: from monitor start to the guest's
  // readiness I/O port write (init exec'd).
  Nanos to_init = 0;
};

class Vm {
 public:
  explicit Vm(VmSpec spec, const guestos::AppRegistry* registry = nullptr);

  // Monitor setup + guest kernel boot + init start. Init is the rootfs's
  // /sbin/init. On success the boot report is available.
  Status Boot();

  // Runs the guest to quiescence; returns init's exit code when it exited,
  // or an error description of what is still blocked (servers stay blocked).
  Result<int> RunToCompletion();

  guestos::Kernel& kernel() { return *kernel_; }
  const guestos::Kernel& kernel() const { return *kernel_; }
  const BootReport& boot_report() const { return report_; }
  const VmSpec& spec() const { return spec_; }

  // The boot as a span trace on the VM's virtual timeline: the monitor span,
  // every guest phase (decompress ... init-exec), and — once
  // RunToCompletion ran — an `app-main` span covering the application.
  const telemetry::SpanTrace& boot_spans() const { return spans_; }

  // The guest died of a panic (as opposed to exiting or still serving).
  bool crashed() const { return kernel_->panicked(); }

  // Convenience: full boot + run, reporting init's exit code and console.
  struct RunResult {
    Status status;
    int exit_code = -1;
    std::string console;
  };
  RunResult BootAndRun();

  // --- Snapshot/restore boot ------------------------------------------------
  // Builds a ready-to-run VM from a post-init snapshot at restore cost. The
  // state is re-materialized deterministically (replaying Boot+StartInit of
  // the snapshot's immutable inputs — identical state by construction) and
  // verified against the snapshot's state digest; then the virtual timeline
  // is rebased so boot_report().to_init == snapshot.restore_ns, the launch
  // cost a serving fleet actually pays. The host pays for the replay: a
  // restore costs a cold Boot() plus the digest (BM_VmRestore and
  // BM_VmColdBoot in bench/host_microbench). Neither mounts the rootfs
  // again: the guest's VFS starts from the tree the snapshot's RootfsImage
  // built once, and the digest reads that tree's cached hash. `faults`
  // (non-owning, optional) is consulted at FaultSite::kSnapshotRestore
  // before the replay — a corrupt memory file fails the restore with kIo
  // (retryable), and the caller should report the failure to its
  // SnapshotCache so the entry is quarantined. Digest mismatches fail kIo
  // the same way. The restored VM has never run a fiber, so it may be
  // parked and later run on any thread.
  static Result<std::unique_ptr<Vm>> Restore(const guestos::Snapshot& snapshot,
                                             FaultInjector* faults = nullptr,
                                             const guestos::AppRegistry* registry = nullptr);

  // This VM was built by Restore() rather than Boot().
  bool restored() const { return restored_; }

 private:
  VmSpec spec_;
  std::unique_ptr<guestos::Kernel> kernel_;
  guestos::Process* init_ = nullptr;
  BootReport report_;
  telemetry::SpanTrace spans_;
  bool restored_ = false;
};

// Finds the minimum guest RAM (in MiB granularity) with which `try_run`
// succeeds — the Fig. 8 memory-footprint methodology ("repeatedly testing
// the unikernel with a decreasing memory parameter").
Bytes MinMemoryProbe(Bytes low, Bytes high, const std::function<bool(Bytes)>& try_run);

}  // namespace lupine::vmm

#endif  // SRC_VMM_VM_H_
