// Vm: a monitor + kernel image + rootfs + RAM, bootable and runnable.
//
// Each fact of a boot has one home. The kernel's BootTrace lists the guest
// phases; the Vm keeps only its monitor phase and to_init (BootReport), and
// derives the boot's span view from both on demand. A snapshot is taken from
// the Vm itself (Capture), so it always names the image and rootfs the
// guest booted.
#ifndef SRC_VMM_VM_H_
#define SRC_VMM_VM_H_

#include <functional>
#include <memory>
#include <string>

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
};

// What a boot adds to the kernel's BootTrace, which holds every guest phase.
struct BootReport {
  // The host-side monitor phase, before the guest's first one (0 for a
  // restored VM).
  Nanos monitor = 0;
  // Boot time as Firecracker logs it: from monitor start to the guest's
  // readiness I/O port write (init exec'd), or the restore cost of a
  // restored VM.
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

  // The boot as a span trace on the VM's virtual timeline, built on each
  // call (bind it to a local before iterating its spans). A booted VM gives
  // the `monitor:<name>` span from 0, then one span per BootTrace phase
  // (decompress ... init-exec) back to back up to to_init; a restored VM
  // gives one `snapshot-restore` span over [0, to_init] instead, and a VM
  // whose Boot() failed gives none (its guest phases stay in the kernel's
  // boot_trace()). Once RunToCompletion ran, an `app-main` span covers its
  // latest run.
  telemetry::SpanTrace boot_spans() const;

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
  // Captures this VM's post-init state under the content key `key` (see
  // core::SnapshotCache::Key) and operator-facing label `app`, from the
  // kernel image and rootfs it booted. The guest must be booted, not
  // panicked, and must not have run yet; the snapshot's RAM is this VM's.
  Result<guestos::Snapshot> Capture(std::string key, std::string app) const;

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
  // The latest RunToCompletion's virtual run; end < 0 until one ran.
  Nanos main_start_ = 0;
  Nanos main_end_ = -1;
  bool restored_ = false;
};

// Finds the minimum guest RAM (in MiB granularity) with which `try_run`
// succeeds — the Fig. 8 memory-footprint methodology ("repeatedly testing
// the unikernel with a decreasing memory parameter").
Bytes MinMemoryProbe(Bytes low, Bytes high, const std::function<bool(Bytes)>& try_run);

}  // namespace lupine::vmm

#endif  // SRC_VMM_VM_H_
