#include "src/guestos/kernel.h"

#include <cassert>
#include <optional>

#include "src/guestos/syscall_api.h"

namespace lupine::guestos {
namespace {

// Fraction of the kernel image resident after boot: cold init text and
// never-used paths are reclaimed / stay unmapped, so resident size scales
// with image size but below 1:1.
constexpr double kResidentFraction = 0.72;

// Boot-time floor independent of config: slab caches, per-CPU areas,
// network buffers, and the resident page cache of the base rootfs (libc,
// busybox) that every Alpine-derived guest touches. Calibrated so the
// hello-world footprints land at the paper's ~21 MB (lupine) / ~29 MB
// (microVM) with the kernel-image-dependent part on top.
constexpr Bytes kSlabBase = 17 * kMiB;

// The process-wide null injector backing every kernel built without a fault
// plan; Check() on it is a single always-false branch.
FaultInjector& NullFaultInjector() {
  static FaultInjector null;
  return null;
}

// Initcalls: every built-in option contributes initialization work; the
// per-category costs make driver-heavy configs (microVM) pay most.
Nanos InitcallCost(const kbuild::KernelFeatures& f, const CostModel& costs) {
  size_t categorized = f.driver_options + f.net_options + f.fs_options + f.crypto_options +
                       f.debug_options;
  size_t other = f.enabled_options > categorized ? f.enabled_options - categorized : 0;
  Nanos initcalls = 0;
  initcalls += static_cast<Nanos>(f.driver_options) * costs.boot_initcall_driver;
  initcalls += static_cast<Nanos>(f.net_options) * costs.boot_initcall_net;
  initcalls += static_cast<Nanos>(f.fs_options) * costs.boot_initcall_fs;
  initcalls += static_cast<Nanos>(f.crypto_options) * costs.boot_initcall_crypto;
  initcalls += static_cast<Nanos>(f.debug_options) * costs.boot_initcall_debug;
  initcalls += static_cast<Nanos>(other) * costs.boot_initcall_other;
  if (f.acpi) {
    initcalls += costs.boot_acpi_tables;
  }
  return initcalls;
}

}  // namespace

Nanos BootTrace::Total() const {
  Nanos total = 0;
  for (const auto& phase : phases) {
    total += phase.duration;
  }
  return total;
}

Kernel::Kernel(std::shared_ptr<const kbuild::KernelImage> image, Bytes memory_limit,
               const AppRegistry* registry, FaultInjector* faults)
    : image_(std::move(image)),
      costs_(&DefaultCostModel()),
      registry_(registry != nullptr ? registry : &AppRegistry::Global()),
      faults_(faults != nullptr ? faults : &NullFaultInjector()),
      mm_(std::make_unique<MemoryManager>(memory_limit)),
      sched_(std::make_unique<Scheduler>(&clock_, costs_, &image_->features)),
      net_(std::make_unique<NetStack>(sched_.get())),
      futexes_(std::make_unique<FutexTable>(sched_.get())),
      sys_(std::make_unique<SyscallApi>(this)) {
  mm_->set_fault_injector(faults_);
  net_->set_fault_injector(faults_);
}

Kernel::~Kernel() = default;

void Kernel::Phase(const char* name, Nanos duration) {
  clock_.Advance(duration);
  boot_trace_.phases.push_back({name, duration});
}

Status Kernel::Boot(const RootfsImage& rootfs) {
  const kbuild::KernelFeatures& f = image_->features;

  // Resident kernel memory (text + data + static structures).
  const Bytes resident =
      static_cast<Bytes>(static_cast<double>(image_->size) * kResidentFraction) + kSlabBase;
  if (Status s = mm_->AllocatePages(PagesForBytes(resident), "kernel-resident"); !s.ok()) {
    oom_ = true;
    return s;
  }

  // Decompress/relocate the image.
  Phase("decompress", static_cast<Nanos>(ToMiB(image_->size) *
                                         static_cast<double>(costs_->boot_decompress_per_mb)));
  if (faults_->Check(FaultSite::kBootDecompress)) {
    console_.Write("crc error\n\n-- System halted\n");
    return Status(Err::kIo, "kernel decompression failed: crc error");
  }
  if (faults_->Check(FaultSite::kBootStall)) {
    // The decompressor wedges but eventually limps through: boot still
    // succeeds, only after a virtual stall no monitor should sit out. This
    // is the failure mode stage deadlines exist for — without one the shard
    // absorbs the whole stall; with one the monitor kills at the deadline.
    // The penalty is the firing rule's custom stall when set (fault plans
    // use small stalls to model skewed per-app boot costs), else 60s.
    Phase("boot-stall", faults_->stall_penalty());
  }

  // Core init: arch setup, memory management, scheduler. Without
  // CONFIG_PARAVIRT, timer and TSC calibration loops run in full (Section
  // 4.3: Lupine+KML boots in 71 ms instead of 23 ms).
  Phase("core-init",
        costs_->boot_core_init + (f.paravirt ? 0 : costs_->boot_no_paravirt_penalty));
  if (f.smp) {
    Phase("smp-bringup", costs_->boot_smp_bringup);
  }
  if (f.pci) {
    Phase("pci-enumeration", costs_->boot_pci_enumeration);
  }

  Phase("initcalls", InitcallCost(f, *costs_));
  if (faults_->Check(FaultSite::kBootInitcall)) {
    console_.Write("initcall lupine_subsys_init+0x0/0x40 returned -5\n");
    return Status(Err::kIo, "initcall failed during boot");
  }

  // Device setup: console + rootfs block device.
  if (!f.tty) {
    console_.Write("Warning: no console device configured\n");
  }

  // Mount the root filesystem: the VFS starts from the image's tree, which
  // the image's first boot mounted (with the devtmpfs nodes when
  // configured). A kRootfsCorrupt fault models a bad block clobbering the
  // superblock: the boot mounts a copy whose flipped magic byte makes the
  // mount fail deterministically (a flip in file payload could go
  // unnoticed).
  const RootfsImage* image = &rootfs;
  std::optional<RootfsImage> corrupted;
  if (faults_->Check(FaultSite::kRootfsCorrupt) && !rootfs.blob().empty()) {
    std::string flipped = rootfs.blob();
    flipped[0] ^= 0xFF;
    image = &corrupted.emplace(std::move(flipped));
  }
  const MountedRootfs& mounted = image->Mount(f.devtmpfs);
  if (mounted.tree == nullptr) {
    console_.Write("VFS: Cannot open root device\n");
    if (corrupted.has_value()) {
      // The injected flip models a transient bad-block read, not a
      // malformed image: surface it as an I/O error so the fleet retry
      // policy (and quarantine's rebuild credit) applies. A genuinely
      // malformed blob keeps ReadRootfs's kInval and fails fast.
      return Status(Err::kIo, "rootfs read error (bad block): " + mounted.status.message());
    }
    return mounted.status;
  }
  vfs_ = Vfs(mounted.tree);
  if (!mounted.status.ok()) {
    return mounted.status;
  }
  // Rootfs metadata (inode/dentry cache): one page per 8 entries (distinct
  // paths, records of no known type included).
  if (Status s = mm_->AllocatePages((mounted.records + 7) / 8, "dentry-cache"); !s.ok()) {
    oom_ = true;
    // The devtmpfs nodes come after the dentry cache: a boot that stops
    // here has the rootfs tree without them.
    vfs_ = Vfs(image->Mount(/*devtmpfs=*/false).tree);
    return s;
  }
  Phase("rootfs-mount", costs_->boot_rootfs_mount);

  console_.Write("Linux version 4.0.0-lupine (");
  console_.Write(image_->name);
  console_.Write(")\n");
  booted_ = true;
  return Status::Ok();
}

Result<Process*> Kernel::StartInit(const std::string& path, std::vector<std::string> argv) {
  if (!booted_) {
    return Status(Err::kInval, "kernel not booted");
  }
  Phase("init-exec", costs_->boot_init_exec);

  auto aspace = std::make_shared<AddressSpace>(mm_.get());
  Process* init = CreateProcess(/*ppid=*/0, std::move(aspace), "init");
  if (argv.empty()) {
    argv = {path};
  }
  sched_->Spawn(init, [this, path, argv]() {
    Status s = sys_->Execve(path, argv);
    if (!s.ok()) {
      Panic("No working init found (" + s.ToString() + ")");
    }
  });
  return init;
}

size_t Kernel::Run() {
  size_t blocked = sched_->Run();
  if (oom_ && !panicked_) {
    Process* init = FindProcess(1);
    if (init == nullptr || !init->exited) {
      Panic("Out of memory and no killable processes...");
    }
  }
  return blocked;
}

void Kernel::Panic(const std::string& reason) {
  if (panicked_) {
    return;
  }
  panicked_ = true;
  panic_reason_ = reason;

  // The oops dump an operator (or the supervising VMM's log scraper) greps.
  Thread* current = sched_->current();
  Process* process = current != nullptr ? current->process() : nullptr;
  console_.Write("Kernel panic - not syncing: " + reason + "\n");
  console_.Write("CPU: 0 PID: " + std::to_string(process != nullptr ? process->pid() : 0) +
                 " Comm: " + (process != nullptr ? process->name() : "swapper") +
                 " Not tainted 4.0.0-lupine #1\n");
  console_.Write("Call Trace:\n ? panic+0x1a8/0x39e\n ? do_exit+0x3c/0xa80\n");

  const int timeout = image_->features.panic_timeout;
  reboot_on_panic_ = timeout != 0;
  if (timeout > 0) {
    // CONFIG_PANIC_TIMEOUT > 0: sit in the panic loop for N seconds of
    // virtual time, then request the reboot.
    console_.Write("Rebooting in " + std::to_string(timeout) + " seconds..\n");
    clock_.Advance(Seconds(timeout));
  } else if (timeout < 0) {
    console_.Write("Rebooting immediately..\n");
  } else {
    console_.Write("---[ end Kernel panic - not syncing: " + reason + " ]---\n");
  }
  trace_.RecordPanic(clock_.now(), reason);

  // A panicked kernel never schedules again.
  sched_->RequestStop();
  if (current != nullptr) {
    if (process != nullptr) {
      ExitProcess(process, 128 + 6 /* SIGABRT: the crashing task */);
    }
    sched_->ExitCurrent();
  }
}

Process* Kernel::CreateProcess(int ppid, std::shared_ptr<AddressSpace> aspace,
                               std::string name) {
  int pid = next_pid_++;
  auto process = std::make_unique<Process>(pid, ppid, std::move(aspace), std::move(name));
  Process* raw = process.get();
  processes_.emplace(pid, std::move(process));
  if (Process* parent = FindProcess(ppid)) {
    parent->children.push_back(pid);
  }
  PublishProcDir(raw);
  return raw;
}

void Kernel::PublishProcDir(Process* process) {
  // Per-process procfs entries appear only once /proc is mounted.
  if (!vfs_.IsMounted("/proc") || process == nullptr) {
    return;
  }
  std::string dir = "/proc/" + std::to_string(process->pid());
  (void)vfs_.CreateDir(dir);
  (void)vfs_.CreateFile(dir + "/status", "Name:\t" + process->name() + "\nState:\tR (running)\nPid:\t" +
                                       std::to_string(process->pid()) + "\nPPid:\t" +
                                       std::to_string(process->ppid()) + "\n");
  std::string cmdline = process->name();
  (void)vfs_.CreateFile(dir + "/cmdline", cmdline + std::string(1, '\0'));
}

void Kernel::PublishAllProcDirs() {
  for (const auto& [pid, process] : processes_) {
    if (!process->exited) {
      PublishProcDir(process.get());
    }
  }
}

Process* Kernel::FindProcess(int pid) const {
  auto it = processes_.find(pid);
  return it == processes_.end() ? nullptr : it->second.get();
}

void Kernel::ExitProcess(Process* process, int code) {
  if (process == nullptr || process->exited) {
    return;
  }
  process->exited = true;
  process->exit_code = code;
  // Close every fd (wakes peers blocked on sockets/pipes).
  for (const auto& file : process->TakeAllFds()) {
    if (file == nullptr) {
      continue;
    }
    if (file->kind == FdKind::kSocket && file->socket != nullptr) {
      net_->Close(file->socket);
    }
    if (file->kind == FdKind::kPipeWrite && file->pipe != nullptr) {
      file->pipe->write_closed = true;
      file->pipe->read_wq.WakeAll();
    }
    if (file->kind == FdKind::kPipeRead && file->pipe != nullptr) {
      file->pipe->read_closed = true;
      file->pipe->write_wq.WakeAll();
    }
  }
  // Release the address space (frees anonymous pages & page tables).
  process->set_aspace(nullptr);
  ExitQueue(process->pid()).WakeAll();
  // Parent-level queue for wait4(-1) (keyed by negated parent pid).
  ExitQueue(-process->ppid()).WakeAll();
}

WaitQueue& Kernel::ExitQueue(int pid) {
  auto& queue = exit_queues_[pid];
  if (queue == nullptr) {
    queue = std::make_unique<WaitQueue>(sched_.get());
  }
  return *queue;
}

WaitQueue& Kernel::PauseQueue() {
  if (pause_queue_ == nullptr) {
    pause_queue_ = std::make_unique<WaitQueue>(sched_.get());
  }
  return *pause_queue_;
}

Status Kernel::ChargePageCache(Inode& inode, Bytes logical_size) {
  // The inode came from Vfs::Resolve, which copied any shared tree first.
  assert(!vfs_.shared() && "page-cache charge on the shared rootfs tree");
  if (inode.in_page_cache) {
    return Status::Ok();
  }
  uint64_t pages = PagesForBytes(logical_size);
  if (Status s = mm_->AllocatePages(pages, "page-cache"); !s.ok()) {
    oom_ = true;
    return s;
  }
  // Cold read: the data comes off the virtio block device the first time.
  Thread* current = sched_->current();
  if (current != nullptr && current->process() != nullptr &&
      !current->process()->free_run) {
    sched_->ChargeCpu(costs_->KernelCycles(image_->features,
                                           static_cast<Nanos>(pages) *
                                               costs_->disk_read_per_page));
  }
  inode.in_page_cache = true;
  return Status::Ok();
}

}  // namespace lupine::guestos
