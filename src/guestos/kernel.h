// The guest kernel facade: owns every subsystem, boots, runs init.
//
// Boot prices every phase and writes the console banner from the kernel
// image the kernel holds (its size, name and derived features) and the cost
// model, and records the phases in its BootTrace, the one list of a boot's
// guest phases: vmm::Vm derives its boot spans from it, and the snapshot
// state digest folds it in.
#ifndef SRC_GUESTOS_KERNEL_H_
#define SRC_GUESTOS_KERNEL_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/guestos/console.h"
#include "src/guestos/cost_model.h"
#include "src/guestos/futex.h"
#include "src/guestos/loader.h"
#include "src/guestos/mem.h"
#include "src/guestos/net.h"
#include "src/guestos/rootfs.h"
#include "src/guestos/sched.h"
#include "src/guestos/task.h"
#include "src/guestos/trace.h"
#include "src/guestos/vfs.h"
#include "src/kbuild/image.h"
#include "src/util/fault.h"
#include "src/util/result.h"
#include "src/util/vclock.h"

namespace lupine::guestos {

class SyscallApi;

// One phase of the guest-side boot sequence with its duration.
struct BootPhase {
  std::string name;
  Nanos duration = 0;
};

// The guest's boot phases, in order: the one record of them.
struct BootTrace {
  std::vector<BootPhase> phases;
  Nanos Total() const;
};

class Kernel {
 public:
  // `image` is shared with every other kernel booted from it (never
  // copied). `memory_limit` is the VM's RAM; `registry` resolves app= entry
  // points (defaults to the process-global registry). `faults` is a
  // non-owning fault injector threaded to every subsystem; nullptr means
  // the shared never-fires null injector (the zero-cost default).
  Kernel(std::shared_ptr<const kbuild::KernelImage> image, Bytes memory_limit,
         const AppRegistry* registry = nullptr, FaultInjector* faults = nullptr);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // Guest-side boot: pays decompression/initcall/mount costs on the virtual
  // clock, charges kernel resident memory, and mounts the rootfs image: the
  // VFS starts from the image's tree (RootfsImage::Mount, built by the first
  // boot of the image) and copies it only when the guest first touches it.
  // Every cost and the console banner come from the kernel's image and cost
  // model; each phase lands in boot_trace().
  Status Boot(const RootfsImage& rootfs);

  // Spawns pid 1 executing `path` (usually /sbin/init, the startup script).
  Result<Process*> StartInit(const std::string& path, std::vector<std::string> argv = {});

  // Runs the scheduler until quiescence; returns number of threads still
  // blocked (a server waiting for connections counts as blocked).
  size_t Run();

  // --- Subsystem access -------------------------------------------------------
  SyscallApi& sys() { return *sys_; }
  VirtualClock& clock() { return clock_; }
  Scheduler& sched() { return *sched_; }
  MemoryManager& mm() { return *mm_; }
  const MemoryManager& mm() const { return *mm_; }
  Vfs& vfs() { return vfs_; }
  const Vfs& vfs() const { return vfs_; }
  NetStack& net() { return *net_; }
  FutexTable& futexes() { return *futexes_; }
  Console& console() { return console_; }
  const Console& console() const { return console_; }
  TraceLog& trace() { return trace_; }
  const TraceLog& trace() const { return trace_; }
  FaultInjector& faults() { return *faults_; }
  const kbuild::KernelFeatures& features() const { return image_->features; }
  const kbuild::KernelImage& image() const { return *image_; }
  const CostModel& costs() const { return *costs_; }
  const AppRegistry& apps() const { return *registry_; }
  const BootTrace& boot_trace() const { return boot_trace_; }

  // --- Process management (used by the syscall layer) ---------------------------
  Process* CreateProcess(int ppid, std::shared_ptr<AddressSpace> aspace, std::string name);
  Process* FindProcess(int pid) const;
  void ExitProcess(Process* process, int code);
  WaitQueue& ExitQueue(int pid);
  // A queue nobody ever wakes: pause(2)-style indefinite blocking.
  WaitQueue& PauseQueue();
  size_t ProcessCount() const { return processes_.size(); }

  // Charges page-cache pages the first time a file's contents are read.
  Status ChargePageCache(Inode& inode, Bytes logical_size);

  // Creates /proc/<pid>/{status,cmdline} for `process` when /proc is
  // mounted (called on process creation; also after exec renames).
  void PublishProcDir(Process* process);
  // Publishes every live process (called when /proc gets mounted).
  void PublishAllProcDirs();

  // Fails boot / exec cleanly when memory is exhausted (Fig. 8 probing).
  bool oom() const { return oom_; }
  void set_oom() { oom_ = true; }

  // Ring-0 crash semantics: writes the oops dump to the console, records
  // the panic in the trace log, and stops the scheduler for good. What
  // happens next is CONFIG_PANIC_TIMEOUT's call: halt (0), reboot after N
  // seconds (>0, charged to the virtual clock), or reboot immediately (<0).
  // Safe to call from fiber context (the calling thread never returns) and
  // from outside the scheduler.
  void Panic(const std::string& reason);
  bool panicked() const { return panicked_; }
  const std::string& panic_reason() const { return panic_reason_; }
  // True when the panicked guest asked its monitor for a reboot rather than
  // sitting dead until a health check notices (PANIC_TIMEOUT != 0).
  bool reboot_on_panic() const { return reboot_on_panic_; }

 private:
  void Phase(const char* name, Nanos duration);

  std::shared_ptr<const kbuild::KernelImage> image_;
  const CostModel* costs_;
  const AppRegistry* registry_;
  FaultInjector* faults_;

  VirtualClock clock_;
  std::unique_ptr<MemoryManager> mm_;
  std::unique_ptr<Scheduler> sched_;
  Vfs vfs_;
  std::unique_ptr<NetStack> net_;
  std::unique_ptr<FutexTable> futexes_;
  Console console_;
  TraceLog trace_;
  std::unique_ptr<SyscallApi> sys_;

  std::map<int, std::unique_ptr<Process>> processes_;
  std::map<int, std::unique_ptr<WaitQueue>> exit_queues_;
  std::unique_ptr<WaitQueue> pause_queue_;
  int next_pid_ = 1;
  bool booted_ = false;
  bool oom_ = false;
  bool panicked_ = false;
  bool reboot_on_panic_ = false;
  std::string panic_reason_;
  BootTrace boot_trace_;
};

}  // namespace lupine::guestos

#endif  // SRC_GUESTOS_KERNEL_H_
