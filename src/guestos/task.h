// Threads and processes of the simulated guest.
#ifndef SRC_GUESTOS_TASK_H_
#define SRC_GUESTOS_TASK_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/guestos/mem.h"
#include "src/util/fiber.h"
#include "src/util/units.h"

namespace lupine::guestos {

class Process;
class FileDescription;

enum class ThreadState { kRunnable, kRunning, kBlocked, kSleeping, kZombie };

class Thread {
 public:
  Thread(int tid, Process* process, std::function<void()> entry);

  int tid() const { return tid_; }
  Process* process() const { return process_; }
  Fiber* fiber() { return fiber_.get(); }
  // Frees the fiber stack once the thread is a zombie (sweeps in Figs. 11-12
  // create 1000+ threads; stacks dominate host memory otherwise).
  void ReleaseFiber() { fiber_.reset(); }

  ThreadState state = ThreadState::kRunnable;
  Nanos wake_time = 0;       // Valid while kSleeping.
  Nanos cpu_time = 0;        // Accumulated virtual CPU time.
  // Cache working set dragged across context switches (prices the lmbench
  // 2p/16K vs 2p/64K spread).
  uint64_t working_set_kb = 0;
  // Set while the thread is parked on a wait queue (for targeted wakeups).
  void* wait_channel = nullptr;
  // Set when a timed Block() was woken by its timeout rather than a Wake().
  bool timed_out = false;

 private:
  int tid_;
  Process* process_;
  std::unique_ptr<Fiber> fiber_;
};

class Process {
 public:
  Process(int pid, int ppid, std::shared_ptr<AddressSpace> aspace, std::string name);

  int pid() const { return pid_; }
  int ppid() const { return ppid_; }
  void set_ppid(int ppid) { ppid_ = ppid; }
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  AddressSpace& aspace() { return *aspace_; }
  const std::shared_ptr<AddressSpace>& aspace_ptr() const { return aspace_; }
  void set_aspace(std::shared_ptr<AddressSpace> aspace) { aspace_ = std::move(aspace); }

  // File descriptor table. InstallFd takes the lowest free number >= 3
  // (POSIX; 0-2 are the console's stdio).
  int InstallFd(std::shared_ptr<FileDescription> file);
  std::shared_ptr<FileDescription> GetFd(int fd) const;
  bool CloseFd(int fd);
  // Removes and returns every open descriptor (process teardown).
  std::vector<std::shared_ptr<FileDescription>> TakeAllFds();
  // fork(): the child shares file descriptions with the parent.
  void CloneFdTableFrom(const Process& parent);

  // Whether this process' libc issues KML `call`s instead of `syscall`
  // (set by the loader from the binary's metadata; Section 3.2).
  bool kml_capable = false;

  // External load generators are marked free-running: their syscalls cost
  // nothing on the guest clock, so measured time isolates the server side
  // (the paper's clients run outside the VM on dedicated host CPUs).
  bool free_run = false;

  std::map<std::string, std::string> env;
  std::string cwd = "/";

  // Signal handling: registered handlers and signals queued for delivery at
  // the process's next syscall boundary (no mid-syscall EINTR in this model;
  // a thread blocked forever never observes signals).
  std::map<int, std::function<void(int)>> signal_handlers;
  std::deque<int> pending_signals;
  bool in_signal_handler = false;

  bool exited = false;
  bool reaped = false;  // A wait4 collected the exit status.
  int exit_code = 0;

  std::vector<Thread*> threads;   // Non-owning; the scheduler owns threads.
  std::vector<int> children;      // Live + zombie child pids.

  // Heap VMA for brk-style allocation (set up by the loader).
  int heap_vma = -1;
  Bytes heap_size = 0;

 private:
  int pid_;
  int ppid_;
  std::shared_ptr<AddressSpace> aspace_;
  std::string name_;
  std::vector<std::shared_ptr<FileDescription>> fds_;  // Indexed by fd; null = free.
};

}  // namespace lupine::guestos

#endif  // SRC_GUESTOS_TASK_H_
