// SyscallApi: the system-call interface guest applications program against.
//
// Every method executes on the current guest thread (a fiber), charges the
// priced transition into and out of the kernel (full privilege switch, or a
// near call under KML), checks CONFIG gating (ENOSYS when the option is
// compiled out), performs the real operation against the kernel's
// subsystems, and may block on wait queues.
//
// Deviation from POSIX: fork() takes the child body as a callable (fibers
// cannot duplicate a running stack), and buffers are std::string. Everything
// else keeps syscall granularity so per-call costs and failure modes match.
#ifndef SRC_GUESTOS_SYSCALL_API_H_
#define SRC_GUESTOS_SYSCALL_API_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/guestos/net.h"
#include "src/guestos/task.h"
#include "src/guestos/vfs.h"
#include "src/kbuild/syscalls.h"
#include "src/util/result.h"

namespace lupine::guestos {

class Kernel;

class SyscallApi {
 public:
  explicit SyscallApi(Kernel* kernel) : k_(kernel) {}

  // ---- User-level helpers (no kernel entry) ---------------------------------
  // Burns user-mode CPU (workload inner loops).
  void Compute(Nanos cpu);
  Process* CurrentProcess() const;

  // ---- Identity / time --------------------------------------------------------
  Result<int> Getpid();
  Result<int> Getppid();  // lmbench's "null call".
  Result<Nanos> ClockGettime();
  Result<std::string> Uname();
  Status Sethostname(const std::string& name);
  Status Setrlimit(int resource, uint64_t value);
  Status Sigaction(int signum);
  // rt_sigaction with a real handler: runs at the target's next syscall
  // boundary. Passing nullptr resets to the default disposition.
  Status SigactionHandler(int signum, std::function<void(int)> handler);
  // kill(2): queues `signum` for `pid`. Default disposition for fatal
  // signals terminates the target process (128+signum).
  Status Kill(int pid, int signum);
  Status SignalSelf(int signum);  // kill(getpid(), sig) + handler dispatch.

  // ---- Files --------------------------------------------------------------------
  Result<int> Open(const std::string& path, bool create = false);
  Status Close(int fd);
  Result<std::string> Read(int fd, size_t max_bytes);
  Result<size_t> Write(int fd, const std::string& data);
  Result<size_t> Stat(const std::string& path);  // Returns file size.
  Result<int> Dup(int fd);
  Status Unlink(const std::string& path);
  Status Mkdir(const std::string& path);
  Result<std::pair<int, int>> Pipe();  // {read_fd, write_fd}.
  Status Flock(int fd);                                     // FILE_LOCKING.
  Status Madvise(int vma_id);                               // ADVISE_SYSCALLS.
  Status Fadvise(int fd);                                   // ADVISE_SYSCALLS.
  Result<int> OpenByHandleAt(const std::string& path);      // FHANDLE.
  Status Mount(const std::string& fstype, const std::string& path);

  // ---- Processes / threads ---------------------------------------------------------
  // Runs `child` in a forked process; returns the child's pid in the parent.
  Result<int> Fork(std::function<int(SyscallApi&)> child);
  // Replaces the current process image; only returns on failure.
  Status Execve(const std::string& path, std::vector<std::string> argv);
  // Terminates the calling thread's process (when called on the last live
  // thread) and the calling thread. Never returns.
  [[noreturn]] void Exit(int code);
  // Waits for child `pid` (-1 = any child); returns its exit code.
  Result<int> Wait4(int pid);
  // pthread_create-alike: new thread sharing the address space.
  Result<int> SpawnThread(std::function<void(SyscallApi&)> body);
  void SchedYield();
  void Nanosleep(Nanos duration);
  // pause(2): blocks the calling thread indefinitely.
  void Pause();

  // ---- Memory -------------------------------------------------------------------------
  Result<int> Mmap(Bytes length, bool populate = false);
  Status Munmap(int vma_id);
  // Grows the heap (brk) by `bytes`; pages appear on TouchHeap.
  Status BrkGrow(Bytes bytes);
  // Touches heap pages (demand paging; charges page faults).
  Status TouchHeap(Bytes offset, Bytes length);

  // ---- Futex / IPC ------------------------------------------------------------------------
  Status FutexWait(const int* word, int expected, Nanos timeout = 0);
  Result<int> FutexWake(const int* word, int count);
  Result<int> Shmget(Bytes size);        // SYSVIPC.
  Status Shmat(int shmid);               // SYSVIPC.
  Status Semget();                       // SYSVIPC.
  Status Semop();                        // SYSVIPC.
  Result<int> MqOpen(const std::string& name);  // POSIX_MQUEUE.

  // ---- Optional fd factories (Table 1 gates) --------------------------------------------------
  Result<int> EpollCreate1();
  // EPOLL_CTL_ADD: EEXIST when `fd` is already registered with the
  // description it refers to now.
  Status EpollCtlAdd(int epfd, int fd);
  // EPOLL_CTL_DEL: ENOENT unless `fd` is registered with the description it
  // refers to now.
  Status EpollCtlDel(int epfd, int fd);
  Result<std::vector<int>> EpollWait(int epfd, int max_events, Nanos timeout = 0);
  Result<int> Eventfd(uint64_t initial = 0);
  Result<int> TimerfdCreate();
  Result<int> Signalfd();
  Result<int> InotifyInit();
  Result<int> FanotifyInit();
  Status Bpf();
  Result<int> IoSetup();   // AIO context.
  Status IoSubmit(int ctx);

  // ---- Sockets ------------------------------------------------------------------------------------
  Result<int> Socket(SockDomain domain, SockType type);
  Status Bind(int fd, uint16_t port, const std::string& unix_path = "");
  Status Listen(int fd, int backlog);
  Result<int> Accept(int fd);
  Status Connect(int fd, uint16_t port, const std::string& unix_path = "");
  Result<size_t> Send(int fd, const std::string& data);
  Result<std::string> Recv(int fd, size_t max_bytes);
  Result<std::pair<int, int>> SocketPair(SockType type);
  Status Setsockopt(int fd);
  Status Select(int nfds, bool tcp_fds = false);
  Status Poll(const std::vector<int>& fds);

  Kernel* kernel() const { return k_; }

 private:
  // Entry/exit bookkeeping shared by every syscall.
  class Scope {
   public:
    Scope(SyscallApi* api, kbuild::Sys nr);
    ~Scope();
    // ENOSYS when the syscall's gating option is configured out.
    const Status& status() const { return status_; }
    bool ok() const { return status_.ok(); }

   private:
    SyscallApi* api_;
    bool free_run_;
    kbuild::Sys nr_;
    Nanos entry_ = 0;  // virtual clock at entry, for per-syscall accounting
    Status status_;
  };

  // Charges kernel-mode cycles scaled by the kernel-wide multipliers.
  void ChargeKernel(Nanos cycles);
  // Charges `bytes` worth of kernel memcpy.
  void ChargeCopy(Bytes bytes);
  // Packet-cost helpers for the loopback path.
  void ChargeTx(const std::shared_ptr<lupine::guestos::Socket>& peer_sock, Bytes bytes, SockDomain domain);
  static uint32_t PacketsFor(Bytes bytes);

  // epoll_ctl(2) with EPOLL_CTL_ADD (add) or EPOLL_CTL_DEL.
  Status EpollCtl(int epfd, int fd, bool add);
  Result<std::shared_ptr<FileDescription>> LookupFd(int fd);
  Status CheckEnabled(kbuild::Sys nr) const;
  bool CurrentIsFree() const;

  Kernel* k_;
  int next_shm_id_ = 1;
};

}  // namespace lupine::guestos

#endif  // SRC_GUESTOS_SYSCALL_API_H_
