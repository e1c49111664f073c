// Syscall layer part 5: futexes, epoll & optional fd factories, SysV/POSIX IPC.
#include <algorithm>

#include "src/guestos/kernel.h"
#include "src/guestos/syscall_api.h"

namespace lupine::guestos {

using kbuild::Sys;

// ---------------------------------------------------------------------------
// Futex.
// ---------------------------------------------------------------------------

Status SyscallApi::FutexWait(const int* word, int expected, Nanos timeout) {
  Scope scope(this, Sys::kFutex);
  if (!scope.ok()) {
    return scope.status();
  }
  Nanos op = k_->costs().futex_op;
  if (k_->features().smp) {
    op += k_->costs().smp_lock;  // Hash-bucket spinlock.
  }
  ChargeKernel(op);
  return k_->futexes().Wait(word, expected, timeout);
}

Result<int> SyscallApi::FutexWake(const int* word, int count) {
  Scope scope(this, Sys::kFutex);
  if (!scope.ok()) {
    return scope.status();
  }
  Nanos op = k_->costs().futex_op;
  if (k_->features().smp) {
    op += k_->costs().smp_lock;
  }
  ChargeKernel(op);
  return k_->futexes().Wake(word, count);
}

// ---------------------------------------------------------------------------
// Epoll and the other optional fd factories (Table 1 gates).
// ---------------------------------------------------------------------------

namespace {

bool Readable(const FileDescription& file) {
  switch (file.kind) {
    case FdKind::kSocket:
      return file.socket->Readable();
    case FdKind::kPipeRead:
      return !file.pipe->data.empty() || file.pipe->write_closed;
    case FdKind::kEventfd:
      return file.counter > 0;
    default:
      return false;
  }
}

bool Watches(const std::weak_ptr<EpollInstance>& watcher,
             const std::shared_ptr<EpollInstance>& epoll) {
  return watcher.lock() == epoll;
}

// Stops the socket behind `file`, if any, waking `epoll` unless another live
// entry still registers that socket.
void Unwatch(const std::shared_ptr<EpollInstance>& epoll, const FileDescription& file) {
  if (file.kind != FdKind::kSocket) {
    return;
  }
  for (const auto& [fd, entry] : epoll->watched_fds) {
    auto other = entry.lock();
    if (other != nullptr && other->socket == file.socket) {
      return;
    }
  }
  std::erase_if(file.socket->watchers,
                [&](const auto& watcher) { return Watches(watcher, epoll); });
}

}  // namespace

Result<int> SyscallApi::EpollCreate1() {
  Scope scope(this, Sys::kEpollCreate1);
  if (!scope.ok()) {
    return scope.status();
  }
  Process* p = CurrentProcess();
  if (p == nullptr) {
    return Status(Err::kInval, "epoll_create1 outside any process");
  }
  ChargeKernel(k_->costs().work_fd_alloc + 300);
  auto file = std::make_shared<FileDescription>();
  file->kind = FdKind::kEpoll;
  file->epoll = std::make_shared<EpollInstance>(&k_->sched());
  return p->InstallFd(file);
}

Status SyscallApi::EpollCtlAdd(int epfd, int fd) { return EpollCtl(epfd, fd, /*add=*/true); }

Status SyscallApi::EpollCtlDel(int epfd, int fd) { return EpollCtl(epfd, fd, /*add=*/false); }

Status SyscallApi::EpollCtl(int epfd, int fd, bool add) {
  Scope scope(this, Sys::kEpollCtl);
  if (!scope.ok()) {
    return scope.status();
  }
  auto ep = LookupFd(epfd);
  if (!ep.ok()) {
    return ep.status();
  }
  if (ep.value()->kind != FdKind::kEpoll) {
    return Status(Err::kInval, "epoll_ctl on non-epoll fd");
  }
  auto target = LookupFd(fd);
  if (!target.ok()) {
    return target.status();
  }
  ChargeKernel(k_->costs().work_epoll_ctl);
  const auto& epoll = ep.value()->epoll;
  const auto& file = target.value();
  auto it = epoll->watched_fds.find(fd);
  auto registered = it == epoll->watched_fds.end() ? nullptr : it->second.lock();
  if (!add) {
    if (registered != file) {
      return Status(Err::kNoEnt, "fd " + std::to_string(fd) + " not registered");
    }
    epoll->watched_fds.erase(it);
    Unwatch(epoll, *file);
    return Status::Ok();
  }
  if (registered == file) {
    return Status(Err::kExist, "fd " + std::to_string(fd) + " already registered");
  }
  // Any entry left under this number belongs to a description the fd no
  // longer refers to (closed, and the number handed out again): replace it.
  // Linux would keep both entries; this interest list holds one per number.
  epoll->watched_fds.insert_or_assign(fd, file);
  if (registered != nullptr) {
    Unwatch(epoll, *registered);
  }
  if (file->kind == FdKind::kSocket &&
      std::none_of(file->socket->watchers.begin(), file->socket->watchers.end(),
                   [&](const auto& watcher) { return Watches(watcher, epoll); })) {
    file->socket->watchers.push_back(epoll);
  }
  return Status::Ok();
}

Result<std::vector<int>> SyscallApi::EpollWait(int epfd, int max_events, Nanos timeout) {
  Scope scope(this, Sys::kEpollWait);
  if (!scope.ok()) {
    return scope.status();
  }
  auto ep = LookupFd(epfd);
  if (!ep.ok()) {
    return ep.status();
  }
  if (ep.value()->kind != FdKind::kEpoll) {
    return Status(Err::kInval, "epoll_wait on non-epoll fd");
  }
  auto& epoll = *ep.value()->epoll;

  for (;;) {
    std::vector<int> ready;
    for (auto it = epoll.watched_fds.begin(); it != epoll.watched_fds.end();) {
      auto file = it->second.lock();
      if (file == nullptr) {
        it = epoll.watched_fds.erase(it);  // The description's last close.
        continue;
      }
      if (Readable(*file)) {
        ready.push_back(it->first);
        if (static_cast<int>(ready.size()) >= max_events) {
          break;
        }
      }
      ++it;
    }
    ChargeKernel(k_->costs().work_epoll_wait);
    if (!ready.empty()) {
      return ready;
    }
    bool woken = epoll.wq.Block(timeout);
    if (!woken) {
      return std::vector<int>{};  // Timeout with no events.
    }
  }
}

Result<int> SyscallApi::Eventfd(uint64_t initial) {
  Scope scope(this, Sys::kEventfd2);
  if (!scope.ok()) {
    return scope.status();
  }
  Process* p = CurrentProcess();
  if (p == nullptr) {
    return Status(Err::kInval, "eventfd outside any process");
  }
  ChargeKernel(k_->costs().work_fd_alloc + 150);
  auto file = std::make_shared<FileDescription>();
  file->kind = FdKind::kEventfd;
  file->counter = initial;
  return p->InstallFd(file);
}

Result<int> SyscallApi::TimerfdCreate() {
  Scope scope(this, Sys::kTimerfdCreate);
  if (!scope.ok()) {
    return scope.status();
  }
  Process* p = CurrentProcess();
  if (p == nullptr) {
    return Status(Err::kInval, "timerfd_create outside any process");
  }
  ChargeKernel(k_->costs().work_fd_alloc + 200);
  auto file = std::make_shared<FileDescription>();
  file->kind = FdKind::kTimerfd;
  return p->InstallFd(file);
}

Result<int> SyscallApi::Signalfd() {
  Scope scope(this, Sys::kSignalfd4);
  if (!scope.ok()) {
    return scope.status();
  }
  Process* p = CurrentProcess();
  if (p == nullptr) {
    return Status(Err::kInval, "signalfd outside any process");
  }
  ChargeKernel(k_->costs().work_fd_alloc + 180);
  auto file = std::make_shared<FileDescription>();
  file->kind = FdKind::kSignalfd;
  return p->InstallFd(file);
}

Result<int> SyscallApi::InotifyInit() {
  Scope scope(this, Sys::kInotifyInit);
  if (!scope.ok()) {
    return scope.status();
  }
  Process* p = CurrentProcess();
  if (p == nullptr) {
    return Status(Err::kInval, "inotify_init outside any process");
  }
  ChargeKernel(k_->costs().work_fd_alloc + 250);
  auto file = std::make_shared<FileDescription>();
  file->kind = FdKind::kInotify;
  return p->InstallFd(file);
}

Result<int> SyscallApi::FanotifyInit() {
  Scope scope(this, Sys::kFanotifyInit);
  if (!scope.ok()) {
    return scope.status();
  }
  Process* p = CurrentProcess();
  if (p == nullptr) {
    return Status(Err::kInval, "fanotify_init outside any process");
  }
  ChargeKernel(k_->costs().work_fd_alloc + 300);
  auto file = std::make_shared<FileDescription>();
  file->kind = FdKind::kFanotify;
  return p->InstallFd(file);
}

Status SyscallApi::Bpf() {
  Scope scope(this, Sys::kBpf);
  if (!scope.ok()) {
    return scope.status();
  }
  ChargeKernel(1'500);  // Program verification.
  return Status::Ok();
}

Result<int> SyscallApi::IoSetup() {
  Scope scope(this, Sys::kIoSetup);
  if (!scope.ok()) {
    return scope.status();
  }
  ChargeKernel(900);
  return next_shm_id_++;  // Context ids share the id counter.
}

Status SyscallApi::IoSubmit(int ctx) {
  Scope scope(this, Sys::kIoSubmit);
  if (!scope.ok()) {
    return scope.status();
  }
  (void)ctx;
  ChargeKernel(1'200);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// SysV and POSIX IPC.
// ---------------------------------------------------------------------------

Result<int> SyscallApi::Shmget(Bytes size) {
  Scope scope(this, Sys::kShmget);
  if (!scope.ok()) {
    return scope.status();
  }
  (void)size;
  ChargeKernel(k_->costs().sysv_shm_op);
  return next_shm_id_++;
}

Status SyscallApi::Shmat(int shmid) {
  Scope scope(this, Sys::kShmat);
  if (!scope.ok()) {
    return scope.status();
  }
  (void)shmid;
  Process* p = CurrentProcess();
  if (p == nullptr) {
    return Status(Err::kInval, "shmat outside any process");
  }
  ChargeKernel(k_->costs().sysv_shm_op);
  auto vma = p->aspace().Map(kMiB, VmaKind::kShared, "sysv-shm");
  return vma.ok() ? Status::Ok() : vma.status();
}

Status SyscallApi::Semget() {
  Scope scope(this, Sys::kSemget);
  if (!scope.ok()) {
    return scope.status();
  }
  ChargeKernel(k_->costs().sem_op);
  return Status::Ok();
}

Status SyscallApi::Semop() {
  Scope scope(this, Sys::kSemop);
  if (!scope.ok()) {
    return scope.status();
  }
  Nanos op = k_->costs().sem_op;
  if (k_->features().smp) {
    op += k_->costs().smp_lock;
  }
  ChargeKernel(op);
  return Status::Ok();
}

Result<int> SyscallApi::MqOpen(const std::string& name) {
  Scope scope(this, Sys::kMqOpen);
  if (!scope.ok()) {
    return scope.status();
  }
  (void)name;
  Process* p = CurrentProcess();
  if (p == nullptr) {
    return Status(Err::kInval, "mq_open outside any process");
  }
  ChargeKernel(700);
  auto file = std::make_shared<FileDescription>();
  file->kind = FdKind::kInode;  // Message queues behave file-like here.
  file->inode = std::make_shared<Inode>();
  return p->InstallFd(file);
}

}  // namespace lupine::guestos
