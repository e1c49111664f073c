// Syscall layer part 3: files, pipes, mounts.
#include <algorithm>

#include "src/guestos/kernel.h"
#include "src/guestos/syscall_api.h"
#include "src/kconfig/option_names.h"

namespace lupine::guestos {

using kbuild::Sys;

namespace {

std::string PseudoRandomBytes(size_t n) {
  std::string out(n, '\0');
  uint64_t x = 0x853C49E6748FEA9Bull;
  for (size_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    out[i] = static_cast<char>(x >> 33);
  }
  return out;
}

}  // namespace

Result<int> SyscallApi::Open(const std::string& path, bool create) {
  Scope scope(this, Sys::kOpen);
  if (!scope.ok()) {
    return scope.status();
  }
  Process* p = CurrentProcess();
  if (p == nullptr) {
    return Status(Err::kInval, "open outside any process");
  }
  ChargeKernel(k_->costs().work_open);
  if (k_->trace().enabled() && path.rfind("/proc/sys", 0) == 0) {
    k_->trace().RecordFeature(p->pid(), TraceFeature::kProcSysctl);
  }

  auto inode = k_->vfs().Resolve(path);
  if (!inode.ok()) {
    if (!create) {
      return inode.status();
    }
    ChargeKernel(k_->costs().fs_create);
    inode = k_->vfs().CreateFile(path);
    if (!inode.ok()) {
      return inode.status();
    }
  }
  ChargeKernel(k_->costs().work_fd_alloc);
  auto file = std::make_shared<FileDescription>();
  file->kind = FdKind::kInode;
  file->inode = inode.take();
  file->path = path;
  return p->InstallFd(file);
}

Status SyscallApi::Close(int fd) {
  Scope scope(this, Sys::kClose);
  if (!scope.ok()) {
    return scope.status();
  }
  ChargeKernel(k_->costs().work_close);
  if (fd >= 0 && fd <= 2) {
    return Status::Ok();  // stdio to the console stays open.
  }
  Process* p = CurrentProcess();
  if (p == nullptr) {
    return Status(Err::kInval, "close outside any process");
  }
  auto file = p->GetFd(fd);
  if (file == nullptr) {
    return Status(Err::kBadF, "bad file descriptor");
  }
  if (file->kind == FdKind::kSocket && file->socket != nullptr) {
    ChargeKernel(k_->costs().tcp_close);
    k_->net().Close(file->socket);
  } else if (file->kind == FdKind::kPipeWrite && file->pipe != nullptr) {
    file->pipe->write_closed = true;
    file->pipe->read_wq.WakeAll();
  } else if (file->kind == FdKind::kPipeRead && file->pipe != nullptr) {
    file->pipe->read_closed = true;
    file->pipe->write_wq.WakeAll();
  }
  p->CloseFd(fd);
  return Status::Ok();
}

Result<std::string> SyscallApi::Read(int fd, size_t max_bytes) {
  Scope scope(this, Sys::kRead);
  if (!scope.ok()) {
    return scope.status();
  }
  if (fd >= 0 && fd <= 2) {
    return std::string();  // stdin: EOF.
  }
  auto lookup = LookupFd(fd);
  if (!lookup.ok()) {
    return lookup.status();
  }
  auto& file = lookup.value();

  switch (file->kind) {
    case FdKind::kInode: {
      Inode& inode = *file->inode;
      if (inode.type == InodeType::kCharDev) {
        switch (inode.dev) {
          case DevId::kNull:
            return std::string();
          case DevId::kZero: {
            ChargeKernel(k_->costs().work_read_devzero);
            ChargeCopy(max_bytes);
            return std::string(max_bytes, '\0');
          }
          case DevId::kUrandom: {
            ChargeKernel(k_->costs().work_read_devzero * 4);
            ChargeCopy(max_bytes);
            return PseudoRandomBytes(max_bytes);
          }
          case DevId::kConsole:
          case DevId::kNone:
            return std::string();
        }
      }
      if (inode.type == InodeType::kDir) {
        return Status(Err::kIsDir, file->path + ": is a directory");
      }
      if (k_->faults().Check(FaultSite::kVfsIo)) {
        k_->console().Write("blk_update_request: I/O error, dev vda, sector 2048\n");
        return Status(Err::kIo, file->path + ": I/O error (injected)");
      }
      if (Status s = k_->ChargePageCache(inode, std::max<Bytes>(inode.data.size(), 1));
          !s.ok()) {
        return s;
      }
      size_t n = std::min(max_bytes, inode.data.size() - std::min(file->offset,
                                                                  inode.data.size()));
      ChargeKernel(k_->costs().fs_read_per_kb * static_cast<Nanos>(n / kKiB + 1));
      ChargeCopy(n);
      std::string out = inode.data.substr(file->offset, n);
      file->offset += n;
      return out;
    }
    case FdKind::kPipeRead: {
      PipeBuffer& pipe = *file->pipe;
      while (pipe.data.empty()) {
        if (pipe.write_closed) {
          return std::string();
        }
        pipe.read_wq.Block();
      }
      size_t n = std::min(max_bytes, pipe.data.size());
      std::string out = pipe.data.substr(0, n);
      pipe.data.erase(0, n);
      ChargeKernel(k_->costs().pipe_transfer / 2);
      ChargeCopy(n);
      pipe.write_wq.WakeAll();
      return out;
    }
    case FdKind::kSocket:
      return Recv(fd, max_bytes);
    case FdKind::kEventfd: {
      if (file->counter == 0) {
        return Status(Err::kAgain, "eventfd not ready");
      }
      std::string out(8, '\0');
      file->counter = 0;
      ChargeKernel(120);
      return out;
    }
    default:
      return Status(Err::kInval, "read: unsupported descriptor kind");
  }
}

Result<size_t> SyscallApi::Write(int fd, const std::string& data) {
  Scope scope(this, Sys::kWrite);
  if (!scope.ok()) {
    return scope.status();
  }
  if (fd >= 0 && fd <= 2) {
    // stdout/stderr: the guest console.
    ChargeKernel(900);
    ChargeCopy(data.size());
    k_->console().Write(data);
    return data.size();
  }
  auto lookup = LookupFd(fd);
  if (!lookup.ok()) {
    return lookup.status();
  }
  auto& file = lookup.value();

  switch (file->kind) {
    case FdKind::kInode: {
      Inode& inode = *file->inode;
      if (inode.type == InodeType::kCharDev) {
        switch (inode.dev) {
          case DevId::kNull:
            ChargeKernel(k_->costs().work_write_devnull);
            ChargeCopy(data.size());
            return data.size();
          case DevId::kConsole:
            ChargeKernel(900);
            ChargeCopy(data.size());
            k_->console().Write(data);
            return data.size();
          case DevId::kZero:
          case DevId::kUrandom:
            ChargeKernel(k_->costs().work_write_devnull);
            return data.size();
          case DevId::kNone:
            return Status(Err::kIo, "write to unknown device");
        }
      }
      if (inode.type == InodeType::kDir) {
        return Status(Err::kIsDir, file->path + ": is a directory");
      }
      ChargeKernel(k_->costs().fs_write_per_kb * static_cast<Nanos>(data.size() / kKiB + 1));
      ChargeCopy(data.size());
      if (file->offset > inode.data.size()) {
        inode.data.resize(file->offset, '\0');
      }
      if (file->offset + data.size() > inode.data.size()) {
        inode.data.resize(file->offset + data.size());
      }
      inode.data.replace(file->offset, data.size(), data);
      file->offset += data.size();
      return data.size();
    }
    case FdKind::kPipeWrite: {
      PipeBuffer& pipe = *file->pipe;
      while (pipe.data.size() + data.size() > PipeBuffer::kCapacity) {
        if (pipe.read_closed) {
          return Status(Err::kPipe, "broken pipe");
        }
        pipe.write_wq.Block();
      }
      pipe.data += data;
      ChargeKernel(k_->costs().pipe_transfer / 2);
      ChargeCopy(data.size());
      pipe.read_wq.WakeAll();
      return data.size();
    }
    case FdKind::kSocket:
      return Send(fd, data);
    case FdKind::kEventfd:
      file->counter += 1;
      ChargeKernel(120);
      return data.size();
    default:
      return Status(Err::kInval, "write: unsupported descriptor kind");
  }
}

Result<size_t> SyscallApi::Stat(const std::string& path) {
  Scope scope(this, Sys::kStat);
  if (!scope.ok()) {
    return scope.status();
  }
  ChargeKernel(k_->costs().work_stat);
  auto inode = k_->vfs().Lookup(path);
  if (!inode.ok()) {
    return inode.status();
  }
  return inode.value()->data.size();
}

Result<int> SyscallApi::Dup(int fd) {
  Scope scope(this, Sys::kDup);
  if (!scope.ok()) {
    return scope.status();
  }
  auto lookup = LookupFd(fd);
  if (!lookup.ok()) {
    return lookup.status();
  }
  ChargeKernel(k_->costs().work_fd_alloc);
  return CurrentProcess()->InstallFd(lookup.value());
}

Status SyscallApi::Unlink(const std::string& path) {
  Scope scope(this, Sys::kUnlink);
  if (!scope.ok()) {
    return scope.status();
  }
  ChargeKernel(k_->costs().fs_delete);
  return k_->vfs().Unlink(path);
}

Status SyscallApi::Mkdir(const std::string& path) {
  Scope scope(this, Sys::kMkdir);
  if (!scope.ok()) {
    return scope.status();
  }
  ChargeKernel(k_->costs().fs_create);
  auto result = k_->vfs().CreateDir(path);
  return result.ok() ? Status::Ok() : result.status();
}

Result<std::pair<int, int>> SyscallApi::Pipe() {
  Scope scope(this, Sys::kPipe);
  if (!scope.ok()) {
    return scope.status();
  }
  Process* p = CurrentProcess();
  if (p == nullptr) {
    return Status(Err::kInval, "pipe outside any process");
  }
  ChargeKernel(2 * k_->costs().work_fd_alloc + 400);
  auto pipe = std::make_shared<PipeBuffer>(&k_->sched());
  auto read_end = std::make_shared<FileDescription>();
  read_end->kind = FdKind::kPipeRead;
  read_end->pipe = pipe;
  auto write_end = std::make_shared<FileDescription>();
  write_end->kind = FdKind::kPipeWrite;
  write_end->pipe = pipe;
  int rfd = p->InstallFd(read_end);
  int wfd = p->InstallFd(write_end);
  return std::make_pair(rfd, wfd);
}

Status SyscallApi::Flock(int fd) {
  Scope scope(this, Sys::kFlock);
  if (!scope.ok()) {
    return scope.status();
  }
  auto lookup = LookupFd(fd);
  if (!lookup.ok()) {
    return lookup.status();
  }
  ChargeKernel(150);
  return Status::Ok();
}

Status SyscallApi::Madvise(int vma_id) {
  Scope scope(this, Sys::kMadvise);
  if (!scope.ok()) {
    return scope.status();
  }
  (void)vma_id;
  ChargeKernel(120);
  return Status::Ok();
}

Status SyscallApi::Fadvise(int fd) {
  Scope scope(this, Sys::kFadvise64);
  if (!scope.ok()) {
    return scope.status();
  }
  (void)fd;
  ChargeKernel(120);
  return Status::Ok();
}

Result<int> SyscallApi::OpenByHandleAt(const std::string& path) {
  Scope scope(this, Sys::kOpenByHandleAt);
  if (!scope.ok()) {
    return scope.status();
  }
  return Open(path);
}

Status SyscallApi::Mount(const std::string& fstype, const std::string& path) {
  Scope scope(this, Sys::kMount);
  if (!scope.ok()) {
    return scope.status();
  }
  const auto& f = k_->features();
  if (k_->trace().enabled() && !CurrentIsFree()) {
    int pid = CurrentProcess() != nullptr ? CurrentProcess()->pid() : 0;
    if (fstype == "tmpfs") {
      k_->trace().RecordFeature(pid, TraceFeature::kMountTmpfs);
    } else if (fstype == "hugetlbfs") {
      k_->trace().RecordFeature(pid, TraceFeature::kMountHugetlbfs);
    }
  }
  bool supported = (fstype == "proc" && f.proc_fs) || (fstype == "sysfs" && f.sysfs) ||
                   (fstype == "tmpfs" && f.tmpfs) || (fstype == "devtmpfs" && f.devtmpfs) ||
                   (fstype == "hugetlbfs" && f.hugetlbfs) || fstype == "ramfs";
  if (!supported) {
    return Status(Err::kNoEnt, "mount: unknown filesystem type '" + fstype + "'");
  }
  ChargeKernel(5'000);
  if (Status s = k_->vfs().Mount(fstype, path); !s.ok()) {
    return s;
  }
  if (fstype == "proc" && f.proc_sysctl) {
    auto proc = k_->vfs().Resolve(path);
    if (proc.ok()) {
      PopulateProcfs(*proc.value(), /*with_sysctl=*/true);
    }
  }
  if (fstype == "proc" && path == "/proc") {
    k_->PublishAllProcDirs();
  }
  return Status::Ok();
}

}  // namespace lupine::guestos
