// Syscall layer part 1: entry/exit pricing, identity, processes, memory.
#include <algorithm>

#include "src/guestos/kernel.h"
#include "src/guestos/syscall_api.h"

namespace lupine::guestos {

using kbuild::Sys;

// ---------------------------------------------------------------------------
// Scope: per-syscall entry/exit accounting.
// ---------------------------------------------------------------------------

SyscallApi::Scope::Scope(SyscallApi* api, Sys nr) : api_(api), nr_(nr) {
  Kernel* k = api_->k_;
  free_run_ = api_->CurrentIsFree();
  status_ = api_->CheckEnabled(nr);
  if (free_run_) {
    return;  // External load generators are neither priced nor traced.
  }
  entry_ = k->clock().now();
  if (k->trace().enabled()) {
    Process* traced = api_->CurrentProcess();
    k->trace().RecordSyscall(traced != nullptr ? traced->pid() : 0, nr);
  }
  const auto& f = k->features();
  Process* p = api_->CurrentProcess();
  Nanos transition = k->costs().Transition(f, p != nullptr && p->kml_capable);
  Nanos fixed = k->costs().KernelCycles(f, k->costs().SyscallFixed(f));
  k->sched().ChargeCpu(transition + fixed);
  if (k->faults().armed()) {
    if (k->faults().Check(FaultSite::kSyscallTransient)) {
      // EINTR/EAGAIN: libc restarts the call — the guest pays one extra
      // kernel round trip and carries on.
      k->sched().ChargeCpu(2 * transition + fixed);
    }
    if (k->faults().Check(FaultSite::kAppFault)) {
      // A wild access in the application. Under KML the app runs in ring 0,
      // so this *is* a kernel fault; without KML the page fault kills pid 1,
      // which panics the kernel just the same (the paper's central
      // robustness trade-off, Section 2.1).
      if (f.kml) {
        k->console().Write("BUG: unable to handle kernel NULL pointer dereference at "
                           "0000000000000008\n");
        k->Panic("Fatal exception in ring 0");
      } else if (p == nullptr || p->pid() == 1) {
        k->console().Write((p != nullptr ? p->name() : "init") +
                           "[1]: segfault at 8 ip 00007f... sp 00007f... error 4\n");
        k->Panic("Attempted to kill init! exitcode=0x0000000b");
      } else {
        // In ring 3 a fault in a non-init process is just a segfault.
        k->console().Write(p->name() + "[" + std::to_string(p->pid()) +
                           "]: segfault at 8 ip 00007f... sp 00007f... error 4\n");
        k->ExitProcess(p, 128 + 11 /* SIGSEGV */);
        k->sched().ExitCurrent();
      }
    }
  }
}

SyscallApi::Scope::~Scope() {
  Kernel* k = api_->k_;
  Process* p = api_->CurrentProcess();
  if (!free_run_) {
    const auto& f = k->features();
    k->sched().ChargeCpu(k->costs().Transition(f, p != nullptr && p->kml_capable));
    // Accounted before signal delivery and the preemption point below, so
    // latency covers entry to exit (including time blocked inside the call)
    // but not whatever the scheduler runs afterwards.
    k->trace().AccountSyscall(nr_, k->clock().now() - entry_);
  }
  // Signal delivery point: pending signals run their handlers on the way
  // out of the kernel (one frame at a time; handlers may issue syscalls).
  if (p != nullptr && !p->exited && !p->pending_signals.empty() && !p->in_signal_handler) {
    int signum = p->pending_signals.front();
    p->pending_signals.pop_front();
    auto handler = p->signal_handlers.find(signum);
    if (handler != p->signal_handlers.end()) {
      p->in_signal_handler = true;
      // Frame setup + sigreturn round trip.
      k->sched().ChargeCpu(k->costs().KernelCycles(k->features(), k->costs().work_sig_handle));
      handler->second(signum);
      p->in_signal_handler = false;
    } else if (signum != 0) {
      // Default disposition: terminate (SIGTERM/SIGKILL-style).
      k->console().Write(p->name() + ": terminated by signal " + std::to_string(signum) +
                         "\n");
      k->ExitProcess(p, 128 + signum);
      k->sched().ExitCurrent();
    }
  }
  // Syscall return is the kernel's cooperative preemption point.
  if (k->sched().current() != nullptr) {
    k->sched().MaybePreempt();
  }
}

// ---------------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------------

Process* SyscallApi::CurrentProcess() const {
  Thread* t = k_->sched().current();
  return t == nullptr ? nullptr : t->process();
}

bool SyscallApi::CurrentIsFree() const {
  Process* p = CurrentProcess();
  return p != nullptr && p->free_run;
}

Status SyscallApi::CheckEnabled(Sys nr) const {
  if (k_->features().HasSyscall(nr)) {
    return Status::Ok();
  }
  return Status(Err::kNoSys, std::string(kbuild::SyscallName(nr)) + ": function not implemented");
}

void SyscallApi::ChargeKernel(Nanos cycles) {
  if (CurrentIsFree()) {
    return;
  }
  k_->sched().ChargeCpu(k_->costs().KernelCycles(k_->features(), cycles));
}

void SyscallApi::ChargeCopy(Bytes bytes) {
  ChargeKernel(static_cast<Nanos>(k_->costs().copy_per_byte * static_cast<double>(bytes)));
}

Result<std::shared_ptr<FileDescription>> SyscallApi::LookupFd(int fd) {
  Process* p = CurrentProcess();
  if (p == nullptr) {
    return Status(Err::kBadF, "no current process");
  }
  auto file = p->GetFd(fd);
  if (file == nullptr) {
    return Status(Err::kBadF, "bad file descriptor " + std::to_string(fd));
  }
  return file;
}

void SyscallApi::Compute(Nanos cpu) {
  // User-mode cycles: unaffected by kernel hardening, but -Os kernels do not
  // slow user code either.
  k_->sched().ChargeCpu(cpu);
}

// ---------------------------------------------------------------------------
// Identity / time / misc.
// ---------------------------------------------------------------------------

Result<int> SyscallApi::Getpid() {
  Scope scope(this, Sys::kGetpid);
  if (!scope.ok()) {
    return scope.status();
  }
  ChargeKernel(k_->costs().work_getppid);
  Process* p = CurrentProcess();
  return p == nullptr ? 0 : p->pid();
}

Result<int> SyscallApi::Getppid() {
  Scope scope(this, Sys::kGetppid);
  if (!scope.ok()) {
    return scope.status();
  }
  ChargeKernel(k_->costs().work_getppid);
  Process* p = CurrentProcess();
  return p == nullptr ? 0 : p->ppid();
}

Result<Nanos> SyscallApi::ClockGettime() {
  Scope scope(this, Sys::kClockGettime);
  if (!scope.ok()) {
    return scope.status();
  }
  ChargeKernel(20);
  return k_->clock().now();
}

Result<std::string> SyscallApi::Uname() {
  Scope scope(this, Sys::kUname);
  if (!scope.ok()) {
    return scope.status();
  }
  ChargeKernel(60);
  std::string version = "Linux lupine 4.0.0";
  if (k_->features().kml) {
    version += "-kml";
  }
  return version + " x86_64";
}

Status SyscallApi::Sethostname(const std::string& name) {
  Scope scope(this, Sys::kSethostname);
  if (!scope.ok()) {
    return scope.status();
  }
  ChargeKernel(80);
  ChargeCopy(name.size());
  return Status::Ok();
}

Status SyscallApi::Setrlimit(int resource, uint64_t value) {
  Scope scope(this, Sys::kSetrlimit);
  if (!scope.ok()) {
    return scope.status();
  }
  (void)resource;
  (void)value;
  ChargeKernel(90);
  return Status::Ok();
}

Status SyscallApi::Sigaction(int signum) {
  Scope scope(this, Sys::kSigaction);
  if (!scope.ok()) {
    return scope.status();
  }
  (void)signum;
  ChargeKernel(k_->costs().work_sig_inst);
  return Status::Ok();
}

Status SyscallApi::SigactionHandler(int signum, std::function<void(int)> handler) {
  Scope scope(this, Sys::kSigaction);
  if (!scope.ok()) {
    return scope.status();
  }
  Process* p = CurrentProcess();
  if (p == nullptr) {
    return Status(Err::kInval, "sigaction outside any process");
  }
  ChargeKernel(k_->costs().work_sig_inst);
  if (handler == nullptr) {
    p->signal_handlers.erase(signum);
  } else {
    p->signal_handlers[signum] = std::move(handler);
  }
  return Status::Ok();
}

Status SyscallApi::Kill(int pid, int signum) {
  Scope scope(this, Sys::kKill);
  if (!scope.ok()) {
    return scope.status();
  }
  ChargeKernel(200);
  Process* target = k_->FindProcess(pid);
  if (target == nullptr || target->exited) {
    return Status(Err::kNoEnt, "kill: no such process " + std::to_string(pid));
  }
  target->pending_signals.push_back(signum);
  return Status::Ok();
}

Status SyscallApi::SignalSelf(int signum) {
  Scope scope(this, Sys::kKill);
  if (!scope.ok()) {
    return scope.status();
  }
  (void)signum;
  // Queue + frame setup + sigreturn: a handler dispatch round trip.
  ChargeKernel(k_->costs().work_sig_handle);
  Process* p = CurrentProcess();
  bool kml = p != nullptr && p->kml_capable;
  k_->sched().ChargeCpu(2 * k_->costs().Transition(k_->features(), kml));
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Processes and threads.
// ---------------------------------------------------------------------------

Result<int> SyscallApi::Fork(std::function<int(SyscallApi&)> child) {
  Scope scope(this, Sys::kFork);
  if (!scope.ok()) {
    return scope.status();
  }
  Process* parent = CurrentProcess();
  if (parent == nullptr) {
    return Status(Err::kInval, "fork outside any process");
  }
  if (k_->features().single_process) {
    // Unikernel-style kernels have no second process to become: the stubbed
    // fork fails and applications typically crash (Section 5).
    k_->console().Write("fork: not supported (single-process library OS)\n");
    return Status(Err::kNoSys, "fork: not supported in a single-process unikernel");
  }

  auto child_as = parent->aspace().ForkCopy();
  if (!child_as.ok()) {
    k_->set_oom();
    return Status(Err::kNoMem, "fork: cannot allocate memory");
  }
  const CostModel& c = k_->costs();
  Nanos cost = c.fork_base + c.fork_per_vma * static_cast<Nanos>(parent->aspace().vma_count()) +
               c.fork_per_page_table_page *
                   static_cast<Nanos>(parent->aspace().page_table_pages());
  ChargeKernel(cost);

  std::shared_ptr<AddressSpace> shared_as(child_as.take().release());
  Process* cp = k_->CreateProcess(parent->pid(), std::move(shared_as), parent->name());
  cp->env = parent->env;
  cp->cwd = parent->cwd;
  cp->kml_capable = parent->kml_capable;
  cp->free_run = parent->free_run;
  cp->heap_vma = parent->heap_vma;
  cp->heap_size = parent->heap_size;
  cp->CloneFdTableFrom(*parent);

  SyscallApi* api = this;
  Kernel* kernel = k_;
  k_->sched().Spawn(cp, [api, kernel, cp, body = std::move(child)]() {
    int code = body(*api);
    kernel->ExitProcess(cp, code);
    kernel->sched().ExitCurrent();
  });
  return cp->pid();
}

void SyscallApi::Exit(int code) {
  {
    Scope scope(this, Sys::kExit);
    Process* p = CurrentProcess();
    ChargeKernel(800);
    k_->ExitProcess(p, code);
  }
  k_->sched().ExitCurrent();
}

Result<int> SyscallApi::Wait4(int pid) {
  Scope scope(this, Sys::kWait4);
  if (!scope.ok()) {
    return scope.status();
  }
  Process* self = CurrentProcess();
  if (self == nullptr) {
    return Status(Err::kInval, "wait4 outside any process");
  }
  ChargeKernel(400);

  for (;;) {
    // Scan children for an un-reaped exited one.
    bool have_candidate = false;
    for (int child_pid : self->children) {
      if (pid != -1 && child_pid != pid) {
        continue;
      }
      Process* child = k_->FindProcess(child_pid);
      if (child == nullptr || child->reaped) {
        continue;
      }
      have_candidate = true;
      if (child->exited) {
        child->reaped = true;
        return child->exit_code;
      }
    }
    if (!have_candidate) {
      return Status(Err::kChild, "no child processes");
    }
    // Block until some child of ours exits (parent queue keyed as -pid).
    k_->ExitQueue(-self->pid()).Block();
  }
}

Result<int> SyscallApi::SpawnThread(std::function<void(SyscallApi&)> body) {
  Scope scope(this, Sys::kClone);
  if (!scope.ok()) {
    return scope.status();
  }
  Process* p = CurrentProcess();
  if (p == nullptr) {
    return Status(Err::kInval, "clone outside any process");
  }
  // Threads (CLONE_VM) are allowed even in single-process mode; unikernels
  // support threads, just not processes.
  ChargeKernel(k_->costs().thread_create);
  SyscallApi* api = this;
  Thread* t = k_->sched().Spawn(p, [api, body = std::move(body)]() { body(*api); });
  return t->tid();
}

void SyscallApi::SchedYield() {
  Scope scope(this, Sys::kSchedYield);
  ChargeKernel(k_->costs().sched_pick);
  k_->sched().YieldCurrent();
}

void SyscallApi::Nanosleep(Nanos duration) {
  Scope scope(this, Sys::kNanosleep);
  ChargeKernel(150);
  k_->sched().SleepCurrent(duration);
}

void SyscallApi::Pause() {
  Scope scope(this, Sys::kNanosleep);
  ChargeKernel(120);
  k_->PauseQueue().Block();
}

// ---------------------------------------------------------------------------
// Memory.
// ---------------------------------------------------------------------------

Result<int> SyscallApi::Mmap(Bytes length, bool populate) {
  Scope scope(this, Sys::kMmap);
  if (!scope.ok()) {
    return scope.status();
  }
  Process* p = CurrentProcess();
  if (p == nullptr) {
    return Status(Err::kInval, "mmap outside any process");
  }
  ChargeKernel(k_->costs().mmap_base);
  auto vma = p->aspace().Map(length, VmaKind::kData, "anon", /*populate_now=*/false);
  if (!vma.ok()) {
    k_->set_oom();
    return vma.status();
  }
  if (populate) {
    auto faults = p->aspace().Touch(vma.value(), 0, length);
    if (!faults.ok()) {
      k_->set_oom();
      return faults.status();
    }
    ChargeKernel(static_cast<Nanos>(faults.value()) *
                 (k_->costs().page_fault + k_->costs().page_zero));
  }
  return vma.value();
}

Status SyscallApi::Munmap(int vma_id) {
  Scope scope(this, Sys::kMunmap);
  if (!scope.ok()) {
    return scope.status();
  }
  Process* p = CurrentProcess();
  if (p == nullptr) {
    return Status(Err::kInval, "munmap outside any process");
  }
  ChargeKernel(k_->costs().mmap_base / 2);
  return p->aspace().Unmap(vma_id);
}

Status SyscallApi::BrkGrow(Bytes bytes) {
  Scope scope(this, Sys::kBrk);
  if (!scope.ok()) {
    return scope.status();
  }
  Process* p = CurrentProcess();
  if (p == nullptr) {
    return Status(Err::kInval, "brk outside any process");
  }
  ChargeKernel(300);
  if (p->heap_vma < 0) {
    auto vma = p->aspace().Map(kHeapReserve, VmaKind::kHeap, "heap");
    if (!vma.ok()) {
      k_->set_oom();
      return vma.status();
    }
    p->heap_vma = vma.value();
    p->heap_size = 0;
  }
  p->heap_size += bytes;
  return Status::Ok();
}

Status SyscallApi::TouchHeap(Bytes offset, Bytes length) {
  // Page faults, not syscalls: no Scope.
  Process* p = CurrentProcess();
  if (p == nullptr || p->heap_vma < 0) {
    return Status(Err::kFault, "no heap");
  }
  if (offset + length > p->heap_size) {
    return Status(Err::kFault, "touch beyond brk");
  }
  auto faults = p->aspace().Touch(p->heap_vma, offset, length);
  if (!faults.ok()) {
    k_->set_oom();
    return faults.status();
  }
  if (!CurrentIsFree()) {
    ChargeKernel(static_cast<Nanos>(faults.value()) *
                 (k_->costs().page_fault + k_->costs().page_zero));
  }
  return Status::Ok();
}

}  // namespace lupine::guestos
