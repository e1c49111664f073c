#include "src/workload/spawn.h"

namespace lupine::workload {

guestos::Process* SpawnProcess(guestos::Kernel& kernel, const std::string& name,
                               std::function<void(guestos::SyscallApi&)> body,
                               const SpawnOptions& options) {
  auto aspace = std::make_shared<guestos::AddressSpace>(&kernel.mm());
  guestos::Process* process = kernel.CreateProcess(/*ppid=*/1, std::move(aspace), name);
  process->free_run = options.free_run;
  process->kml_capable = options.kml_libc && kernel.features().kml;

  guestos::Kernel* k = &kernel;
  Bytes heap_bytes = options.heap_kb * kKiB;
  kernel.sched().Spawn(process, [k, process, heap_bytes, body = std::move(body)]() {
    guestos::SyscallApi& sys = k->sys();
    if (process->heap_vma < 0 && heap_bytes > 0) {
      (void)sys.BrkGrow(heap_bytes);
    }
    body(sys);
    k->ExitProcess(process, 0);
    k->sched().ExitCurrent();
  });
  return process;
}

int InstallPipeEnd(guestos::Process* process, const std::shared_ptr<guestos::PipeBuffer>& pipe,
                   bool read_end) {
  auto file = std::make_shared<guestos::FileDescription>();
  file->kind = read_end ? guestos::FdKind::kPipeRead : guestos::FdKind::kPipeWrite;
  file->pipe = pipe;
  return process->InstallFd(file);
}

int InstallSocket(guestos::Process* process, const std::shared_ptr<guestos::Socket>& sock) {
  auto file = std::make_shared<guestos::FileDescription>();
  file->kind = guestos::FdKind::kSocket;
  file->socket = sock;
  return process->InstallFd(file);
}

}  // namespace lupine::workload
