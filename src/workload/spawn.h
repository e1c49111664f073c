// Helpers to inject benchmark processes into a running guest.
//
// Microbenchmarks (lmbench, perf messaging, stressors) execute inside the
// guest like any process, but are injected directly instead of going through
// a rootfs binary; load generators are marked free-running so the guest
// clock isolates server-side costs (the paper runs clients on dedicated
// host CPUs).
#ifndef SRC_WORKLOAD_SPAWN_H_
#define SRC_WORKLOAD_SPAWN_H_

#include <functional>
#include <string>

#include "src/guestos/kernel.h"
#include "src/guestos/syscall_api.h"

namespace lupine::workload {

struct SpawnOptions {
  bool free_run = false;   // External load generator: zero guest cost.
  bool kml_libc = true;    // Linked against the KML-patched libc.
  Bytes heap_kb = 256;     // Startup heap.
};

// Creates a process running `body`; the process exits when `body` returns.
guestos::Process* SpawnProcess(guestos::Kernel& kernel, const std::string& name,
                               std::function<void(guestos::SyscallApi&)> body,
                               const SpawnOptions& options = {});

// Installs one end of a kernel-created pipe into `process`, returning the
// fd — how injected benchmark processes get pre-wired IPC topologies
// without a common fork ancestor (lmbench rings, hackbench groups,
// loadspec channels).
int InstallPipeEnd(guestos::Process* process, const std::shared_ptr<guestos::PipeBuffer>& pipe,
                   bool read_end);

// Same for a socket endpoint (AF_UNIX/TCP pairs from NetStack::CreatePair).
int InstallSocket(guestos::Process* process, const std::shared_ptr<guestos::Socket>& sock);

}  // namespace lupine::workload

#endif  // SRC_WORKLOAD_SPAWN_H_
