// Scenario execution: materializes a validated ScenarioSpec into guest
// processes/threads running inside booted vmm::Vm instances.
//
// Per VM entry the interpreter boots the named variant (bench rootfs),
// drains init, clears the syscall accounting so the figures cover scenario
// work only, wires the declared channel topologies with pre-installed fds
// (the lmbench injection pattern), spawns each group's workers, and runs
// the guest to quiescence. VMs are independent simulations on independent
// virtual clocks, so each runs as one task on util/scheduler's host
// workers; every reported figure is a pure function of (spec, options) and byte-identical
// across 1/2/4/8 host workers. Journal events are stamped with VM-relative
// virtual times and ride Journal's canonical sort.
#ifndef SRC_LOADSPEC_INTERPRETER_H_
#define SRC_LOADSPEC_INTERPRETER_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/guestos/trace.h"
#include "src/loadspec/spec.h"
#include "src/telemetry/journal.h"
#include "src/telemetry/metrics.h"
#include "src/util/result.h"

namespace lupine::loadspec {

struct ScenarioOptions {
  size_t workers = 1;         // host threads across VM simulations
  int kml_override = -1;      // -1 = per spec variant; 0/1 force off/on
  telemetry::Journal* journal = nullptr;          // optional flight record
  telemetry::MetricRegistry* metrics = nullptr;   // optional guest.syscall_*
};

struct GroupResult {
  std::string name;
  uint64_t iterations = 0;    // completed iterations summed over workers
};

struct VmRunResult {
  std::string name;
  std::string variant;
  bool kml = false;
  Nanos elapsed = 0;          // virtual ns, scenario start -> quiescence
  size_t blocked = 0;         // threads still blocked at quiescence
  uint64_t syscalls = 0;      // accounted guest syscalls (scenario only)
  // Non-zero per-syscall rows in syscall-number order: (name, stat).
  std::vector<std::pair<std::string, guestos::SyscallStat>> syscall_stats;
};

struct ScenarioResult {
  std::string name;
  Nanos elapsed = 0;          // max across VMs
  uint64_t total_iterations = 0;
  size_t blocked = 0;         // summed across VMs
  std::vector<GroupResult> groups;    // spec order
  std::vector<VmRunResult> vms;       // spec order
  std::vector<std::string> failures;  // violated expect assertions

  bool ok() const { return failures.empty(); }
  uint64_t SyscallCount(std::string_view name) const;

  // Everything the determinism contract covers, as one canonical string
  // (append the journal's canonical export before hashing).
  std::string CanonicalFiguresInput() const;
};

// Runs a validated spec. Fails (kInval) when a VM cannot be built or
// booted; expect-assertion violations are reported in `failures`, not as a
// Status, so benches can print them.
Result<ScenarioResult> RunScenario(const ScenarioSpec& spec,
                                   const ScenarioOptions& options = {});

}  // namespace lupine::loadspec

#endif  // SRC_LOADSPEC_INTERPRETER_H_
