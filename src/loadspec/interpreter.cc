#include "src/loadspec/interpreter.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <utility>

#include "src/guestos/kernel.h"
#include "src/guestos/syscall_api.h"
#include "src/loadspec/actions.h"
#include "src/loadspec/parser.h"
#include "src/unikernels/linux_system.h"
#include "src/util/prng.h"
#include "src/util/scheduler.h"
#include "src/vmm/vm.h"
#include "src/workload/spawn.h"

namespace lupine::loadspec {
namespace {

using guestos::SyscallApi;

Result<unikernels::LinuxVariantSpec> VariantFor(const std::string& name) {
  if (name == "microvm") return unikernels::MicrovmSpec();
  if (name == "lupine") return unikernels::LupineSpec();
  if (name == "lupine-nokml") return unikernels::LupineNokmlSpec();
  if (name == "lupine-tiny") return unikernels::LupineTinySpec();
  if (name == "lupine-nokml-tiny") return unikernels::LupineNokmlTinySpec();
  if (name == "lupine-general") return unikernels::LupineGeneralSpec();
  if (name == "lupine-general-nokml") return unikernels::LupineGeneralNokmlSpec();
  return Status(Err::kInval, "loadspec: unknown variant " + name);
}

// One worker's execution state, heap-pinned so the spawn closure and the
// channel-wiring pass can both reach it.
struct WorkerPlan {
  const GroupSpec* group = nullptr;
  int worker = 0;
  std::unique_ptr<ActionCtx> ctx = std::make_unique<ActionCtx>();
  guestos::Process* process = nullptr;  // fd-install target
  uint64_t completed = 0;               // iterations; written by the fiber
};

// The per-iteration loop every worker runs: optional pacing on the virtual
// clock (period scaled by the active phase's intensity), then the action
// list in order.
void RunWorkerLoop(SyscallApi& sys, const ScenarioSpec& spec, WorkerPlan* plan,
                   Nanos t0) {
  const GroupSpec& group = *plan->group;
  ActionCtx& ctx = *plan->ctx;
  ctx.sys = &sys;
  Nanos next_release = t0;
  for (int iter = 0; iter < group.iterations; ++iter) {
    if (group.period > 0) {
      const Nanos now = sys.kernel()->clock().now();
      if (now < next_release) {
        sys.Nanosleep(next_release - now);
      }
      const double intensity = IntensityAt(spec.phases, next_release - t0);
      next_release += static_cast<Nanos>(static_cast<double>(group.period) / intensity);
    }
    for (const ActionSpec& action : group.actions) {
      if (const ActionDef* def = FindAction(action.op)) {
        def->run(action, ctx);
      }
    }
    ++plan->completed;
  }
}

struct VmTaskResult {
  VmRunResult vm;
  std::map<std::string, uint64_t> group_iterations;
  Status status = Status::Ok();
};

VmTaskResult RunOneVm(const ScenarioSpec& spec, const VmEntrySpec& entry,
                      size_t vm_index, const ScenarioOptions& options) {
  VmTaskResult out;
  out.vm.name = entry.name;
  out.vm.variant = entry.variant;

  auto variant = VariantFor(entry.variant);
  if (!variant.ok()) {
    out.status = variant.status();
    return out;
  }
  if (options.kml_override >= 0) {
    variant->kml = options.kml_override != 0;
  }
  out.vm.kml = variant->kml;

  unikernels::LinuxSystem system(variant.value());
  auto made = system.MakeVm(entry.app, entry.memory, /*bench_rootfs=*/true);
  if (!made.ok()) {
    out.status = made.status();
    return out;
  }
  std::unique_ptr<vmm::Vm> vm = made.take();
  if (Status s = vm->Boot(); !s.ok()) {
    out.status = s;
    return out;
  }
  guestos::Kernel& k = vm->kernel();
  k.Run();           // Drain init so the figures cover scenario work only.
  k.trace().Clear();
  const Nanos t0 = k.clock().now();

  // Deterministic per-worker PRNG streams: the scenario seed, xored with
  // the VM's spec index, forked in (group, worker) order. Host scheduling
  // of VM tasks never touches the streams.
  Prng vm_prng(spec.seed ^ (0x9E3779B97F4A7C15ull * (vm_index + 1)));

  // Spawn every worker of every group homed on this VM. Thread-mode groups
  // get one leader process whose main thread is worker 0; it spawns the
  // siblings and futex-joins them so the process outlives every worker.
  std::map<std::string, std::unique_ptr<GroupShared>> shared;
  std::vector<std::unique_ptr<WorkerPlan>> plans;
  std::map<std::string, std::vector<WorkerPlan*>> by_group;
  for (const GroupSpec& group : spec.groups) {
    if (group.vm != entry.name) {
      continue;
    }
    auto& group_shared =
        shared.emplace(group.name, std::make_unique<GroupShared>()).first->second;
    group_shared->workers = group.workers;
    std::vector<WorkerPlan*> members;
    for (int w = 0; w < group.workers; ++w) {
      auto plan = std::make_unique<WorkerPlan>();
      plan->group = &group;
      plan->worker = w;
      plan->ctx->worker = w;
      plan->ctx->group = group_shared.get();
      plan->ctx->prng = vm_prng.Fork();
      members.push_back(plan.get());
      plans.push_back(std::move(plan));
    }
    if (group.threads) {
      guestos::Process* process = workload::SpawnProcess(
          k, group.name, [&spec, members, t0](SyscallApi& sys) {
            auto done = std::make_shared<int>(0);
            const int siblings = static_cast<int>(members.size()) - 1;
            for (size_t w = 1; w < members.size(); ++w) {
              WorkerPlan* plan = members[w];
              (void)sys.SpawnThread([&spec, plan, t0, done](SyscallApi& ts) {
                RunWorkerLoop(ts, spec, plan, t0);
                ++*done;
                (void)ts.FutexWake(done.get(), 1);
              });
            }
            RunWorkerLoop(sys, spec, members.front(), t0);
            while (*done < siblings) {
              (void)sys.FutexWait(done.get(), *done);
            }
          });
      for (WorkerPlan* plan : members) {
        plan->process = process;  // threads share the leader's fd table
      }
    } else {
      for (WorkerPlan* plan : members) {
        plan->process = workload::SpawnProcess(
            k, group.name + "." + std::to_string(plan->worker),
            [&spec, plan, t0](SyscallApi& sys) { RunWorkerLoop(sys, spec, plan, t0); });
      }
    }
    by_group.emplace(group.name, std::move(members));
  }

  // Wire channels: a full bipartite pairing between the two groups' workers,
  // fds installed before the scheduler first runs any fiber.
  for (const ChannelSpec& channel : spec.channels) {
    auto from_it = by_group.find(channel.from);
    auto to_it = by_group.find(channel.to);
    if (from_it == by_group.end() || to_it == by_group.end()) {
      continue;  // channel belongs to another VM
    }
    for (WorkerPlan* from : from_it->second) {
      for (WorkerPlan* to : to_it->second) {
        ChannelEnds& fe = from->ctx->channels[channel.name];
        ChannelEnds& te = to->ctx->channels[channel.name];
        fe.kind = te.kind = channel.kind;
        if (channel.kind == ChannelKind::kPipe) {
          // Two pipes per pair so ping-pong works.
          auto forward = std::make_shared<guestos::PipeBuffer>(&k.sched());
          auto backward = std::make_shared<guestos::PipeBuffer>(&k.sched());
          fe.out_fds.push_back(
              workload::InstallPipeEnd(from->process, forward, /*read_end=*/false));
          fe.in_fds.push_back(
              workload::InstallPipeEnd(from->process, backward, /*read_end=*/true));
          te.in_fds.push_back(
              workload::InstallPipeEnd(to->process, forward, /*read_end=*/true));
          te.out_fds.push_back(
              workload::InstallPipeEnd(to->process, backward, /*read_end=*/false));
        } else {
          const auto type = channel.kind == ChannelKind::kUnixStream
                                ? guestos::SockType::kStream
                                : guestos::SockType::kDgram;
          auto [sa, sb] = k.net().CreatePair(type);
          const int fa = workload::InstallSocket(from->process, sa);
          const int fb = workload::InstallSocket(to->process, sb);
          fe.out_fds.push_back(fa);
          fe.in_fds.push_back(fa);
          te.out_fds.push_back(fb);
          te.in_fds.push_back(fb);
        }
      }
    }
  }

  out.vm.blocked = k.Run();
  out.vm.elapsed = k.clock().now() - t0;
  out.vm.syscalls = k.trace().accounted_syscalls();
  const auto& stats = k.trace().syscall_stats();
  for (size_t i = 0; i < stats.size(); ++i) {
    if (stats[i].count > 0) {
      out.vm.syscall_stats.emplace_back(
          kbuild::SyscallName(static_cast<kbuild::Sys>(i)), stats[i]);
    }
  }
  for (const auto& [name, members] : by_group) {
    uint64_t iterations = 0;
    for (const WorkerPlan* plan : members) {
      iterations += plan->completed;
    }
    out.group_iterations[name] = iterations;
  }

  if (options.metrics != nullptr) {
    guestos::PublishSyscallMetrics(k.trace(), *options.metrics, entry.app,
                                   variant->kml);
  }
  if (options.journal != nullptr) {
    options.journal->Emit(0, "loadspec", "vm-start",
                          {{"vm", entry.name},
                           {"variant", entry.variant},
                           {"app", entry.app},
                           {"kml", variant->kml}});
    for (const auto& [name, iterations] : out.group_iterations) {
      options.journal->Emit(out.vm.elapsed, "loadspec", "group-done",
                            {{"vm", entry.name},
                             {"group", name},
                             {"iterations", iterations}});
    }
    options.journal->Emit(out.vm.elapsed, "loadspec", "vm-done",
                          {{"vm", entry.name},
                           {"elapsed_ns", static_cast<int64_t>(out.vm.elapsed)},
                           {"blocked", static_cast<int64_t>(out.vm.blocked)},
                           {"syscalls", out.vm.syscalls}});
  }
  return out;
}

void CheckExpect(const ScenarioSpec& spec, ScenarioResult* result) {
  char line[256];
  for (const ExpectSpec& expect : spec.expect) {
    double value = 0;
    std::string label = expect.metric;
    if (expect.metric == "elapsed_ms") {
      value = ToMillis(result->elapsed);
    } else if (expect.metric == "iterations") {
      if (expect.group.empty()) {
        value = static_cast<double>(result->total_iterations);
      } else {
        label += "(" + expect.group + ")";
        for (const GroupResult& group : result->groups) {
          if (group.name == expect.group) {
            value = static_cast<double>(group.iterations);
          }
        }
      }
    } else if (expect.metric == "syscall_count") {
      label += "(" + expect.syscall + ")";
      value = static_cast<double>(result->SyscallCount(expect.syscall));
    } else if (expect.metric == "blocked") {
      value = static_cast<double>(result->blocked);
    }
    if (expect.has_min && value < expect.min) {
      std::snprintf(line, sizeof(line), "%s = %.3f below expected min %.3f",
                    label.c_str(), value, expect.min);
      result->failures.emplace_back(line);
    }
    if (expect.has_max && value > expect.max) {
      std::snprintf(line, sizeof(line), "%s = %.3f above expected max %.3f",
                    label.c_str(), value, expect.max);
      result->failures.emplace_back(line);
    }
  }
}

}  // namespace

uint64_t ScenarioResult::SyscallCount(std::string_view name) const {
  uint64_t total = 0;
  for (const VmRunResult& vm : vms) {
    for (const auto& [sys_name, stat] : vm.syscall_stats) {
      if (sys_name == name) {
        total += stat.count;
      }
    }
  }
  return total;
}

std::string ScenarioResult::CanonicalFiguresInput() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "scenario=%s elapsed=%lld iterations=%llu blocked=%zu\n",
                name.c_str(), static_cast<long long>(elapsed),
                static_cast<unsigned long long>(total_iterations), blocked);
  out += line;
  for (const GroupResult& group : groups) {
    std::snprintf(line, sizeof(line), "group %s iterations=%llu\n", group.name.c_str(),
                  static_cast<unsigned long long>(group.iterations));
    out += line;
  }
  for (const VmRunResult& vm : vms) {
    std::snprintf(line, sizeof(line),
                  "vm %s variant=%s kml=%d elapsed=%lld blocked=%zu syscalls=%llu\n",
                  vm.name.c_str(), vm.variant.c_str(), vm.kml ? 1 : 0,
                  static_cast<long long>(vm.elapsed), vm.blocked,
                  static_cast<unsigned long long>(vm.syscalls));
    out += line;
    for (const auto& [sys_name, stat] : vm.syscall_stats) {
      std::snprintf(line, sizeof(line), "  %s count=%llu total=%llu min=%llu max=%llu\n",
                    sys_name.c_str(), static_cast<unsigned long long>(stat.count),
                    static_cast<unsigned long long>(stat.total_ns),
                    static_cast<unsigned long long>(stat.min_ns),
                    static_cast<unsigned long long>(stat.max_ns));
      out += line;
    }
  }
  for (const std::string& failure : failures) {
    out += "failure " + failure + "\n";
  }
  return out;
}

Result<ScenarioResult> RunScenario(const ScenarioSpec& spec,
                                   const ScenarioOptions& options) {
  ScenarioResult result;
  result.name = spec.name;

  // Each VM is a self-contained simulation: one scheduler task per VM, each
  // writing its own result slot.
  std::vector<VmTaskResult> tasks(spec.vms.size());
  WorkStealingScheduler::Options sched_options;
  sched_options.workers = std::max<size_t>(1, options.workers);
  WorkStealingScheduler scheduler(sched_options);
  for (size_t i = 0; i < spec.vms.size(); ++i) {
    WorkStealingScheduler::TaskSpec task;
    task.body = [&spec, i, &options, &tasks] {
      tasks[i] = RunOneVm(spec, spec.vms[i], i, options);
      return Nanos{0};
    };
    task.label = spec.vms[i].name;
    task.home = static_cast<int>(i % sched_options.workers);
    scheduler.Submit(std::move(task));
  }
  scheduler.Run();

  for (VmTaskResult& task : tasks) {
    if (!task.status.ok()) {
      return task.status;
    }
    result.elapsed = std::max(result.elapsed, task.vm.elapsed);
    result.blocked += task.vm.blocked;
    result.vms.push_back(std::move(task.vm));
  }
  for (const GroupSpec& group : spec.groups) {
    GroupResult gr;
    gr.name = group.name;
    for (const VmTaskResult& task : tasks) {
      auto it = task.group_iterations.find(group.name);
      if (it != task.group_iterations.end()) {
        gr.iterations += it->second;
      }
    }
    result.total_iterations += gr.iterations;
    result.groups.push_back(std::move(gr));
  }
  CheckExpect(spec, &result);
  return result;
}

}  // namespace lupine::loadspec
