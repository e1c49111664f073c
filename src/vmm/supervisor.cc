#include "src/vmm/supervisor.h"

#include <algorithm>

#include "src/util/retry.h"

namespace lupine::vmm {
namespace {

// The health-probe grid a halted guest is discovered on, and the sliding
// window crash_loop_failures are counted in (see SupervisorPolicy).
constexpr Nanos kHealthCheckInterval = Millis(50);
constexpr Nanos kCrashLoopWindow = Seconds(300);

}  // namespace

const char* MemberStateName(MemberState state) {
  switch (state) {
    case MemberState::kPending:
      return "pending";
    case MemberState::kHealthy:
      return "healthy";
    case MemberState::kCompleted:
      return "completed";
    case MemberState::kBackoff:
      return "backoff";
    case MemberState::kDegraded:
      return "degraded";
  }
  return "unknown";
}

std::string Incident::ToString() const {
  std::string line = "[+" + FormatDuration(at) + "] " + vm + " " + kind;
  if (!detail.empty()) {
    line += ": " + detail;
  }
  return line;
}

Supervisor::Supervisor(SupervisorPolicy policy) : policy_(policy), master_(policy.seed) {}

void Supervisor::AddMember(std::string name, VmFactory factory, std::string ready_marker) {
  Member member;
  member.name = name;
  member.factory = std::move(factory);
  member.ready_marker = std::move(ready_marker);
  member.jitter = master_.Fork();
  members_.emplace(std::move(name), std::move(member));
}

size_t Supervisor::Run(Nanos horizon) {
  // Launch everything not yet started at the current supervisor time.
  for (auto& [name, member] : members_) {
    if (member.stats.state == MemberState::kPending) {
      queue_.push({clock_.now(), next_seq_++, &member});
    }
  }
  while (!queue_.empty()) {
    PendingStart next = queue_.top();
    if (next.due > horizon) {
      break;  // Left queued: a later Run() with a larger horizon resumes.
    }
    queue_.pop();
    clock_.AdvanceTo(next.due);
    if (next.member->stats.state == MemberState::kDegraded) {
      continue;
    }
    Attempt(*next.member);
  }
  size_t unsettled = 0;
  for (const auto& [name, member] : members_) {
    if (member.stats.state != MemberState::kHealthy &&
        member.stats.state != MemberState::kCompleted) {
      ++unsettled;
    }
  }
  if (metrics_ != nullptr) {
    for (MemberState state : {MemberState::kPending, MemberState::kHealthy,
                              MemberState::kCompleted, MemberState::kBackoff,
                              MemberState::kDegraded}) {
      metrics_->GetGauge("supervisor.members", {{"state", MemberStateName(state)}})
          .Set(static_cast<int64_t>(count(state)));
    }
  }
  return unsettled;
}

bool Supervisor::Attempt(Member& member) {
  ++member.stats.attempts;
  const Nanos start = clock_.now();
  Emit(start, member, "boot", "attempt " + std::to_string(member.stats.attempts));

  std::unique_ptr<Vm> vm = member.factory();
  if (vm == nullptr) {
    OnFailure(member, start, "boot-failed", "factory returned no VM");
    return false;
  }
  Status boot = vm->Boot();
  guestos::Kernel& kernel = vm->kernel();

  if (!boot.ok()) {
    Nanos at = start + kernel.clock().now();
    clock_.AdvanceTo(at);
    OnFailure(member, at, "boot-failed", boot.ToString());
    return false;
  }

  kernel.Run();
  const Nanos at = start + kernel.clock().now();
  clock_.AdvanceTo(at);

  if (kernel.panicked()) {
    Emit(at, member, "panic", kernel.panic_reason());
    // Detection latency is where CONFIG_PANIC_TIMEOUT earns its keep: a
    // rebooting guest exits and the monitor knows at once; a halted guest
    // sits dead until the next health probe on the supervisor's grid.
    Nanos detect = at;
    if (!kernel.reboot_on_panic()) {
      detect = ((at / kHealthCheckInterval) + 1) * kHealthCheckInterval;
      clock_.AdvanceTo(detect);
    }
    OnFailure(member, detect, "crash", "panic: " + kernel.panic_reason());
    return false;
  }

  guestos::Process* init = kernel.FindProcess(1);
  const bool init_exited = init != nullptr && init->exited;

  if (member.ready_marker.empty()) {
    // Batch job: success is init exiting 0.
    if (init_exited && init->exit_code == 0) {
      member.stats.state = MemberState::kCompleted;
      if (member.stats.first_healthy_at < 0) {
        member.stats.first_healthy_at = at;
        if (metrics_ != nullptr) {
          metrics_->GetHistogram("supervisor.time_to_healthy_ns")
              .Observe(static_cast<double>(at));
        }
      }
      member.consecutive_failures = 0;
      Emit(at, member, "exit", "code=0");
      return true;
    }
    OnFailure(member, at, "crash",
              init_exited ? "init exited with code " + std::to_string(init->exit_code)
                          : "init blocked before completion");
    return false;
  }

  // Server: success is the readiness line with the guest parked in accept.
  if (!init_exited && kernel.console().Contains(member.ready_marker)) {
    member.vm = std::move(vm);
    member.stats.vm = member.vm.get();
    member.stats.state = MemberState::kHealthy;
    if (member.stats.first_healthy_at < 0) {
      member.stats.first_healthy_at = at;
      if (metrics_ != nullptr) {
        metrics_->GetHistogram("supervisor.time_to_healthy_ns")
            .Observe(static_cast<double>(at));
      }
    }
    member.consecutive_failures = 0;
    Emit(at, member, "ready", member.ready_marker);
    return true;
  }
  OnFailure(member, at, "crash",
            init_exited ? "server exited with code " + std::to_string(init->exit_code)
                        : "server never became ready");
  return false;
}

void Supervisor::OnFailure(Member& member, Nanos at, const std::string& kind,
                           const std::string& detail) {
  ++member.stats.failures;
  ++member.consecutive_failures;
  member.stats.last_failure_at = at;
  member.stats.last_error = detail;
  member.vm.reset();
  member.stats.vm = nullptr;
  Emit(at, member, kind, detail);

  // Crash-loop windowing.
  member.failure_times.push_back(at);
  while (!member.failure_times.empty() &&
         member.failure_times.front() + kCrashLoopWindow < at) {
    member.failure_times.pop_front();
  }
  if (static_cast<int>(member.failure_times.size()) >= policy_.crash_loop_failures) {
    member.stats.state = MemberState::kDegraded;
    Emit(at, member, "degraded",
         std::to_string(member.failure_times.size()) + " failures within " +
             FormatDuration(kCrashLoopWindow) + "; giving up");
    if (metrics_ != nullptr) {
      metrics_->GetCounter("supervisor.giveup_total").Increment();
    }
    return;
  }

  const Nanos delay = NextBackoff(member);
  member.stats.state = MemberState::kBackoff;
  Emit(at, member, "restart-scheduled", "backoff " + FormatDuration(delay));
  if (metrics_ != nullptr) {
    metrics_->GetHistogram("supervisor.backoff_ns").Observe(static_cast<double>(delay));
  }
  queue_.push({at + delay, next_seq_++, &member});
}

Nanos Supervisor::NextBackoff(Member& member) {
  // Shared backoff formula (util/retry): exponential growth clamped to the
  // policy cap, scaled by deterministic jitter from the member's private PRNG
  // stream — same seed => same schedule, but members decorrelate so a mass
  // crash doesn't restart the whole fleet in lockstep.
  const BackoffSpec spec{.jitter = policy_.backoff_jitter};
  bool capped = false;
  const Nanos delay = BackoffDelay(spec, member.consecutive_failures, member.jitter, &capped);
  if (capped && metrics_ != nullptr) {
    // A saturated backoff no longer spreads restarts out — the signal that
    // the policy cap is too low for this failure pattern.
    metrics_->GetCounter("supervisor.backoff_capped_total").Increment();
  }
  return delay;
}

void Supervisor::Emit(Nanos at, const Member& member, const std::string& kind,
                      const std::string& detail) {
  timeline_.push_back({at, member.name, kind, detail});
  if (metrics_ != nullptr) {
    metrics_->GetCounter("supervisor.incidents", {{"kind", kind}}).Increment();
  }
  if (journal_ != nullptr) {
    journal_->Emit(at, "supervisor", kind,
                   {{"vm", telemetry::FieldValue{member.name}},
                    {"detail", telemetry::FieldValue{detail}}});
  }
}

MemberState Supervisor::state(const std::string& name) const {
  auto it = members_.find(name);
  return it == members_.end() ? MemberState::kPending : it->second.stats.state;
}

const Supervisor::MemberStats& Supervisor::stats(const std::string& name) const {
  static const MemberStats kEmpty;
  auto it = members_.find(name);
  return it == members_.end() ? kEmpty : it->second.stats;
}

size_t Supervisor::count(MemberState state) const {
  size_t n = 0;
  for (const auto& [name, member] : members_) {
    if (member.stats.state == state) {
      ++n;
    }
  }
  return n;
}

std::string Supervisor::TimelineText(const std::string& name) const {
  std::string out;
  for (const Incident& incident : timeline_) {
    if (!name.empty() && incident.vm != name) {
      continue;
    }
    out += incident.ToString();
    out += '\n';
  }
  return out;
}

}  // namespace lupine::vmm
