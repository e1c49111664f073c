// Supervisor: the host-side process that keeps a fleet of unikernels alive.
//
// A Lupine guest cannot recover from its own faults — the application is the
// kernel, so a crash takes the whole VM down and recovery is the monitor's
// job (the Firecracker production posture; MultiK-style fleets likewise rely
// on an orchestrator that survives member crashes). The Supervisor owns one
// slot per fleet member, boots it, watches for panics / failed boots /
// non-zero init exits, restarts crashed members with exponential backoff and
// deterministic jitter, detects crash loops (N failures inside a sliding
// window) and quarantines such members as degraded instead of burning host
// CPU on them forever.
//
// Everything runs on a supervisor-owned VirtualClock, so a given fleet +
// fault plan + seed reproduces its incident timeline byte for byte.
//
// Threading: a Supervisor is instance-confined. It owns no globals and is
// safe to construct, drive and destroy entirely on one thread, such as one
// scheduler worker's. What is NOT supported is sharing one Supervisor (or
// its VMs) across threads: guest fibers are thread-local, so every VM must
// run its whole life on the thread that called Run().
#ifndef SRC_VMM_SUPERVISOR_H_
#define SRC_VMM_SUPERVISOR_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "src/telemetry/journal.h"
#include "src/telemetry/metrics.h"
#include "src/util/prng.h"
#include "src/util/vclock.h"
#include "src/vmm/vm.h"

namespace lupine::vmm {

// Members are probed every 50 ms: a guest that halts on panic
// (PANIC_TIMEOUT=0) is only discovered dead at the next probe; a guest that
// reboots (PANIC_TIMEOUT!=0) tells the monitor immediately. Restarts back off
// on util/retry's BackoffSpec curve (100 ms doubling up to 30 s), and the
// crash-loop window is 300 s.
struct SupervisorPolicy {
  // Jitter fraction applied to every backoff (uniform in [1-j, 1+j]),
  // drawn from a per-member PRNG forked off `seed` — deterministic.
  double backoff_jitter = 0.1;
  // Crash-loop detection: this many failures within the window => the
  // member is marked degraded and no longer restarted.
  int crash_loop_failures = 5;
  uint64_t seed = 0x5EED;
};

enum class MemberState {
  kPending,    // Registered, first boot not attempted yet.
  kHealthy,    // Serving (server blocked in accept) — or batch job running.
  kCompleted,  // Batch init exited 0; nothing left to supervise.
  kBackoff,    // Crashed; restart scheduled.
  kDegraded,   // Crash-looping; given up, needs operator attention.
};

const char* MemberStateName(MemberState state);

// One line of a member's incident timeline.
struct Incident {
  Nanos at = 0;             // Supervisor clock.
  std::string vm;           // Member name.
  std::string kind;         // "boot" | "ready" | "exit" | "boot-failed" |
                            // "panic" | "restart-scheduled" | "degraded".
  std::string detail;

  std::string ToString() const;
};

class Supervisor {
 public:
  // Builds a fresh Vm for a (re)start. Restarts call it again: a crashed
  // VM's memory image is gone, exactly like a real monitor re-exec.
  using VmFactory = std::function<std::unique_ptr<Vm>()>;

  explicit Supervisor(SupervisorPolicy policy = {});

  // Registers a fleet member. `ready_marker` empty = batch job (healthy
  // means init exits 0, then the member is completed); non-empty = server
  // (healthy means the console printed the marker and the guest is parked
  // in accept). Boot happens inside Run().
  void AddMember(std::string name, VmFactory factory, std::string ready_marker = "");

  // Event loop: boots every member at t=0 and supervises until the fleet is
  // quiescent (every member healthy, completed or degraded) or the horizon
  // passes. Returns the number of members not healthy/completed.
  size_t Run(Nanos horizon = Seconds(600));

  // Optional, non-owning metric sink. When set, every incident increments
  // `supervisor.incidents{kind}`, backoffs and time-to-first-healthy land in
  // histograms, Run() refreshes `supervisor.members{state}` gauges, and two
  // counters watch the restart policy itself: `supervisor.giveup_total`
  // (members declared degraded) and `supervisor.backoff_capped_total`
  // (backoffs that saturated the policy cap). Set before Run(); the registry
  // must outlive the supervisor.
  void set_metrics(telemetry::MetricRegistry* metrics) { metrics_ = metrics; }

  // Optional, non-owning flight-recorder sink. Every incident (boot, ready,
  // exit, boot-failed, panic, restart-scheduled, degraded) is mirrored as a
  // journal event under source "supervisor", stamped with the supervisor's
  // own virtual clock — deterministic for a given fleet + plan + seed. Set
  // before Run(); the journal must outlive the supervisor.
  void set_journal(telemetry::Journal* journal) { journal_ = journal; }

  // --- Inspection -----------------------------------------------------------
  struct MemberStats {
    MemberState state = MemberState::kPending;
    int attempts = 0;           // Boot attempts, including the first.
    int failures = 0;           // Crashes + failed boots, lifetime.
    Nanos first_healthy_at = -1;
    Nanos last_failure_at = -1;
    std::string last_error;
    // The live VM of a healthy member (nullptr otherwise).
    Vm* vm = nullptr;
  };
  MemberState state(const std::string& name) const;
  const MemberStats& stats(const std::string& name) const;
  size_t count(MemberState state) const;
  size_t member_count() const { return members_.size(); }

  const std::vector<Incident>& timeline() const { return timeline_; }
  // Per-VM incident timeline (all members interleaved when name empty) in a
  // stable text form — two same-seed runs produce identical bytes.
  std::string TimelineText(const std::string& name = "") const;

  const VirtualClock& clock() const { return clock_; }

 private:
  struct Member {
    std::string name;
    VmFactory factory;
    std::string ready_marker;
    MemberStats stats;
    std::unique_ptr<Vm> vm;      // Kept alive while healthy.
    Prng jitter;                 // Forked off policy seed; per-member stream.
    int consecutive_failures = 0;
    std::deque<Nanos> failure_times;  // For crash-loop windowing.
  };

  // Boots + runs one attempt; emits incidents; returns true when the
  // member ended up healthy/completed.
  bool Attempt(Member& member);
  // Handles a failure at supervisor time `at`: windowing, degradation,
  // backoff scheduling.
  void OnFailure(Member& member, Nanos at, const std::string& kind,
                 const std::string& detail);
  void Emit(Nanos at, const Member& member, const std::string& kind,
            const std::string& detail);
  Nanos NextBackoff(Member& member);

  SupervisorPolicy policy_;
  telemetry::MetricRegistry* metrics_ = nullptr;
  telemetry::Journal* journal_ = nullptr;
  VirtualClock clock_;
  Prng master_;  // Seeds per-member jitter streams, in AddMember order.
  std::map<std::string, Member> members_;
  std::vector<Incident> timeline_;

  // Restart queue ordered by due time (FIFO among equal times).
  struct PendingStart {
    Nanos due;
    uint64_t seq;
    Member* member;
    bool operator>(const PendingStart& other) const {
      return due != other.due ? due > other.due : seq > other.seq;
    }
  };
  std::priority_queue<PendingStart, std::vector<PendingStart>, std::greater<PendingStart>>
      queue_;
  uint64_t next_seq_ = 0;
};

}  // namespace lupine::vmm

#endif  // SRC_VMM_SUPERVISOR_H_
