// Deterministic fault injection.
//
// A Lupine unikernel runs its application in ring 0: an application fault is
// a kernel fault, and the guest cannot recover itself — it relies on the
// monitor to notice and restart it (Section 2.2's Firecracker posture). To
// exercise that recovery machinery the simulator needs failures on demand.
// A FaultPlan names injection sites in the guest (memory allocation, rootfs
// I/O, the net stack, boot phases, syscall entry) and when they fire: on the
// Nth evaluation, periodically, or with a seeded Bernoulli probability.
// Everything draws from util/prng on the virtual clock, so a plan replays
// byte-identically run after run.
//
// The zero-fault path is a null object: a default-constructed FaultInjector
// is permanently disarmed and Check() is a single predicted branch, so
// threading an injector through the kernel costs nothing when unused.
#ifndef SRC_UTIL_FAULT_H_
#define SRC_UTIL_FAULT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/prng.h"
#include "src/util/result.h"
#include "src/util/units.h"

namespace lupine {

// Named injection sites, each checked at exactly one place in the guest.
enum class FaultSite {
  kMemAlloc,          // MemoryManager::AllocatePages -> ENOMEM.
  kVfsIo,             // File read through the syscall layer -> EIO.
  kRootfsCorrupt,     // Rootfs blob corrupted before mount -> boot fails.
  kBootDecompress,    // Kernel image decompression -> boot fails.
  kBootInitcall,      // An initcall returns an error -> boot fails.
  kNetRecvReset,      // Stream recv -> ECONNRESET.
  kNetSendDrop,       // Packet dropped on send -> retransmission delay.
  kSyscallTransient,  // Syscall entry -> EINTR/EAGAIN, restarted (extra cost).
  kAppFault,          // Wild access in the application -> ring-0 oops/panic.
  kBootStall,         // Decompressor wedges: boot completes but only after a
                      // huge virtual stall — what a stage deadline exists for.
  kSnapshotRestore,   // Snapshot memory file corrupt / ABI mismatch: the
                      // restore fails and the cache entry should be poisoned.
};

inline constexpr size_t kFaultSiteCount = 11;

// Virtual time a kBootStall fault wedges the decompressor for. Orders of
// magnitude beyond any real boot phase, so any sane stage deadline fires
// long before the stall resolves on its own.
inline constexpr Nanos kBootStallPenalty = Seconds(60);

const char* FaultSiteName(FaultSite site);
// Inverse of FaultSiteName; kInval for unknown names.
Result<FaultSite> FaultSiteFromName(const std::string& name);

// When a site fires. Deterministic triggers (`trigger_on`/`period`) and the
// probabilistic trigger compose: the rule fires if either says so, subject
// to `max_fires`.
struct FaultRule {
  FaultSite site = FaultSite::kMemAlloc;
  // Fire on the Nth evaluation of the site (1-based). 0 disables.
  uint64_t trigger_on = 0;
  // With trigger_on: also fire every `period` evaluations afterwards.
  uint64_t period = 0;
  // Bernoulli probability per evaluation (0 disables).
  double probability = 0.0;
  // Stop firing after this many hits; -1 = unlimited.
  int max_fires = -1;
  // Restrict the rule to one application: FaultPlan::ForApp drops rules
  // whose app is set and differs (the fleet driver forks per-task plans, so
  // one rule can skew a single app's boots). Empty = every app.
  std::string app = {};
  // kBootStall only: custom virtual stall instead of kBootStallPenalty.
  // 0 = the default penalty. Lets a plan dial in, say, a 10x boot cost for
  // one app without wedging it for a full minute.
  Nanos stall = 0;
};

// A named, seeded collection of rules — the experiment's fault schedule.
struct FaultPlan {
  uint64_t seed = 1;
  std::vector<FaultRule> rules;

  FaultPlan& Add(FaultRule rule) {
    rules.push_back(rule);
    return *this;
  }
  // Convenience constructors for the two common shapes.
  FaultPlan& FireOnce(FaultSite site, uint64_t nth) {
    return Add({.site = site, .trigger_on = nth, .max_fires = 1});
  }
  FaultPlan& FireAlways(FaultSite site, int max_fires = -1) {
    return Add({.site = site, .trigger_on = 1, .period = 1, .max_fires = max_fires});
  }
  // The plan as seen by one application: rules filtered to those whose
  // `app` is empty or matches. Deterministic per app — forked per-task
  // plans stay byte-identical however the fleet is scheduled.
  FaultPlan ForApp(const std::string& app) const;
};

// JSON reader so chaos schedules live as data files next to the benches
// (bench/plans/*.json) instead of compiled C++. The document shape:
//
//   {"seed": 42, "rules": [{"site": "boot-initcall", "trigger_on": 1,
//                           "period": 1, "probability": 0.0, "max_fires": 2}]}
//
// A rule may also carry "app" and "stall_ns". The document goes through
// util/json's ParseJson; omitted fields keep the FaultRule defaults. Unknown
// keys, unknown sites, counts that are not integers in range ("seed",
// "trigger_on" and "period" in [0, 2^64), "max_fires" in [-1, 2^31) with -1
// meaning unlimited, "stall_ns" in [0, 2^63)) and malformed documents fail
// with kInval and a message naming the byte offset of the fault.
Result<FaultPlan> FaultPlanFromJson(const std::string& json);

// One fault that actually fired.
struct FaultRecord {
  FaultSite site = FaultSite::kMemAlloc;
  uint64_t evaluation = 0;  // Per-site evaluation ordinal (1-based).
};

class FaultInjector {
 public:
  // Null object: never fires, costs one branch per check.
  FaultInjector() = default;
  explicit FaultInjector(const FaultPlan& plan);

  bool armed() const { return armed_; }

  // Evaluates `site`; true means the caller must inject the failure.
  // Counts the evaluation even when no rule matches, so rule triggers are
  // stable under plan edits at other sites.
  bool Check(FaultSite site);

  // Counters (per-site evaluations / fires) and the fired-fault log.
  uint64_t evaluations(FaultSite site) const {
    return evaluations_[static_cast<size_t>(site)];
  }
  uint64_t fires(FaultSite site) const { return fires_[static_cast<size_t>(site)]; }
  uint64_t total_fires() const { return log_.size(); }
  const std::vector<FaultRecord>& log() const { return log_; }

  // Virtual stall the guest pays for the most recent kBootStall fire: the
  // firing rule's custom `stall` when set, else kBootStallPenalty. The
  // disarmed null object always reports the default penalty.
  Nanos stall_penalty() const { return stall_penalty_; }

 private:
  bool armed_ = false;
  Prng prng_;
  std::vector<FaultRule> rules_;
  // Remaining fires per rule (parallel to rules_); -1 = unlimited.
  std::vector<int> remaining_;
  std::array<uint64_t, kFaultSiteCount> evaluations_{};
  std::array<uint64_t, kFaultSiteCount> fires_{};
  std::vector<FaultRecord> log_;
  Nanos stall_penalty_ = kBootStallPenalty;
};

}  // namespace lupine

#endif  // SRC_UTIL_FAULT_H_
