// Deterministic retry, deadline and quarantine primitives.
//
// The paper's posture (Section 2.2) is that a Lupine guest cannot save
// itself — the application runs in ring 0, so every recovery decision is the
// monitor's. This header is the monitor-side toolbox those decisions share:
//
//   * RetryPolicy / Retrier — exponential backoff with seeded jitter, an
//     attempt budget, and a retryable-error classification over Status.
//     The fleet boot driver, the artifact caches and the vmm::Supervisor
//     all price their restart schedules through the same BackoffDelay
//     formula, so one policy means one timeline everywhere.
//   * DeadlineGuard — a per-stage virtual deadline. A stage that wedges
//     (e.g. a kBootStall fault inflating the decompress phase) does not hang
//     the shard: the guard reports the deadline the monitor would have
//     killed the VM at, and the caller retries.
//   * Quarantine — per-key drop-once-then-poison containment for cached
//     artifacts whose launches (or restores) keep failing, shared by the
//     kernel and snapshot caches and the serving simulation.
//
// Everything draws from util/prng and prices delays on the virtual
// timeline, so a given policy + seed reproduces its schedule byte for byte.
#ifndef SRC_UTIL_RETRY_H_
#define SRC_UTIL_RETRY_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/util/prng.h"
#include "src/util/result.h"
#include "src/util/units.h"
#include "src/util/vclock.h"

namespace lupine {

// The backoff shape shared by Retrier and vmm::Supervisor: delay before the
// (failures+1)-th attempt is initial * multiplier^(failures-1), clamped to
// `cap`, then scaled by a jitter factor uniform in [1-j, 1+j].
struct BackoffSpec {
  Nanos initial = Millis(100);
  double multiplier = 2.0;
  Nanos cap = Seconds(30);
  double jitter = 0.1;
};

// The deterministic delay before the next attempt after `failures` (>= 1)
// consecutive failures, drawn from the caller's private jitter stream. Sets
// `*capped` when the raw exponential hit the ceiling (the signal that a
// policy is saturating instead of spreading restarts out).
Nanos BackoffDelay(const BackoffSpec& spec, int failures, Prng& jitter, bool* capped = nullptr);

// A complete retry policy: how often, how long, and on which errors.
struct RetryPolicy {
  // Attempts in total, including the first; 1 disables retries.
  int max_attempts = 3;
  BackoffSpec backoff = {};
  uint64_t seed = 0x5EED;
};

// Classification over Status: transient guest/host failures (I/O errors,
// interrupted or timed-out operations, connection resets, ring-0 panics)
// are worth a fresh VM; deterministic ones (bad input, missing manifest,
// quarantined artifact, out-of-memory at a fixed size) are not.
bool IsRetryableError(const Status& status);

// Per-task retry controller. Feed it every failure; it answers whether to
// try again and how long to wait first. Deterministic: (policy, seed_offset)
// fully determine the schedule, so task outcomes are independent of how
// tasks are sharded across workers.
class Retrier {
 public:
  explicit Retrier(const RetryPolicy& policy, uint64_t seed_offset = 0);

  struct Decision {
    bool retry = false;
    Nanos delay = 0;  // Backoff before the next attempt.
    // Why not: "retryable" when retry is true; otherwise "permanent-error"
    // or "attempts-exhausted".
    const char* reason = "retryable";
  };
  Decision OnFailure(const Status& status);

  int failures() const { return failures_; }

 private:
  RetryPolicy policy_;
  Prng jitter_;  // Seeded by policy.seed folded with the task's seed_offset.
  int failures_ = 0;
};

// Watches one stage against a virtual deadline. Construct at stage
// start; after the stage ran, expired() says whether the monitor would have
// killed it first, and kill_at() is the virtual instant it would have done
// so (what a killed attempt costs the shard — never more than the deadline).
// deadline 0 = unlimited (the guard never expires).
class DeadlineGuard {
 public:
  DeadlineGuard(const VirtualClock& clock, Nanos deadline)
      : clock_(&clock), deadline_(deadline), start_(clock.now()) {}

  Nanos elapsed() const { return clock_->now() - start_; }
  bool expired() const { return deadline_ > 0 && elapsed() > deadline_; }
  // Virtual time the stage consumed as far as the monitor is concerned:
  // capped at the deadline when expired.
  Nanos charged() const { return expired() ? deadline_ : elapsed(); }

  // Post-hoc form for stages whose duration arrives as a number (a boot
  // report's phase sum): Ok, or kTimedOut when elapsed > deadline (> 0).
  static Status CheckElapsed(const std::string& stage, Nanos deadline, Nanos elapsed);

 private:
  const VirtualClock* clock_;
  Nanos deadline_;
  Nanos start_;
};

// How a cache contains a key whose launches keep failing. A cached blob
// every shard re-boots is a fleet-wide blast radius: without containment one
// bad artifact crash-loops rounds x workers VMs.
struct QuarantinePolicy {
  bool enabled = true;
  // How long a poisoned key fails fast before a probe is allowed.
  Nanos poison_ttl = Seconds(30);
};

// Drop-once-then-poison, per key. The first failure asks the caller to drop
// the cached value so the next use rebuilds it from scratch (maybe the build
// was the problem); a failure after that poisons the key, and Check denies
// it until the TTL passes. The first Check after expiry is the half-open
// probe: the poison clears and the next failure poisons again at once, unless
// the caller Forgets the key to grant a fresh drop.
//
// Not thread-safe: it runs under its caller's lock. Time is an argument, so
// the host-clock caches and the serving simulation's virtual clock run the
// same code.
class Quarantine {
 public:
  enum class Gate { kOpen, kDenied, kProbe };
  enum class Strike { kNone, kDrop, kPoison };

  explicit Quarantine(QuarantinePolicy policy = {}) : policy_(policy) {}

  const QuarantinePolicy& policy() const { return policy_; }
  void set_policy(QuarantinePolicy policy) { policy_ = policy; }

  Gate Check(const std::string& key, Nanos now);
  // One reported failure. kNone when disabled or already poisoned (failures
  // of launches still in flight change nothing).
  Strike Fail(const std::string& key, Nanos now);
  // True from a poison until the probe that clears it, even past the TTL.
  bool poisoned(const std::string& key) const;
  void Forget(const std::string& key) { health_.erase(key); }

 private:
  struct Health {
    bool dropped = false;       // The one drop is spent.
    Nanos poisoned_until = -1;  // -1 = not poisoned.
  };
  QuarantinePolicy policy_;
  std::map<std::string, Health> health_;
};

// Host steady-clock nanoseconds: the caches' default quarantine clock.
Nanos SteadyNanos();

}  // namespace lupine

#endif  // SRC_UTIL_RETRY_H_
