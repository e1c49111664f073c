#include "src/util/retry.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "src/util/units.h"

namespace lupine {

Nanos BackoffDelay(const BackoffSpec& spec, int failures, Prng& jitter, bool* capped) {
  double base = static_cast<double>(spec.initial) *
                std::pow(spec.multiplier, std::max(0, failures - 1));
  const bool hit_cap = base >= static_cast<double>(spec.cap);
  if (capped != nullptr) {
    *capped = hit_cap;
  }
  base = std::min(base, static_cast<double>(spec.cap));
  // Jitter factor uniform in [1-j, 1+j] from the caller's private stream:
  // same seed => same schedule, but independent streams decorrelate, so a
  // mass failure does not retry in lockstep.
  const double factor = 1.0 + spec.jitter * (2.0 * jitter.NextDouble() - 1.0);
  return std::max<Nanos>(1, static_cast<Nanos>(base * factor));
}

bool IsRetryableError(const Status& status) {
  switch (status.err()) {
    case Err::kIo:           // Transient device error / injected boot fault.
    case Err::kIntr:         // Interrupted; restarting is the contract.
    case Err::kAgain:        // Resource momentarily unavailable.
    case Err::kTimedOut:     // Stage deadline or network timeout.
    case Err::kConnReset:    // Peer reset; reconnect is routine.
    case Err::kConnRefused:  // Peer not up yet.
    case Err::kNetUnreach:   // Routing flap.
    case Err::kFault:        // Ring-0 panic: a fresh VM is the only cure.
      return true;
    default:
      // kNoMem (same size will OOM again), kNoEnt/kInval (bad input),
      // kAccess (quarantined artifact) and friends are deterministic:
      // retrying burns budget without changing the outcome.
      return false;
  }
}

Retrier::Retrier(const RetryPolicy& policy, uint64_t seed_offset)
    : policy_(policy), jitter_(policy.seed ^ ((seed_offset + 1) * 0x9E3779B97F4A7C15ull)) {}

Retrier::Decision Retrier::OnFailure(const Status& status) {
  ++failures_;
  Decision decision;
  if (!IsRetryableError(status)) {
    decision.reason = "permanent-error";
    return decision;
  }
  if (failures_ >= policy_.max_attempts) {
    decision.reason = "attempts-exhausted";
    return decision;
  }
  decision.retry = true;
  decision.delay = BackoffDelay(policy_.backoff, failures_, jitter_);
  return decision;
}

Status DeadlineGuard::CheckElapsed(const std::string& stage, Nanos deadline, Nanos elapsed) {
  if (deadline <= 0 || elapsed <= deadline) {
    return Status::Ok();
  }
  return Status(Err::kTimedOut, "stage '" + stage + "' exceeded its " +
                                    FormatDuration(deadline) + " deadline (ran " +
                                    FormatDuration(elapsed) + ")");
}

Quarantine::Gate Quarantine::Check(const std::string& key, Nanos now) {
  if (!policy_.enabled) {
    return Gate::kOpen;
  }
  auto it = health_.find(key);
  if (it == health_.end() || it->second.poisoned_until < 0) {
    return Gate::kOpen;
  }
  if (now < it->second.poisoned_until) {
    return Gate::kDenied;
  }
  it->second.poisoned_until = -1;  // Half-open: the drop stays spent.
  return Gate::kProbe;
}

Quarantine::Strike Quarantine::Fail(const std::string& key, Nanos now) {
  if (!policy_.enabled) {
    return Strike::kNone;
  }
  Health& health = health_[key];
  if (health.poisoned_until >= 0) {
    return Strike::kNone;
  }
  if (!health.dropped) {
    health.dropped = true;
    return Strike::kDrop;
  }
  health.poisoned_until = now + policy_.poison_ttl;
  return Strike::kPoison;
}

bool Quarantine::poisoned(const std::string& key) const {
  auto it = health_.find(key);
  return it != health_.end() && it->second.poisoned_until >= 0;
}

Nanos SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace lupine
