// Virtual clock: the simulated time base of the whole system.
//
// Nothing in the simulator reads the host clock. Every priced operation
// (syscall entry, page fault, packet traversal, ...) advances a VirtualClock,
// so all experiment outputs are exact, deterministic functions of the
// configuration under test.
#ifndef SRC_UTIL_VCLOCK_H_
#define SRC_UTIL_VCLOCK_H_

#include <cassert>

#include "src/util/units.h"

namespace lupine {

class VirtualClock {
 public:
  VirtualClock() = default;

  Nanos now() const { return now_; }

  void Advance(Nanos delta) {
    assert(delta >= 0 && "time cannot move backwards");
    now_ += delta;
  }

  // Moves the clock to an absolute point, e.g. when a blocked fiber resumes
  // at the waking event's timestamp. No-op if `t` is in the past (the waker
  // ran later than the sleeper's deadline).
  void AdvanceTo(Nanos t) {
    if (t > now_) {
      now_ = t;
    }
  }

  // Moves the clock backwards to an absolute point. Snapshot restore only:
  // the guest's post-init state was re-materialized by replaying the boot
  // (full boot cost on this clock), but the restored instance's timeline
  // must begin at the modeled restore cost. Only legal while no fiber has
  // run — once threads block, absolute wake deadlines exist and rewinding
  // would corrupt them.
  void Rewind(Nanos t) {
    assert(t <= now_ && "rewind cannot move forwards");
    now_ = t;
  }

  void Reset() { now_ = 0; }

 private:
  Nanos now_ = 0;
};

}  // namespace lupine

#endif  // SRC_UTIL_VCLOCK_H_
