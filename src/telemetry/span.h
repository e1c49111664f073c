// Span tracing for the provisioning + boot pipeline.
//
// A SpanTrace is one entity's timeline — ordered, possibly nested-free spans
// with start/end timestamps in nanoseconds. The unit of the timeline is the
// caller's: guest boot phases ride on the VM's VirtualClock (deterministic),
// build-pipeline stages on the host's steady clock (measured). The canonical
// fleet pipeline is
//
//   specialize -> resolve -> build -> load-rootfs      (host wall, per artifact)
//   monitor:* -> decompress -> core-init -> initcalls
//     -> rootfs-mount -> init-exec -> app-main         (virtual, per boot)
//
// KernelCache records the first four on the artifact it serves;
// vmm::Vm::boot_spans() builds the rest on demand from its monitor phase,
// the kernel's BootTrace and its last run. telemetry/export.h renders a
// trace as JSON for bench artifacts.
//
// SpanTrace is not thread-safe: each trace belongs to one VM / one artifact
// build, which is single-threaded by construction.
#ifndef SRC_TELEMETRY_SPAN_H_
#define SRC_TELEMETRY_SPAN_H_

#include <chrono>
#include <string>
#include <vector>

#include "src/util/units.h"

namespace lupine::telemetry {

struct Span {
  std::string name;
  Nanos start = 0;
  Nanos end = 0;

  Nanos duration() const { return end - start; }
};

class SpanTrace {
 public:
  // Appends a span at an explicit position; the cursor moves to `end` if
  // that is later. Spans are expected in (roughly) chronological order.
  void Record(std::string name, Nanos start, Nanos end);

  // Appends a span of `duration` starting at the current cursor — the shape
  // of sequential pipeline stages.
  void AddPhase(std::string name, Nanos duration) {
    Record(std::move(name), cursor_, cursor_ + duration);
  }

  // Appends every span of `other`, re-based so other's timeline starts at
  // this trace's cursor — used to splice a boot trace (virtual time) after a
  // provisioning trace (host time) into one pipeline view.
  void Extend(const SpanTrace& other);

  const std::vector<Span>& spans() const { return spans_; }
  const Span* Find(const std::string& name) const;
  Nanos cursor() const { return cursor_; }
  bool empty() const { return spans_.empty(); }

 private:
  std::vector<Span> spans_;
  Nanos cursor_ = 0;
};

// Host-wall-clock stopwatch for timing build-pipeline stages (the virtual
// clock does not run during builds; these spans are real measurements).
class HostStopwatch {
 public:
  HostStopwatch() : start_(std::chrono::steady_clock::now()) {}
  Nanos ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  void Restart() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace lupine::telemetry

#endif  // SRC_TELEMETRY_SPAN_H_
