// In-memory host-time spans around the calls the benchmark makes into each
// simulator layer (the traced run only). A span records its layer, name,
// start, end, parent and an op id shared by the spans of one op; a layer's
// self time is its spans' durations minus the parts their child spans cover.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lupine::perfbench {

struct SpanRecord {
  std::string layer;  // Simulator module the call enters, e.g. "vmm".
  std::string name;   // The call, e.g. "BootAppServer".
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;    // Index of the enclosing span; -1 = top level.
  uint64_t op = 0;    // Shared by every span of one op.
};

// Self time of every span: its duration minus the union of its direct
// children's intervals (clipped to the span).
std::vector<int64_t> SelfTimes(const std::vector<SpanRecord>& spans);

// Self time summed per layer.
std::map<std::string, int64_t> SelfTimeByLayer(const std::vector<SpanRecord>& spans);

class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // A fresh op id for the spans of one op.
  uint64_t NewOp() { return ++last_op_; }

  // Opens a span on construction and closes it on destruction; a no-op
  // while the recorder is disabled.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* layer, const char* name, uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_ = nullptr;
    int index_ = -1;
  };

  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Chrome trace_event JSON of every span (telemetry::ToChromeTrace).
  std::string ToChromeTrace() const;

 private:
  int64_t NowNs() const;

  std::chrono::steady_clock::time_point origin_;
  bool enabled_ = false;
  uint64_t last_op_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;  // Stack of open span indices.
};

}  // namespace lupine::perfbench

#endif  // PERFBENCH_SPANS_H_
