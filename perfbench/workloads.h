// The benchmark's four workloads. Each drives existing public entry points
// of the simulator (unikernels, workload, core, serve, vmm) and reports
// host-time samples, simulated figures, per-layer metrics and output checks.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "figures.h"
#include "spans.h"

namespace lupine::perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// One timed iteration; ops_per_host_s is the median of ops / host seconds
// times slowdown.
struct Sample {
  uint64_t ops = 0;
  int64_t host_ns = 0;
  bool traced = false;
  double slowdown = 1.0;  // Host slowdown calibrated just before it.
};

struct RunContext {
  uint64_t seed = 0;
  bool trace_run = false;  // --trace 1: attach metric sinks, report layers.
  double fiber_round_trip_ns = 0.0;  // Measured on traced runs.
  SpanRecorder spans;  // Enabled during set-up and traced iterations.
  bool tracing() const { return spans.enabled(); }
};

struct Report {
  ErrorLedger ledger;
  Digest digest;               // Over every simulated figure of the run.
  double virt_ops_per_s = 0.0; // Simulated ops per virtual second.
  std::vector<Metric> layer;   // Per-layer metrics (printed on traced runs).
  std::vector<std::string> lines;  // Human-readable figures, named as in the docs.
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Everything the first timed op needs. False when set-up failed.
  virtual bool Setup(RunContext& ctx) = 0;
  // One timed iteration.
  virtual Sample Iterate(RunContext& ctx) = 0;
  // Post-window output checks and figures.
  virtual void Finish(RunContext& ctx, Report& report) = 0;
  // Host threads an iteration keeps busy; the window calibrates host speed
  // with as many.
  virtual size_t HostThreads() const { return 1; }
  // Iterations after which peak RSS is read (at least 2, so a traced run has
  // an untraced and a traced iteration); the window runs at least this many.
  virtual size_t RssIterations() const = 0;
};

// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

// Every workload name MakeWorkload accepts.
const std::vector<std::string>& WorkloadNames();

// Host ns per Fiber::Resume + Fiber::Yield round trip (median of repeats).
double MeasureFiberRoundTripNs();

}  // namespace lupine::perfbench

#endif  // PERFBENCH_WORKLOADS_H_
