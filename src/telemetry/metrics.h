// Thread-safe metrics plane shared by the whole stack.
//
// The paper's evaluation is entirely measurement-driven — boot-time
// breakdowns (Fig. 7), per-VM memory footprints (Fig. 8), syscall latencies
// (Fig. 9) — and every bench used to hand-roll its own counters. The
// MetricRegistry is the shared substrate instead: named counters, gauges and
// bounded histograms, labeled along the fleet's natural axes (vm, app,
// phase, worker, variant), collected into a stable-order snapshot that
// telemetry/export.h turns into JSON for benches and CI artifacts.
//
// Naming scheme: dotted lowercase `subsystem.metric_unit` (e.g.
// `kernelcache.kernel_builds`, `boot.phase_ns`, `admission.committed_bytes`)
// with dimensions in labels, never baked into the name. Units ride in the
// suffix (`_ns`, `_bytes`) so exported numbers are self-describing.
//
// Threading: GetCounter/GetGauge/GetHistogram are safe from any thread and
// return address-stable references (cells live in node-based maps and are
// never destroyed before the registry), so hot paths may cache the reference
// and update lock-free (counters/gauges are single atomics; histograms take
// a per-cell mutex). Collect() is safe concurrently with updates.
#ifndef SRC_TELEMETRY_METRICS_H_
#define SRC_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/util/stats.h"

namespace lupine::telemetry {

// Dimension pairs of one metric cell. Order-insensitive: labels are
// canonicalized (sorted by key) when the cell is created.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Canonical text form, e.g. `{app=redis,worker=3}`; empty labels -> "".
std::string FormatLabels(const Labels& labels);

// Monotonic event count.
class Counter {
 public:
  void Increment(uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Point-in-time level (bytes committed, members healthy, ...).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Sample distribution with exact count/sum/extremes and bounded-memory
// p50/p95/p99 (util/stats StreamingPercentiles: exact up to `capacity`
// samples, deterministic decimation beyond).
class Histogram {
 public:
  explicit Histogram(size_t capacity = 2048) : quantiles_(capacity) {}

  void Observe(double x) {
    std::lock_guard lock(mu_);
    acc_.Add(x);
    quantiles_.Add(x);
  }

  struct Summary {
    size_t count = 0;
    double min = 0.0;
    double mean = 0.0;
    double max = 0.0;
    double sum = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };
  Summary Snapshot() const {
    std::lock_guard lock(mu_);
    Summary s;
    s.count = acc_.count();
    s.min = acc_.min();
    s.mean = acc_.mean();
    s.max = acc_.max();
    s.sum = acc_.sum();
    s.p50 = quantiles_.p50();
    s.p95 = quantiles_.p95();
    s.p99 = quantiles_.p99();
    return s;
  }
  size_t count() const {
    std::lock_guard lock(mu_);
    return acc_.count();
  }

 private:
  mutable std::mutex mu_;
  Accumulator acc_;
  StreamingPercentiles quantiles_;
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Find-or-create. The same (name, labels) always resolves to the same
  // cell; the returned reference stays valid for the registry's lifetime.
  Counter& GetCounter(const std::string& name, Labels labels = {});
  Gauge& GetGauge(const std::string& name, Labels labels = {});
  // `capacity` bounds the histogram's retained samples; it only applies on
  // first creation of the cell.
  Histogram& GetHistogram(const std::string& name, Labels labels = {},
                          size_t capacity = 2048);

  struct CounterSample {
    std::string name;
    Labels labels;
    uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    Labels labels;
    int64_t value = 0;
  };
  struct HistogramSample {
    std::string name;
    Labels labels;
    Histogram::Summary summary;
  };
  struct Snapshot {
    std::vector<CounterSample> counters;
    std::vector<GaugeSample> gauges;
    std::vector<HistogramSample> histograms;

    size_t size() const { return counters.size() + gauges.size() + histograms.size(); }
  };
  // Stable order: sorted by (name, canonical labels) — two identical runs
  // export byte-identical snapshots.
  Snapshot Collect() const;

 private:
  // Key = (name, canonical label text). Cells hold their original labels for
  // snapshotting. std::map nodes are address-stable, so cells can embed
  // atomics/mutexes and be handed out by reference.
  using Key = std::pair<std::string, std::string>;
  struct CounterCell {
    explicit CounterCell(Labels l) : labels(std::move(l)) {}
    Labels labels;
    Counter cell;
  };
  struct GaugeCell {
    explicit GaugeCell(Labels l) : labels(std::move(l)) {}
    Labels labels;
    Gauge cell;
  };
  struct HistogramCell {
    HistogramCell(Labels l, size_t capacity) : labels(std::move(l)), cell(capacity) {}
    Labels labels;
    Histogram cell;
  };

  mutable std::shared_mutex mu_;
  std::map<Key, CounterCell> counters_;
  std::map<Key, GaugeCell> gauges_;
  std::map<Key, HistogramCell> histograms_;
};

}  // namespace lupine::telemetry

#endif  // SRC_TELEMETRY_METRICS_H_
