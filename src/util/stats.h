// Small statistics helpers for benchmark reporting.
#ifndef SRC_UTIL_STATS_H_
#define SRC_UTIL_STATS_H_

#include <cstddef>
#include <vector>

namespace lupine {

// Streaming accumulator for mean / sum / extremes.
class Accumulator {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Percentile over a copied sample set (nearest-rank).
double Percentile(std::vector<double> samples, double p);

// Streaming percentile estimator with bounded memory.
//
// Exact while the stream fits in `capacity` samples; beyond that the stream
// is decimated deterministically (keep every stride-th sample, doubling the
// stride each time the buffer fills), which is systematic sampling — quantile
// estimates stay unbiased for streams without stride-aligned periodicity and
// two identical streams always produce identical estimates. Backing store
// for telemetry::Histogram and any bench that reports p50/p95/p99 over long
// runs.
class StreamingPercentiles {
 public:
  explicit StreamingPercentiles(size_t capacity = 4096);

  void Add(double x);

  // Quantile in [0, 100] over the retained samples (interpolated, same
  // convention as Percentile()). Exact when count() <= capacity().
  double Quantile(double p) const;
  double p50() const { return Quantile(50); }
  double p95() const { return Quantile(95); }
  double p99() const { return Quantile(99); }

  size_t count() const { return count_; }        // Samples seen.
  size_t retained() const { return samples_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_;
  size_t stride_ = 1;   // Record every stride-th arrival.
  size_t phase_ = 0;    // Arrivals since the last recorded sample.
  size_t count_ = 0;
  std::vector<double> samples_;  // Arrival order; sorted on demand.
};

}  // namespace lupine

#endif  // SRC_UTIL_STATS_H_
