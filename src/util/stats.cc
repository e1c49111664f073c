#include "src/util/stats.h"

#include <algorithm>

namespace lupine {

void Accumulator::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  mean_ += (x - mean_) / static_cast<double>(count_);
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

StreamingPercentiles::StreamingPercentiles(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  samples_.reserve(capacity_);
}

void StreamingPercentiles::Add(double x) {
  ++count_;
  if (++phase_ < stride_) {
    return;  // Decimated away.
  }
  phase_ = 0;
  if (samples_.size() == capacity_) {
    // Halve: keep every other retained sample (arrival order preserved) and
    // double the stride so future arrivals are sampled at the new rate.
    size_t kept = 0;
    for (size_t i = 1; i < samples_.size(); i += 2) {
      samples_[kept++] = samples_[i];
    }
    samples_.resize(kept);
    stride_ *= 2;
  }
  samples_.push_back(x);
}

double StreamingPercentiles::Quantile(double p) const {
  return Percentile(samples_, p);
}

}  // namespace lupine
