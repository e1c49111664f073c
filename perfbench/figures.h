// Pure arithmetic behind the benchmark's reported figures: the percentile
// rule, the SLO-capacity selection, error accounting and the simulated-figure
// digest. Kept free of simulator types so selftest.cc can pin every rule.
#ifndef PERFBENCH_FIGURES_H_
#define PERFBENCH_FIGURES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lupine::perfbench {

// Geometric mean of positive `values` (0 if empty or any value is <= 0).
double GeoMean(const std::vector<double>& values);

// A percentile reported under the rule "a percentile needs at least
// `min_beyond` samples beyond it": when the requested one lacks them, the
// highest whole percentile that has them is reported instead. Index
// convention matches serve::RunServing: sorted[pct * (n - 1) / 100].
struct QualifiedPercentile {
  double value = 0.0;
  int pct = -1;          // Percentile actually reported; -1 = none qualifies.
  size_t count = 0;      // Samples the percentile was taken over.
  size_t beyond = 0;     // Samples strictly after the reported index.
  bool qualified() const { return pct >= 0; }
};
QualifiedPercentile PercentileWithSupport(std::vector<double> samples, int pct,
                                          size_t min_beyond = 10);

// One offered rate of an open-loop sweep, as the SLO selection sees it.
struct RatePoint {
  double rate = 0.0;              // Offered requests per virtual second.
  std::vector<double> ttfr_ms;    // One entry per completed request.
  size_t failed = 0;              // Requests that never completed.
  double backlog_mid = 0.0;       // Queue depth at the window's midpoint.
  double backlog_end = 0.0;       // Queue depth at the window's end.
};

// Whether one rate meets the latency limit: its p99 (with failed requests
// counted as missing the limit) is at most `limit_ms` and the queue is no
// deeper at the window's end than at its midpoint.
bool MeetsSlo(const RatePoint& point, double limit_ms);

// The highest offered rate that meets the limit (0 when none does).
double MaxRateAtSlo(const std::vector<RatePoint>& points, double limit_ms);

// Value of a step-function counter track at `t` (last point at or before t;
// 0 before the first point). `points` must be sorted by time.
double TrackValueAt(const std::vector<std::pair<int64_t, double>>& points, int64_t t);

// Error accounting behind `error_rate`: every op a run attempted counts as
// failed when that run's output check failed, else only its failed ops do.
// A failed run-wide check (a replay or determinism check) fails every op.
class ErrorLedger {
 public:
  void AddRun(uint64_t attempted, uint64_t failed, bool check_ok);
  void AddCheck(const std::string& name, bool ok);  // Run-wide check.

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return all_checks_ok() ? failed_ : attempted_; }
  double rate() const;  // failed() / attempted(); 0 when nothing was attempted.
  bool all_checks_ok() const { return failed_checks_.empty(); }
  const std::vector<std::string>& failed_checks() const { return failed_checks_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failed_checks_;
};

// FNV-1a (64-bit) over a canonical text rendering of simulated figures.
class Digest {
 public:
  void Add(const std::string& name, double value);
  void Add(const std::string& name, int64_t value);
  void AddText(const std::string& text);
  uint64_t value() const { return hash_; }
  std::string Hex() const;

 private:
  uint64_t hash_ = 14695981039346656037ull;  // FNV-1a 64 offset basis.
};

}  // namespace lupine::perfbench

#endif  // PERFBENCH_FIGURES_H_
