#include "figures.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>

namespace lupine::perfbench {

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double log_sum = 0.0;
  for (double v : values) {
    if (!(v > 0.0)) {
      return 0.0;
    }
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

QualifiedPercentile PercentileWithSupport(std::vector<double> samples, int pct,
                                          size_t min_beyond) {
  QualifiedPercentile out;
  out.count = samples.size();
  if (samples.empty()) {
    return out;
  }
  std::sort(samples.begin(), samples.end());
  const size_t last = samples.size() - 1;
  for (int p = std::clamp(pct, 0, 100); p >= 0; --p) {
    const size_t index = static_cast<size_t>(p) * last / 100;
    const size_t beyond = last - index;
    if (beyond >= min_beyond) {
      out.value = samples[index];
      out.pct = p;
      out.beyond = beyond;
      return out;
    }
  }
  return out;
}

bool MeetsSlo(const RatePoint& point, double limit_ms) {
  std::vector<double> samples = point.ttfr_ms;
  samples.insert(samples.end(), point.failed, std::numeric_limits<double>::infinity());
  const QualifiedPercentile p99 = PercentileWithSupport(std::move(samples), 99);
  if (p99.pct != 99 || !(p99.value <= limit_ms)) {
    return false;
  }
  return point.backlog_end <= point.backlog_mid;
}

double MaxRateAtSlo(const std::vector<RatePoint>& points, double limit_ms) {
  double best = 0.0;
  for (const RatePoint& point : points) {
    if (point.rate > best && MeetsSlo(point, limit_ms)) {
      best = point.rate;
    }
  }
  return best;
}

double TrackValueAt(const std::vector<std::pair<int64_t, double>>& points, int64_t t) {
  double value = 0.0;
  for (const auto& [at, v] : points) {
    if (at > t) {
      break;
    }
    value = v;
  }
  return value;
}

void ErrorLedger::AddRun(uint64_t attempted, uint64_t failed, bool check_ok) {
  attempted_ += attempted;
  failed_ += check_ok ? std::min(failed, attempted) : attempted;
}

void ErrorLedger::AddCheck(const std::string& name, bool ok) {
  if (!ok) {
    failed_checks_.push_back(name);
  }
}

double ErrorLedger::rate() const {
  return attempted_ == 0 ? 0.0 : static_cast<double>(failed()) / static_cast<double>(attempted_);
}

void Digest::AddText(const std::string& text) {
  for (const char c : text) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ull;
  }
}

void Digest::Add(const std::string& name, double value) {
  char line[64];
  std::snprintf(line, sizeof(line), "=%.17g\n", value);
  AddText(name + line);
}

void Digest::Add(const std::string& name, int64_t value) {
  char line[64];
  std::snprintf(line, sizeof(line), "=%" PRId64 "\n", value);
  AddText(name + line);
}

std::string Digest::Hex() const {
  char out[17];
  std::snprintf(out, sizeof(out), "%016" PRIx64, hash_);
  return out;
}

}  // namespace lupine::perfbench
