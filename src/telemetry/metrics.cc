#include "src/telemetry/metrics.h"

#include <algorithm>

namespace lupine::telemetry {
namespace {

Labels Canonicalize(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

std::string FormatLabels(const Labels& labels) {
  if (labels.empty()) {
    return "";
  }
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += labels[i].first;
    out += '=';
    out += labels[i].second;
  }
  out += '}';
  return out;
}

Counter& MetricRegistry::GetCounter(const std::string& name, Labels labels) {
  labels = Canonicalize(std::move(labels));
  Key key{name, FormatLabels(labels)};
  {
    std::shared_lock lock(mu_);
    auto it = counters_.find(key);
    if (it != counters_.end()) {
      return it->second.cell;
    }
  }
  std::unique_lock lock(mu_);
  auto [it, inserted] = counters_.try_emplace(std::move(key), std::move(labels));
  (void)inserted;
  return it->second.cell;
}

Gauge& MetricRegistry::GetGauge(const std::string& name, Labels labels) {
  labels = Canonicalize(std::move(labels));
  Key key{name, FormatLabels(labels)};
  {
    std::shared_lock lock(mu_);
    auto it = gauges_.find(key);
    if (it != gauges_.end()) {
      return it->second.cell;
    }
  }
  std::unique_lock lock(mu_);
  auto [it, inserted] = gauges_.try_emplace(std::move(key), std::move(labels));
  (void)inserted;
  return it->second.cell;
}

Histogram& MetricRegistry::GetHistogram(const std::string& name, Labels labels,
                                        size_t capacity) {
  labels = Canonicalize(std::move(labels));
  Key key{name, FormatLabels(labels)};
  {
    std::shared_lock lock(mu_);
    auto it = histograms_.find(key);
    if (it != histograms_.end()) {
      return it->second.cell;
    }
  }
  std::unique_lock lock(mu_);
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::piecewise_construct, std::forward_as_tuple(std::move(key)),
                      std::forward_as_tuple(std::move(labels), capacity))
             .first;
  }
  return it->second.cell;
}

MetricRegistry::Snapshot MetricRegistry::Collect() const {
  std::shared_lock lock(mu_);
  Snapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [key, cell] : counters_) {
    snapshot.counters.push_back({key.first, cell.labels, cell.cell.value()});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [key, cell] : gauges_) {
    snapshot.gauges.push_back({key.first, cell.labels, cell.cell.value()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [key, cell] : histograms_) {
    snapshot.histograms.push_back({key.first, cell.labels, cell.cell.Snapshot()});
  }
  return snapshot;
}

}  // namespace lupine::telemetry
