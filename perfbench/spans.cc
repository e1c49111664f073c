#include "spans.h"

#include <algorithm>
#include <utility>

#include "src/telemetry/export.h"
#include "src/telemetry/span.h"

namespace lupine::perfbench {

std::vector<int64_t> SelfTimes(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanRecord& span : spans) {
    if (span.parent >= 0 && static_cast<size_t>(span.parent) < spans.size()) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = lo;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, hi);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = std::max<int64_t>(0, hi - lo - covered);
  }
  return self;
}

std::map<std::string, int64_t> SelfTimeByLayer(const std::vector<SpanRecord>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, int64_t> by_layer;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_layer[spans[i].layer] += self[i];
  }
  return by_layer;
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* layer, const char* name,
                           uint64_t op) {
  if (!recorder.enabled_) {
    return;
  }
  recorder_ = &recorder;
  SpanRecord span;
  span.layer = layer;
  span.name = name;
  span.op = op;
  span.parent = recorder.open_.empty() ? -1 : recorder.open_.back();
  span.start_ns = recorder.NowNs();
  index_ = static_cast<int>(recorder.spans_.size());
  recorder.spans_.push_back(std::move(span));
  recorder.open_.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) {
    return;
  }
  recorder_->spans_[index_].end_ns = recorder_->NowNs();
  recorder_->open_.pop_back();
}

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::string SpanRecorder::ToChromeTrace() const {
  // One timeline: the benchmark makes its calls from one thread, so child
  // spans nest strictly inside their parents.
  telemetry::SpanTrace timeline;
  for (const SpanRecord& span : spans_) {
    timeline.Record(span.layer + "/" + span.name + " op=" + std::to_string(span.op),
                    span.start_ns, span.end_ns);
  }
  return telemetry::ToChromeTrace({timeline});
}

}  // namespace lupine::perfbench
