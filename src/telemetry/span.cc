#include "src/telemetry/span.h"

#include <utility>

namespace lupine::telemetry {

void SpanTrace::Record(std::string name, Nanos start, Nanos end) {
  if (end < start) {
    end = start;
  }
  spans_.push_back({std::move(name), start, end});
  if (end > cursor_) {
    cursor_ = end;
  }
}

void SpanTrace::Extend(const SpanTrace& other) {
  if (other.spans_.empty()) {
    return;
  }
  const Nanos base = cursor_ - other.spans_.front().start;
  for (const Span& span : other.spans_) {
    spans_.push_back({span.name, span.start + base, span.end + base});
    if (spans_.back().end > cursor_) {
      cursor_ = spans_.back().end;
    }
  }
}

const Span* SpanTrace::Find(const std::string& name) const {
  for (const Span& span : spans_) {
    if (span.name == name) {
      return &span;
    }
  }
  return nullptr;
}

}  // namespace lupine::telemetry
