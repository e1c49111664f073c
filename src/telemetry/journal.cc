#include "src/telemetry/journal.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/util/json.h"

namespace lupine::telemetry {

std::string FieldValueToJson(const FieldValue& value) {
  std::string out;
  char buf[64];
  if (const auto* i = std::get_if<int64_t>(&value)) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, *i);
    out += buf;
  } else if (const auto* u = std::get_if<uint64_t>(&value)) {
    std::snprintf(buf, sizeof(buf), "%" PRIu64, *u);
    out += buf;
  } else if (const auto* d = std::get_if<double>(&value)) {
    // %.17g round-trips doubles and prints integers without a spurious
    // fraction, keeping the export stable across compilers.
    std::snprintf(buf, sizeof(buf), "%.17g", *d);
    out += buf;
  } else if (const auto* b = std::get_if<bool>(&value)) {
    out += *b ? "true" : "false";
  } else {
    out += '"';
    out += JsonEscape(std::get<std::string>(value));
    out += '"';
  }
  return out;
}

std::string EventToJsonLine(const Event& event) {
  std::string out;
  out.reserve(96);
  char buf[48];
  std::snprintf(buf, sizeof(buf), "{\"at\":%lld", static_cast<long long>(event.at));
  out += buf;
  out += ",\"source\":\"";
  out += JsonEscape(event.source);
  out += "\",\"type\":\"";
  out += JsonEscape(event.type);
  out += '"';
  for (const Field& field : event.fields) {
    out += ",\"";
    out += JsonEscape(field.key);
    out += "\":";
    out += FieldValueToJson(field.value);
  }
  out += '}';
  return out;
}

CounterSeries FoldCounterDeltas(std::string name,
                                std::vector<std::pair<Nanos, double>> deltas) {
  std::sort(deltas.begin(), deltas.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  CounterSeries series;
  series.name = std::move(name);
  double level = 0.0;
  for (size_t i = 0; i < deltas.size();) {
    const Nanos at = deltas[i].first;
    for (; i < deltas.size() && deltas[i].first == at; ++i) {
      level += deltas[i].second;
    }
    series.points.emplace_back(at, level);
  }
  return series;
}

void Journal::Emit(Event event) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rings_.find(event.source);
  if (it == rings_.end()) {
    it = rings_.emplace(event.source, Ring{}).first;
  }
  Ring& ring = it->second;
  if (ring.events.size() >= ring_capacity_) {
    ring.events.pop_front();
    ++ring.dropped;
  }
  ring.events.push_back(std::move(event));
}

void Journal::Emit(Nanos at, std::string_view source, std::string_view type,
                   std::vector<Field> fields) {
  Emit(Event{at, std::string(source), std::string(type), std::move(fields)});
}

std::vector<Event> Journal::Snapshot(bool include_schedule_scoped) const {
  std::vector<Event> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    size_t total = 0;
    for (const auto& [_, ring] : rings_) {
      total += ring.events.size();
    }
    events.reserve(total);
    for (const auto& [_, ring] : rings_) {
      for (const Event& event : ring.events) {
        if (include_schedule_scoped || !event.schedule_scoped) {
          events.push_back(event);
        }
      }
    }
  }
  std::stable_sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.at != b.at) {
      return a.at < b.at;
    }
    if (a.source != b.source) {
      return a.source < b.source;
    }
    if (a.type != b.type) {
      return a.type < b.type;
    }
    return EventToJsonLine(a) < EventToJsonLine(b);
  });
  return events;
}

std::string Journal::ExportJsonl(bool include_schedule_scoped) const {
  std::vector<Event> events = Snapshot(include_schedule_scoped);
  std::string out;
  out.reserve(events.size() * 96);
  for (const Event& event : events) {
    out += EventToJsonLine(event);
    out += '\n';
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [source, ring] : rings_) {
    if (ring.dropped == 0) {
      continue;
    }
    Event note{0, "journal", "dropped",
               {{"from", FieldValue{std::string(source)}},
                {"count", FieldValue{static_cast<uint64_t>(ring.dropped)}}}};
    out += EventToJsonLine(note);
    out += '\n';
  }
  return out;
}

size_t Journal::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& [_, ring] : rings_) {
    total += ring.events.size();
  }
  return total;
}

}  // namespace lupine::telemetry
