// Fleet flight recorder: a thread-safe, virtual-clock-stamped structured
// event journal with deterministic JSON-lines export.
//
// Every subsystem that makes a decision worth explaining after the fact —
// the fleet scheduler (admit/steal/retry/deadline/quarantine), the
// supervisor (probe/backoff/crash-loop/degraded), the admission controller
// (verdicts), and the artifact caches (hit/miss/evict/poison/half-open) —
// emits typed events here. Each event carries a virtual-nanosecond
// timestamp, a source, a type, and a small list of typed fields.
//
// Determinism contract: the exported JSONL is a pure function of the event
// multiset. Export sorts canonically by (at, source, type, serialized
// fields), so producers that race on wall time but emit a deterministic
// multiset (the execute-once / replay-deterministically fleet pattern)
// yield byte-identical exports across 1/2/4/8 workers. Host-racy sources
// that have no virtual timeline stamp at=0 and ride the canonical sort.
//
// Memory is bounded: each source gets a drop-oldest ring (default 4096
// events); overflow increments a per-source dropped counter that is
// surfaced as a final "journal"-source event in the export.
// Byte-identity across worker counts holds as long as no ring dropped —
// the storm tests size well under the ring.
#ifndef SRC_TELEMETRY_JOURNAL_H_
#define SRC_TELEMETRY_JOURNAL_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "src/util/units.h"

namespace lupine::telemetry {

// One typed field on an event. int64 covers counts and ids, uint64 covers
// sizes and hashes, double covers ratios, bool covers flags.
using FieldValue = std::variant<int64_t, uint64_t, double, bool, std::string>;

struct Field {
  std::string key;
  FieldValue value;
};

struct Event {
  Nanos at = 0;          // virtual time; 0 when the source has no timeline
  std::string source;    // "fleet", "supervisor", "admission", "kernel-cache", ...
  std::string type;      // "task-start", "steal", "retry", "cache-hit", ...
  std::vector<Field> fields;
  // Schedule-scoped events (steals, replay worker attribution) are
  // deterministic for a fixed worker count but naturally differ across
  // worker counts, so the canonical export omits them by default. Not
  // serialized — it's routing metadata, not payload.
  bool schedule_scoped = false;
};

// A named counter track sampled over virtual time — rendered as a Chrome
// trace ph:"C" track by ToChromeTrace (e.g. resident bytes, queue depth).
struct CounterSeries {
  std::string name;
  std::vector<std::pair<Nanos, double>> points;  // (virtual ns, value)
};

// Folds (virtual ns, delta) pairs in any order into a level track: one point
// per distinct timestamp, carrying the running sum after all its deltas.
CounterSeries FoldCounterDeltas(std::string name,
                                std::vector<std::pair<Nanos, double>> deltas);

// Renders one FieldValue as a JSON scalar (strings quoted + escaped).
std::string FieldValueToJson(const FieldValue& value);

// Renders one event as a single JSON object line (no trailing newline):
//   {"at":1234,"source":"fleet","type":"steal","worker":1,"victim":0}
// Field order is emission order; strings go through lupine::JsonEscape.
std::string EventToJsonLine(const Event& event);

class Journal {
 public:
  static constexpr size_t kDefaultRingCapacity = 4096;

  explicit Journal(size_t ring_capacity = kDefaultRingCapacity)
      : ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity) {}

  // Thread-safe. Oldest event of the same source is dropped when that
  // source's ring is full.
  void Emit(Event event);
  void Emit(Nanos at, std::string_view source, std::string_view type,
            std::vector<Field> fields = {});

  // All retained events, canonically sorted by (at, source, type,
  // serialized fields). The sort makes the result a function of the event
  // multiset, not of emission interleaving.
  std::vector<Event> Snapshot(bool include_schedule_scoped = true) const;

  // JSON-lines export: one canonical line per event, '\n'-terminated.
  // The default export is the deterministic flight record — byte-identical
  // across 1/2/4/8 worker replays for the same seed/plan, because
  // schedule-scoped events are omitted; pass true for the full per-run
  // record (what the Perfetto trace renders). When any ring dropped
  // events, a final line per affected source records it:
  //   {"at":0,"source":"journal","type":"dropped","from":"fleet","count":12}
  std::string ExportJsonl(bool include_schedule_scoped = false) const;

  size_t size() const;

 private:
  struct Ring {
    std::deque<Event> events;
    uint64_t dropped = 0;
  };

  const size_t ring_capacity_;
  mutable std::mutex mu_;
  std::map<std::string, Ring, std::less<>> rings_;
};

}  // namespace lupine::telemetry

#endif  // SRC_TELEMETRY_JOURNAL_H_
