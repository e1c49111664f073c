// SnapshotCache: content-addressed, LRU-budgeted store of post-init guest
// snapshots (src/guestos/snapshot.h) for the serving fleet.
//
// Keying is by content identity — {kernel config fingerprint, rootfs cache
// key, guest RAM} — not by app name: two apps whose specialized configs
// fingerprint identically (the Table 3 zero-extra-option runtimes) share one
// snapshot exactly as they share one kernel image. Retention is a size-aware
// LRU over memory-file bytes; entries still referenced outside the cache
// (a restore in flight, a parked warm guest) are pinned against eviction.
//
// Restore failures are contained by the same drop-once-then-poison
// Quarantine (util/retry.h) KernelCache uses for launch failures: the first
// reported failure drops the entry so the next boot recaptures from scratch
// (maybe the capture was the problem); a failure after the recapture poisons
// the key — Find() returns a denial (miss) until the TTL passes, at which
// point one half-open probe lookup is allowed through again, and a failure
// after it poisons again at once.
#ifndef SRC_CORE_SNAPSHOT_CACHE_H_
#define SRC_CORE_SNAPSHOT_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/apps/content_store.h"
#include "src/guestos/snapshot.h"
#include "src/telemetry/journal.h"
#include "src/telemetry/metrics.h"
#include "src/util/retry.h"

namespace lupine::core {

class SnapshotCache {
 public:
  using SnapshotPtr = std::shared_ptr<const guestos::Snapshot>;

  explicit SnapshotCache(CacheBudget budget = {})
      : store_("snapshot-cache",
               [](const guestos::Snapshot& snapshot) -> Bytes { return snapshot.SizeBytes(); },
               budget) {}
  SnapshotCache(const SnapshotCache&) = delete;
  SnapshotCache& operator=(const SnapshotCache&) = delete;

  // The content address: fingerprint + rootfs key + guest RAM, joined with a
  // separator neither identity can contain.
  static std::string Key(const std::string& fingerprint, const std::string& rootfs_key,
                         Bytes memory);

  // Publishes a captured snapshot. First capture wins: a concurrent
  // duplicate (two shards cold-booting the same key before either captured)
  // is dropped and counted, so every holder of the key serves one canonical
  // snapshot. Returns the stored (or already-stored) snapshot.
  SnapshotPtr Put(guestos::Snapshot snapshot);

  // Looks up a snapshot. A poisoned key misses (counted as a denial) until
  // its TTL passes; the first lookup after expiry is the half-open probe —
  // it sees the entry again (if still resident) and a subsequent
  // ReportRestoreFailure poisons immediately.
  SnapshotPtr Find(const std::string& key);

  // Residency check without touching hit/miss counters or the LRU order.
  bool Contains(const std::string& key) const { return store_.Contains(key); }

  // Accounting for a restore attempt against `snapshot` (drives the
  // snapshot.restore counters + restore_ns histogram + journal event).
  void RecordRestore(const guestos::Snapshot& snapshot, bool ok);

  // A restored guest faulted (corrupt memory file, digest mismatch). Drives
  // the drop-once-then-poison state machine above.
  void ReportRestoreFailure(const std::string& key);

  void set_quarantine(QuarantinePolicy policy);
  // TTL time source, monotonic nanos. Default: the host steady clock.
  // Tests inject a manual clock for deterministic expiry.
  void set_quarantine_clock(std::function<Nanos()> now);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t captures = 0;            // Snapshots stored.
    uint64_t duplicate_captures = 0;  // Puts dropped by first-capture-wins.
    uint64_t restores = 0;            // Successful restores recorded.
    uint64_t restore_failures = 0;    // Failed restores recorded.
    uint64_t evictions = 0;
    Bytes bytes_stored = 0;    // Memory-file bytes currently resident.
    Bytes bytes_evicted = 0;   // Lifetime bytes dropped by eviction.
    Bytes bytes_pinned = 0;    // Bytes callers still reference (un-evictable).
    size_t entries = 0;
    // Quarantine.
    uint64_t drops = 0;     // Entries dropped for recapture.
    uint64_t poisoned = 0;  // Keys poisoned so far, lifetime.
    uint64_t denials = 0;   // Finds denied while poisoned.
  };
  Stats stats() const;

  // Optional, non-owning metric sink: `snapshot.hit` / `snapshot.miss` /
  // `snapshot.capture` / `snapshot.restore` / `snapshot.restore_failure`
  // counters plus `snapshot.capture_ns` / `snapshot.restore_ns` histograms.
  // Set before the first Put; the registry must outlive the cache.
  void set_metrics(telemetry::MetricRegistry* metrics) { metrics_ = metrics; }

  // Optional, non-owning flight-recorder sink: cache decisions
  // (snapshot-capture, snapshot-restore, hit/miss/evict/invalidate,
  // quarantine drop/poison/half-open/denial) land under source
  // "snapshot-cache". Cache interleaving is host-timing dependent, so the
  // events are schedule-scoped (full export / Perfetto only). Set before the
  // first Put; the journal must outlive the cache.
  void set_journal(telemetry::Journal* journal) {
    journal_ = journal;
    store_.set_journal(journal);
  }

  // Publishes the current Stats as absolute-valued `snapshotcache.*` gauges.
  // Idempotent — call at a snapshot point (end of a serving run).
  void PublishMetrics(telemetry::MetricRegistry& registry) const;

 private:
  void Count(const char* counter) const;
  void EmitJournal(const char* type, const std::string& key,
                   std::vector<telemetry::Field> more = {}) const;

  telemetry::MetricRegistry* metrics_ = nullptr;
  telemetry::Journal* journal_ = nullptr;
  apps::ContentStore<guestos::Snapshot> store_;

  // Guards the quarantine and the counters the store does not keep.
  mutable std::mutex mu_;
  Quarantine quarantine_;
  std::function<Nanos()> quarantine_now_ = SteadyNanos;
  Stats stats_;
};

}  // namespace lupine::core

#endif  // SRC_CORE_SNAPSHOT_CACHE_H_
