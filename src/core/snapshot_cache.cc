#include "src/core/snapshot_cache.h"

#include <utility>

namespace lupine::core {

std::string SnapshotCache::Key(const std::string& fingerprint,
                               const std::string& rootfs_key, Bytes memory) {
  return fingerprint + '\x1f' + rootfs_key + '\x1f' + std::to_string(memory);
}

SnapshotCache::SnapshotPtr SnapshotCache::Put(guestos::Snapshot snapshot) {
  auto captured = std::make_shared<const guestos::Snapshot>(std::move(snapshot));
  SnapshotPtr stored = store_.Put(captured->key, captured);
  if (stored != captured) {
    // First capture wins: two shards cold-booting the same key before either
    // captured race here; the canonical snapshot is whichever landed first.
    Count("snapshot.duplicate_capture");
    return stored;
  }
  Count("snapshot.capture");
  if (metrics_ != nullptr) {
    metrics_->GetHistogram("snapshot.capture_ns").Observe(static_cast<double>(stored->capture_ns));
  }
  EmitJournal("snapshot-capture", stored->key,
              {{"bytes", telemetry::FieldValue{stored->SizeBytes()}}});
  return stored;
}

SnapshotCache::SnapshotPtr SnapshotCache::Find(const std::string& key) {
  std::lock_guard lock(mu_);
  switch (quarantine_.Check(key, quarantine_now_())) {
    case Quarantine::Gate::kDenied:
      ++stats_.denials;
      Count("snapshot.quarantine_denials");
      Count("snapshot.miss");
      EmitJournal("quarantine-denial", key);
      return nullptr;
    case Quarantine::Gate::kProbe:
      // TTL expired: half-open. This lookup is the probe; another failure
      // poisons again immediately.
      EmitJournal("half-open", key);
      break;
    case Quarantine::Gate::kOpen:
      break;
  }
  SnapshotPtr found = store_.Find(key);
  Count(found != nullptr ? "snapshot.hit" : "snapshot.miss");
  return found;
}

void SnapshotCache::RecordRestore(const guestos::Snapshot& snapshot, bool ok) {
  {
    std::lock_guard lock(mu_);
    ++(ok ? stats_.restores : stats_.restore_failures);
  }
  Count(ok ? "snapshot.restore" : "snapshot.restore_failure");
  if (metrics_ != nullptr && ok) {
    metrics_->GetHistogram("snapshot.restore_ns")
        .Observe(static_cast<double>(snapshot.restore_ns));
  }
  EmitJournal("snapshot-restore", snapshot.key,
              {{"ok", telemetry::FieldValue{uint64_t{ok ? 1u : 0u}}},
               {"restore_ns", telemetry::FieldValue{static_cast<uint64_t>(snapshot.restore_ns)}}});
}

void SnapshotCache::ReportRestoreFailure(const std::string& key) {
  std::lock_guard lock(mu_);
  switch (quarantine_.Fail(key, quarantine_now_())) {
    case Quarantine::Strike::kNone:
      return;
    case Quarantine::Strike::kDrop:
      // Strike one: drop-once. The next boot recaptures from scratch instead
      // of re-serving the suspect memory file.
      ++stats_.drops;
      Count("snapshot.quarantine_drops");
      EmitJournal("quarantine-drop", key);
      break;
    case Quarantine::Strike::kPoison:
      // The recapture failed too: poison. Every Find until the TTL misses
      // fast, so the fleet cold-boots instead of restore-crash-looping.
      ++stats_.poisoned;
      Count("snapshot.quarantine_poisoned");
      EmitJournal("snapshot-poison", key);
      break;
  }
  store_.Erase(key);
}

void SnapshotCache::set_quarantine(QuarantinePolicy policy) {
  std::lock_guard lock(mu_);
  quarantine_.set_policy(policy);
}

void SnapshotCache::set_quarantine_clock(std::function<Nanos()> now) {
  std::lock_guard lock(mu_);
  quarantine_now_ = std::move(now);
}

void SnapshotCache::Count(const char* counter) const {
  if (metrics_ != nullptr) {
    metrics_->GetCounter(counter).Increment();
  }
}

void SnapshotCache::EmitJournal(const char* type, const std::string& key,
                                std::vector<telemetry::Field> more) const {
  apps::EmitCacheEvent(journal_, "snapshot-cache", type, "key", key, std::move(more));
}

SnapshotCache::Stats SnapshotCache::stats() const {
  const auto store = store_.stats();
  std::lock_guard lock(mu_);
  Stats out = stats_;
  out.hits = store.hits;
  out.misses = store.misses + out.denials;  // A denial is a miss too.
  out.captures = store.puts;
  out.duplicate_captures = store.duplicate_puts;
  out.evictions = store.evictions;
  out.bytes_stored = store.bytes_stored;
  out.bytes_evicted = store.bytes_evicted;
  out.bytes_pinned = store.bytes_pinned;
  out.entries = store.entries;
  return out;
}

void SnapshotCache::PublishMetrics(telemetry::MetricRegistry& registry) const {
  const Stats s = stats();
  auto set = [&registry](const char* name, uint64_t value) {
    registry.GetGauge(name).Set(static_cast<int64_t>(value));
  };
  set("snapshotcache.hits", s.hits);
  set("snapshotcache.misses", s.misses);
  set("snapshotcache.captures", s.captures);
  set("snapshotcache.duplicate_captures", s.duplicate_captures);
  set("snapshotcache.restores", s.restores);
  set("snapshotcache.restore_failures", s.restore_failures);
  set("snapshotcache.evictions", s.evictions);
  set("snapshotcache.bytes_stored", s.bytes_stored);
  set("snapshotcache.bytes_evicted", s.bytes_evicted);
  set("snapshotcache.bytes_pinned", s.bytes_pinned);
  set("snapshotcache.entries", s.entries);
  set("snapshotcache.quarantine_drops", s.drops);
  set("snapshotcache.quarantine_poisoned", s.poisoned);
  set("snapshotcache.quarantine_denials", s.denials);
}

}  // namespace lupine::core
