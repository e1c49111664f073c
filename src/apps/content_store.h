// One content-addressed store behind the kernel, rootfs and snapshot caches.
//
// A ContentStore<V> maps content keys (digests of whatever the value was
// built from) to immutable shared values:
//
//   * GetOrCompute single-flights concurrent misses on a key: the first
//     caller computes outside the lock, later callers wait on its flight and
//     take the value straight off it, so even a value a tiny budget evicts at
//     once reaches every waiter. Failures are not stored: waiters see the
//     error, and the next caller computes again.
//   * Put publishes a value computed elsewhere; the first put wins.
//   * Find counts a hit or a miss and refreshes recency; Contains does not.
//   * A size-aware LRU keeps the store under its CacheBudget after every
//     insertion. A value some caller still holds (use_count() > 1, which
//     includes every waiter on a flight) is pinned and never evicted.
//
// Thread-safe. With a journal set, hit / miss / evict / invalidate events
// carrying the key land under the owning cache's source.
#ifndef SRC_APPS_CONTENT_STORE_H_
#define SRC_APPS_CONTENT_STORE_H_

#include <condition_variable>
#include <cstdint>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/telemetry/journal.h"
#include "src/util/result.h"
#include "src/util/units.h"

namespace lupine {

// Retention limits for a cache. Zero means unlimited on that axis; a cache
// with both limits zero never evicts. A single entry larger than max_bytes
// is evicted right after insertion (the cache effectively refuses to retain
// it), unless it is pinned — pins always win over the budget.
struct CacheBudget {
  Bytes max_bytes = 0;
  size_t max_entries = 0;
};

namespace apps {

// Records one cache decision about `key`, filed under the field `key_field`
// ahead of `more`. Which worker reaches a key first depends on host timing,
// so cache events are schedule-scoped (full export / Perfetto only). No-op
// without a journal.
inline void EmitCacheEvent(telemetry::Journal* journal, const char* source, const char* type,
                           const char* key_field, const std::string& key,
                           std::vector<telemetry::Field> more = {}) {
  if (journal == nullptr) {
    return;
  }
  telemetry::Event event;
  event.source = source;
  event.type = type;
  more.insert(more.begin(), {key_field, telemetry::FieldValue{key}});
  event.fields = std::move(more);
  event.schedule_scoped = true;
  journal->Emit(std::move(event));
}

template <typename V>
class ContentStore {
 public:
  using Ptr = std::shared_ptr<const V>;
  // Bytes one value charges against the budget.
  using SizeFn = Bytes (*)(const V&);

  ContentStore(const char* source, SizeFn size, CacheBudget budget = {})
      : source_(source), size_(size), budget_(budget) {}
  ContentStore(const ContentStore&) = delete;
  ContentStore& operator=(const ContentStore&) = delete;

  // `compute` is `Result<Ptr>()` and runs only on the flight's owner.
  template <typename Compute>
  Result<Ptr> GetOrCompute(const std::string& key, Compute&& compute) {
    std::unique_lock lock(mu_);
    ++stats_.requests;
    if (auto it = entries_.find(key); it != entries_.end()) {
      return HitLocked(it);
    }
    if (auto flying = flights_.find(key); flying != flights_.end()) {
      std::shared_ptr<Flight> other = flying->second;
      cv_.wait(lock, [&] { return other->done; });
      if (!other->status.ok()) {
        return other->status;
      }
      ++stats_.hits;
      EmitLocked("hit", key);
      return other->value;
    }
    auto flight = std::make_shared<Flight>();
    flights_.emplace(key, flight);
    ++stats_.misses;
    EmitLocked("miss", key);
    lock.unlock();
    Result<Ptr> computed = compute();
    lock.lock();
    flight->done = true;
    flights_.erase(key);
    if (computed.ok()) {
      flight->value = computed.value();
      ++stats_.builds;
      InsertLocked(key, flight->value);
    } else {
      flight->status = computed.status();
    }
    cv_.notify_all();
    return computed;
  }

  // Stores `value` unless `key` is resident; returns what the store holds.
  Ptr Put(const std::string& key, Ptr value) {
    std::lock_guard lock(mu_);
    if (auto it = entries_.find(key); it != entries_.end()) {
      ++stats_.duplicate_puts;
      return it->second.value;
    }
    ++stats_.puts;
    InsertLocked(key, value);
    return value;
  }

  Ptr Find(const std::string& key) {
    std::lock_guard lock(mu_);
    if (auto it = entries_.find(key); it != entries_.end()) {
      return HitLocked(it);
    }
    ++stats_.misses;
    EmitLocked("miss", key);
    return nullptr;
  }

  bool Contains(const std::string& key) const {
    std::lock_guard lock(mu_);
    return entries_.count(key) != 0;
  }

  // Drops `key` so the next request recomputes it. A flight in progress is
  // left alone: its waiters hold the value already.
  bool Erase(const std::string& key) {
    std::lock_guard lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      return false;
    }
    ++stats_.invalidations;
    EmitLocked("invalidate", key);
    RemoveLocked(it);
    return true;
  }

  // Evicts least-recently-used unpinned values until the store is within
  // its budget or only pinned values remain. Returns the evictions.
  size_t Trim() {
    std::lock_guard lock(mu_);
    return TrimLocked();
  }

  // Non-owning; the journal must outlive the store.
  void set_journal(telemetry::Journal* journal) {
    std::lock_guard lock(mu_);
    journal_ = journal;
  }

  struct Stats {
    uint64_t requests = 0;        // GetOrCompute calls.
    uint64_t hits = 0;            // Values served by GetOrCompute or Find.
    uint64_t misses = 0;          // Flights claimed; Finds that found nothing.
    uint64_t builds = 0;          // Successful computes stored.
    uint64_t puts = 0;            // Puts stored.
    uint64_t duplicate_puts = 0;  // Puts that lost to a resident value.
    uint64_t invalidations = 0;   // Erases that dropped a value.
    uint64_t evictions = 0;
    Bytes bytes_evicted = 0;
    Bytes bytes_stored = 0;
    Bytes bytes_pinned = 0;  // Resident bytes some caller still holds.
    size_t entries = 0;
  };
  Stats stats() const {
    std::lock_guard lock(mu_);
    Stats out = stats_;
    out.bytes_stored = bytes_;
    out.entries = entries_.size();
    for (const auto& [key, entry] : entries_) {
      if (entry.value.use_count() > 1) {
        out.bytes_pinned += entry.bytes;
      }
    }
    return out;
  }

 private:
  struct Flight {
    bool done = false;
    Status status = Status::Ok();
    Ptr value;
  };
  struct Entry {
    Ptr value;
    Bytes bytes = 0;
    std::list<std::string>::iterator position;  // In lru_.
  };
  using EntryMap = std::unordered_map<std::string, Entry>;

  Ptr HitLocked(typename EntryMap::iterator it) {
    lru_.splice(lru_.end(), lru_, it->second.position);
    ++stats_.hits;
    EmitLocked("hit", it->first);
    return it->second.value;
  }

  void InsertLocked(const std::string& key, const Ptr& value) {
    const Bytes bytes = size_(*value);
    lru_.push_back(key);
    entries_.emplace(key, Entry{value, bytes, std::prev(lru_.end())});
    bytes_ += bytes;
    TrimLocked();
  }

  void RemoveLocked(typename EntryMap::iterator it) {
    bytes_ -= it->second.bytes;
    lru_.erase(it->second.position);
    entries_.erase(it);
  }

  bool OverBudgetLocked() const {
    return (budget_.max_bytes != 0 && bytes_ > budget_.max_bytes) ||
           (budget_.max_entries != 0 && entries_.size() > budget_.max_entries);
  }

  size_t TrimLocked() {
    size_t evicted = 0;
    for (auto victim = lru_.begin(); victim != lru_.end() && OverBudgetLocked();) {
      auto it = entries_.find(*victim);
      ++victim;
      if (it->second.value.use_count() > 1) {
        continue;  // Pinned: the store's own reference is the +1.
      }
      ++evicted;
      stats_.bytes_evicted += it->second.bytes;
      EmitLocked("evict", it->first, {{"bytes", telemetry::FieldValue{it->second.bytes}}});
      RemoveLocked(it);
    }
    stats_.evictions += evicted;
    return evicted;
  }

  void EmitLocked(const char* type, const std::string& key,
                  std::vector<telemetry::Field> more = {}) const {
    EmitCacheEvent(journal_, source_, type, "key", key, std::move(more));
  }

  const char* const source_;
  const SizeFn size_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  telemetry::Journal* journal_ = nullptr;
  CacheBudget budget_;
  EntryMap entries_;
  std::list<std::string> lru_;  // Front = least recently used.
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;
  Bytes bytes_ = 0;
  Stats stats_;
};

}  // namespace apps
}  // namespace lupine

#endif  // SRC_APPS_CONTENT_STORE_H_
