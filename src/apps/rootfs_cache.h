// Content-addressed cache of built rootfs blobs.
//
// The fleet path used to call BuildAppRootfs once per GetOrBuild, so a
// top-20 rebuild serialized twenty LUPX2FS images even when nineteen were
// byte-identical to the last run. This cache keys blobs by (container-image
// digest, RootfsOptions) in a ContentStore (apps/content_store.h):
// concurrent requests for the same key share one build (single flight), and
// a size-aware LRU keeps the store under a configurable byte/entry budget
// (counted in blob bytes). Images are handed out as
// shared_ptr<const guestos::RootfsImage>, the blob plus the tree every boot
// of it mounts from; an entry some fleet member still holds is pinned and
// never evicted.
#ifndef SRC_APPS_ROOTFS_CACHE_H_
#define SRC_APPS_ROOTFS_CACHE_H_

#include <memory>
#include <string>

#include "src/apps/content_store.h"
#include "src/apps/rootfs_builder.h"
#include "src/guestos/rootfs.h"
#include "src/telemetry/journal.h"
#include "src/telemetry/metrics.h"

namespace lupine::apps {

class RootfsCache {
 public:
  using ImagePtr = std::shared_ptr<const guestos::RootfsImage>;

  // Default: unbounded (never evicts), matching the kernel cache.
  explicit RootfsCache(CacheBudget budget = {})
      : store_("rootfs-cache",
               [](const guestos::RootfsImage& rootfs) -> Bytes { return rootfs.blob().size(); },
               budget) {}

  // Returns the (possibly shared) rootfs image for `image` built with
  // `options`, building it at most once per distinct key across all
  // threads. Never fails: rootfs construction is deterministic string
  // assembly.
  ImagePtr GetOrBuild(const ContainerImage& image, const RootfsOptions& options);

  // The cache key: a digest over every field of the container image that
  // reaches the blob, plus the build options (a KML rootfs carries a
  // different musl, so kml_libc is part of the key, never collapsed).
  static std::string CacheKey(const ContainerImage& image, const RootfsOptions& options);

  // Pure probe: true when the blob for (image, options) is stored. No side
  // effects — no stats, no LRU touch — so provisioning planners can ask
  // "would this be a hit?" without perturbing the counters the storm tests
  // assert on.
  bool Contains(const ContainerImage& image, const RootfsOptions& options) const {
    return store_.Contains(CacheKey(image, options));
  }

  // Drops the cached blob for (image, options) so the next request rebuilds
  // it from scratch — the quarantine path: an artifact whose launches keep
  // failing must not be served its possibly-poisoned rootfs back from cache.
  // Returns true when an entry was actually dropped. An in-flight build is
  // left alone (its waiters hold the blob already); callers invalidate again
  // after the next failure.
  bool Invalidate(const ContainerImage& image, const RootfsOptions& options) {
    return store_.Erase(CacheKey(image, options));
  }

  // builds: key misses that ran BuildAppRootfs; invalidations: quarantine
  // drops (rebuild-forcing).
  using Stats = ContentStore<guestos::RootfsImage>::Stats;
  Stats stats() const { return store_.stats(); }

  // Publishes the current Stats as absolute-valued `rootfscache.*` gauges.
  // Call at a snapshot point; gauges overwrite, so this is idempotent.
  void PublishMetrics(telemetry::MetricRegistry& registry) const;

  // Optional, non-owning flight-recorder sink: hit/miss/evict/invalidate
  // events under source "rootfs-cache" (schedule-scoped: full export /
  // Perfetto only). The journal must outlive the cache.
  void set_journal(telemetry::Journal* journal) { store_.set_journal(journal); }

 private:
  ContentStore<guestos::RootfsImage> store_;
};

}  // namespace lupine::apps

#endif  // SRC_APPS_ROOTFS_CACHE_H_
