// MultiK-style kernel orchestration (the authors' companion framework,
// reference [36]: "MultiK: A Framework for Orchestrating Multiple
// Specialized Kernels").
//
// A fleet of Lupine unikernels builds one kernel per application; many of
// those are identical (every language runtime needs zero options beyond
// lupine-base, Table 3). The KernelCache content-addresses built kernel
// images by their configuration so identical specializations share one
// image, content-addresses rootfs blobs by (container-image digest,
// RootfsOptions) so each distinct rootfs is built once, and reports
// fleet-level statistics (distinct kernels, image bytes saved, rootfs hit
// rates).
//
// The cache is thread-safe, with two ContentStore tiers (apps/content_store.h)
// single-flighting builds at two levels: concurrent GetOrBuild("node") calls
// produce exactly one build (the artifact tier, keyed by app),
// and concurrent requests for *different* apps whose specialized
// configurations fingerprint identically (e.g. the zero-extra-option
// language runtimes of Table 3) also share one kernel build (the kernel
// tier, keyed by fingerprint). Configurations are fingerprinted via
// LupineBuilder's SpecializeConfig *before* the expensive kernel build, so
// deduplication happens up front rather than after redundant work. Failed
// builds are not cached: waiters observe the failure, later calls retry
// from scratch, matching the serial cache's semantics.
//
// Retention is bounded by optional size-aware LRU budgets (one per tier).
// Eviction only drops entries the cache is the sole owner of: artifacts and
// kernels are handed out as shared_ptr, and any entry a caller still
// references — including every in-flight build, whose result is published
// through the flight itself — is pinned. An artifact holds its kernel
// image, so it pins its kernel, and every insertion trims artifacts before
// kernels. A fleet rebuilding under churning extra_options therefore stays
// under its byte budget instead of growing without bound.
#ifndef SRC_CORE_MULTIK_H_
#define SRC_CORE_MULTIK_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/apps/content_store.h"
#include "src/apps/rootfs_cache.h"
#include "src/core/lupine.h"
#include "src/telemetry/journal.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/span.h"
#include "src/util/retry.h"

namespace lupine::core {

class KernelCache {
 public:
  explicit KernelCache(BuildOptions options = {}, CacheBudget artifact_budget = {},
                       CacheBudget kernel_budget = {});

  // What a fleet member deploys: a (possibly shared) kernel image, plus a
  // (possibly shared) rootfs image whose mounted tree every launch starts
  // from. All shared pieces are immutable and reference-counted; an
  // artifact outlives its cache entry, so holding one across an eviction is
  // safe.
  struct AppArtifact {
    std::shared_ptr<const kbuild::KernelImage> kernel;
    std::shared_ptr<const guestos::RootfsImage> rootfs;
    std::string init_script;
    // Content identities of the immutable inputs: the kernel config
    // fingerprint and the rootfs cache key. Together (plus guest RAM) they
    // key snapshot/restore state — two artifacts with equal identities boot
    // to byte-identical post-init state.
    std::string fingerprint;
    std::string rootfs_key;
    // The batching mode substituted the shared lupine-general kernel after
    // proving this app's config is a subset of it.
    bool general_kernel = false;
    // Host-wall provisioning timeline of the flight that built this
    // artifact: specialize -> resolve -> build (when this flight built the
    // kernel) -> load-rootfs. Shared by every holder; null for artifacts
    // served from the store (their provisioning already happened).
    std::shared_ptr<const telemetry::SpanTrace> provisioning;

    std::unique_ptr<vmm::Vm> Launch(Bytes memory = 512 * kMiB,
                                    FaultInjector* faults = nullptr) const;
  };
  using ArtifactPtr = std::shared_ptr<const AppArtifact>;

  // Builds (or reuses) the specialized kernel for `app` with the cache's
  // build options. Safe to call from multiple threads; concurrent duplicate
  // requests wait on one build.
  Result<ArtifactPtr> GetOrBuild(const std::string& app);

  // --- Staged provisioning --------------------------------------------------
  // GetOrBuild runs the whole chain (specialize -> kernel -> rootfs) as one
  // opaque step. A pipelining fleet scheduler wants the stages as separate
  // schedulable tasks so one VM's kernel build overlaps another's rootfs
  // assembly. PlanProvisioning exposes the stage keys and which stages are
  // already resident; PrewarmKernel/PrewarmRootfs execute one stage each
  // (single-flight with each other and with GetOrBuild). A boot task that
  // runs after its prewarm deps is then a pure cache hit.

  // Modeled virtual cost of cold provisioning stages. Builds run on the host
  // wall clock; fleet virtual makespans charge these deterministic figures
  // instead so scheduling results never depend on host core count or load.
  struct ProvisionCostModel {
    // Kernel build: a fixed compile floor plus a per-enabled-option cost
    // (more config surface = more translation units in this model).
    Nanos kernel_base = Millis(1500);
    Nanos kernel_per_option = Millis(3);
    // Rootfs assembly: flat — blob contents are config-independent string
    // assembly (ContainerImage carries no byte size to scale by).
    Nanos rootfs = Millis(250);
  };

  // One app's provisioning, staged: the kernel stage key (shared by every
  // app whose specialized config fingerprints identically), the rootfs stage
  // key, residency of each stage, and the modeled cost of the cold ones.
  struct ProvisionPlan {
    std::string app;
    std::string fingerprint;  // Kernel stage key.
    std::string rootfs_key;   // Rootfs stage key.
    bool kernel_cached = false;
    bool rootfs_cached = false;
    Nanos kernel_cost = 0;  // Modeled cost if the kernel stage is cold.
    Nanos rootfs_cost = 0;  // Modeled cost if the rootfs stage is cold.
  };

  // Computes the plan for `app` under the cache's build options. Pure
  // planning: no request/hit counters move, the quarantine gate is not
  // consulted, and nothing is built — safe to call while deciding what to
  // schedule without perturbing the stats storm tests assert on.
  Result<ProvisionPlan> PlanProvisioning(const std::string& app);

  // Stage executors (the cache's build options). Each builds its stage at
  // most once fleet-wide (kernel builds single-flight with GetOrBuild's own
  // kernel path; the rootfs cache single-flights internally) and is a cheap
  // no-op when the stage is already resident.
  Status PrewarmKernel(const std::string& app);
  Status PrewarmRootfs(const std::string& app);

  void set_provision_costs(ProvisionCostModel model) { provision_costs_ = model; }
  const ProvisionCostModel& provision_costs() const { return provision_costs_; }

  // --- Quarantine -----------------------------------------------------------
  // Launch-failure feedback from fleet members: `app` booted from its
  // artifact and failed. Drives util/retry.h's Quarantine: the first
  // failure drops the cached artifact and its rootfs blob so the next
  // request rebuilds from scratch (maybe the build was the problem); a
  // failure after the rebuild poisons the key — GetOrBuild fails fast with
  // kAccess ("quarantined") until the TTL passes, and then one probe
  // request gets a fresh rebuild cycle.
  void ReportLaunchFailure(const std::string& app);
  // True when `status` is a quarantine denial from GetOrBuild.
  static bool IsQuarantineDenial(const Status& status) {
    return status.err() == Err::kAccess;
  }
  void set_quarantine(QuarantinePolicy policy);
  // TTL time source, monotonic nanos. Default: the host steady clock.
  // Tests inject a manual clock for deterministic expiry.
  void set_quarantine_clock(std::function<Nanos()> now);

  struct Stats {
    size_t requests = 0;          // GetOrBuild calls.
    size_t builds = 0;            // Kernel builds (fingerprint misses).
    size_t apps = 0;              // Distinct apps ever served.
    size_t distinct_kernels = 0;  // Kernel images currently stored.
    Bytes bytes_if_unshared = 0;  // Sum of per-app image sizes without sharing.
    Bytes bytes_stored = 0;       // Sum of distinct stored image sizes.
    size_t general_served = 0;    // Artifacts served the shared general kernel.
    // Quarantine (launch-failure containment).
    size_t quarantine_failures = 0;  // Launch failures reported.
    size_t quarantine_rebuilds = 0;  // Artifacts dropped for a from-scratch rebuild.
    size_t quarantine_poisoned = 0;  // Keys poisoned (fail-fast) so far, lifetime.
    size_t quarantine_denials = 0;   // GetOrBuild calls denied while poisoned.
    size_t artifact_evictions = 0;
    size_t kernel_evictions = 0;
    Bytes bytes_evicted = 0;      // Kernel image bytes dropped by eviction.
    // Bytes the cache cannot evict because callers still hold references.
    Bytes kernel_bytes_pinned = 0;
    Bytes artifact_bytes_pinned = 0;
    Bytes bytes_saved() const { return bytes_if_unshared - bytes_stored; }
  };
  Stats stats() const;

  // Optional, non-owning metric sink for live counters and stage timings:
  // `kernelcache.requests` / `kernelcache.app_hits` / `kernelcache.builds`
  // counters and `build.stage_ns{stage}` histograms (specialize, resolve,
  // build, load-rootfs — host wall clock). Set before the first GetOrBuild;
  // the registry must outlive the cache.
  void set_metrics(telemetry::MetricRegistry* metrics) { metrics_ = metrics; }

  // Optional, non-owning flight-recorder sink: cache decisions (hit, miss,
  // evict and invalidate from both tiers, keyed by app or fingerprint;
  // quarantine rebuild/poison/half-open/denial by app) land as journal
  // events under source "kernel-cache" (the rootfs side gets the
  // sink too, under "rootfs-cache"). Cache interleaving is host-timing
  // dependent, so the events are schedule-scoped (full export / Perfetto
  // only). Set before the first GetOrBuild; the journal must outlive the
  // cache.
  void set_journal(telemetry::Journal* journal);

  // Publishes the current Stats (and the rootfs cache's) as absolute-valued
  // gauges: `kernelcache.*` with eviction/pinned bytes split by
  // `{tier=artifact|kernel}`, plus `rootfscache.*`. Call at a snapshot point
  // (end of a fleet run) — gauges overwrite, so this is idempotent.
  void PublishMetrics(telemetry::MetricRegistry& registry) const;

  // The rootfs-side cache (content-addressed blobs, own LRU budget).
  apps::RootfsCache& rootfs_cache() { return rootfs_cache_; }
  apps::RootfsCache::Stats rootfs_stats() const { return rootfs_cache_.stats(); }

  // The cache key: a canonical fingerprint of the enabled option set and
  // build knobs (what makes two kernels byte-identical in this model).
  static std::string ConfigFingerprint(const kconfig::Config& config);

 private:
  // A stored kernel image; a held artifact pins it.
  using KernelPtr = std::shared_ptr<const kbuild::KernelImage>;

  // The artifact tier's compute: specialize, ensure the kernel, load the
  // rootfs. Lock-free apart from the accounting at the end.
  Result<ArtifactPtr> BuildArtifact(const std::string& app);

  // The front half of provisioning, shared by BuildArtifact and the staged
  // API: manifest lookup, SpecializeConfig, the batch-general subset proof,
  // and the config fingerprint. Lock-free (the builder is stateless).
  struct Specialization {
    const apps::AppManifest* manifest = nullptr;
    kconfig::Config config;
    bool general_kernel = false;
    std::string fingerprint;
  };
  Result<Specialization> SpecializeForApp(const std::string& app,
                                          telemetry::SpanTrace* provisioning);
  // The kernel stage: serve `fingerprint` from the kernel tier, join its
  // flight, or build `config` and publish. `provisioning` (optional)
  // receives the "build" phase on a build.
  Result<KernelPtr> EnsureKernel(const kconfig::Config& config, const std::string& fingerprint,
                                 telemetry::SpanTrace* provisioning);

  // Journal emission (schedule-scoped, source "kernel-cache"). Safe under
  // mu_: the journal's own mutex is a leaf.
  void EmitJournal(const char* type, const std::string& app) const;
  void Count(const char* counter) const;
  // Drops the cached artifact + rootfs blob for `app` so the next
  // GetOrBuild rebuilds from scratch.
  void DropForRebuild(const std::string& app);

  BuildOptions options_;
  LupineBuilder builder_;
  apps::RootfsCache rootfs_cache_;
  telemetry::MetricRegistry* metrics_ = nullptr;
  telemetry::Journal* journal_ = nullptr;
  ProvisionCostModel provision_costs_;

  apps::ContentStore<AppArtifact> artifacts_;  // By app.
  apps::ContentStore<kbuild::KernelImage> kernels_;  // By fingerprint.

  // Guards everything below. Taken before a store's lock, never after.
  mutable std::mutex mu_;
  // Every app ever served -> the size of its kernel image; survives
  // eviction so bytes_if_unshared reflects the whole fleet, not the
  // currently-resident slice.
  std::map<std::string, Bytes> app_kernel_bytes_;
  size_t general_served_ = 0;
  // Quarantine state, keyed like the artifact tier (by app).
  Quarantine quarantine_;
  std::function<Nanos()> quarantine_now_ = SteadyNanos;
  size_t quarantine_failures_ = 0;
  size_t quarantine_rebuilds_ = 0;
  size_t quarantine_poisoned_ = 0;
  size_t quarantine_denials_ = 0;
};

}  // namespace lupine::core

#endif  // SRC_CORE_MULTIK_H_
