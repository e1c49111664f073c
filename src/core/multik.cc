#include "src/core/multik.h"

#include <cassert>
#include <functional>
#include <utility>

#include "src/apps/builtin.h"
#include "src/apps/init_script.h"
#include "src/kbuild/builder.h"

namespace lupine::core {

std::unique_ptr<vmm::Vm> KernelCache::AppArtifact::Launch(Bytes memory,
                                                          FaultInjector* faults) const {
  vmm::VmSpec spec;
  spec.monitor = vmm::Firecracker();
  spec.image = kernel;
  spec.rootfs = rootfs;
  spec.memory = memory;
  spec.faults = faults;
  return std::make_unique<vmm::Vm>(std::move(spec));
}

std::string KernelCache::ConfigFingerprint(const kconfig::Config& config) {
  // Canonical text: NAME=value; for every enabled option in name order, then
  // the build knobs. (Config::name deliberately excluded — two differently
  // named but identical configs produce identical kernels.)
  const auto& interner = kconfig::OptionInterner::Global();
  std::string text;
  kconfig::ValueViewGuard guard(config);  // ValueOfId views appended across the loop.
  for (kconfig::OptionId id : config.EnabledIdsByName()) {
    text += interner.NameOf(id);
    text += '=';
    text += config.ValueOfId(id);
    text += ';';
  }
  assert(guard.Check() && "config mutated while fingerprinting");
  (void)guard;
  text += config.compile_mode() == kconfig::CompileMode::kOs ? "mode=Os" : "mode=O2";
  text += config.kml_patch_applied() ? ";kml=1" : ";kml=0";
  // Content address: a stable hash over the canonical text.
  return std::to_string(std::hash<std::string>{}(text));
}

KernelCache::KernelCache(BuildOptions options, CacheBudget artifact_budget,
                         CacheBudget kernel_budget)
    : options_(std::move(options)),
      artifacts_(
          "kernel-cache",
          [](const AppArtifact& artifact) -> Bytes {
            return artifact.rootfs->blob().size() + artifact.init_script.size();
          },
          artifact_budget),
      kernels_(
          "kernel-cache", [](const kbuild::KernelImage& image) -> Bytes { return image.size; },
          kernel_budget) {}

Result<KernelCache::ArtifactPtr> KernelCache::GetOrBuild(const std::string& app) {
  Count("kernelcache.requests");
  {
    // Quarantine gate: a poisoned key fails fast instead of handing a
    // known-bad artifact to yet another worker.
    std::lock_guard lock(mu_);
    switch (quarantine_.Check(app, quarantine_now_())) {
      case Quarantine::Gate::kDenied:
        ++quarantine_denials_;
        Count("kernelcache.quarantine_denials");
        EmitJournal("quarantine-denial", app);
        return Status(Err::kAccess, "quarantined: " + app +
                                        " kept failing after a rebuild; poisoned until TTL");
      case Quarantine::Gate::kProbe:
        // TTL expired: half-open. Grant one fresh rebuild cycle.
        quarantine_.Forget(app);
        EmitJournal("half-open", app);
        break;
      case Quarantine::Gate::kOpen:
        break;
    }
  }
  bool built = false;
  auto artifact = artifacts_.GetOrCompute(app, [&] {
    built = true;
    return BuildArtifact(app);
  });
  if (built) {
    // The new artifact pins its kernel; the artifact tier trimmed on
    // insertion, which may have unpinned older kernels.
    kernels_.Trim();
  } else if (artifact.ok()) {
    Count("kernelcache.app_hits");
  }
  return artifact;
}

Result<KernelCache::ArtifactPtr> KernelCache::BuildArtifact(const std::string& app) {
  // This flight's host-wall provisioning timeline: specialize/resolve from
  // SpecializeConfig, `build` only when this flight really built the kernel,
  // `load-rootfs` below. Rides on the artifact for bench exemplars.
  auto provisioning = std::make_shared<telemetry::SpanTrace>();
  auto specialized = SpecializeForApp(app, provisioning.get());
  if (!specialized.ok()) {
    return specialized.status();
  }
  Specialization spec = specialized.take();
  if (metrics_ != nullptr) {
    for (const char* stage : {"specialize", "resolve"}) {
      if (const telemetry::Span* span = provisioning->Find(stage)) {
        metrics_->GetHistogram("build.stage_ns", {{"stage", stage}})
            .Observe(static_cast<double>(span->duration()));
      }
    }
  }

  // Kernel-level single-flight: apps whose configurations fingerprint
  // identically share one build even when requested concurrently.
  auto ensured = EnsureKernel(spec.config, spec.fingerprint, provisioning.get());
  if (!ensured.ok()) {
    return ensured.status();
  }
  KernelPtr kernel = ensured.take();

  // Per-app artifact: the init script is per-app; the rootfs image is shared
  // through the content-addressed rootfs cache.
  apps::ContainerImage image = apps::MakeAlpineImage(*spec.manifest);
  apps::RootfsOptions rootfs_options;
  rootfs_options.kml_libc = options_.kml;
  auto artifact = std::make_shared<AppArtifact>();
  artifact->kernel = kernel;
  telemetry::HostStopwatch rootfs_watch;
  artifact->rootfs = rootfs_cache_.GetOrBuild(image, rootfs_options);
  const Nanos rootfs_ns = rootfs_watch.ElapsedNanos();
  provisioning->AddPhase("load-rootfs", rootfs_ns);
  if (metrics_ != nullptr) {
    metrics_->GetHistogram("build.stage_ns", {{"stage", "load-rootfs"}})
        .Observe(static_cast<double>(rootfs_ns));
  }
  artifact->init_script = apps::GenerateInitScript(image);
  artifact->general_kernel = spec.general_kernel;
  artifact->fingerprint = spec.fingerprint;
  artifact->rootfs_key = apps::RootfsCache::CacheKey(image, rootfs_options);
  artifact->provisioning = std::move(provisioning);

  std::lock_guard lock(mu_);
  app_kernel_bytes_[app] = kernel->size;
  if (spec.general_kernel) {
    ++general_served_;
  }
  return ArtifactPtr(std::move(artifact));
}

Result<KernelCache::Specialization> KernelCache::SpecializeForApp(
    const std::string& app, telemetry::SpanTrace* provisioning) {
  const apps::AppManifest* manifest = apps::FindManifest(app);
  if (manifest == nullptr) {
    return Status(Err::kNoEnt, "no manifest for application " + app);
  }
  auto specialized = builder_.SpecializeConfig(*manifest, options_, provisioning);
  if (!specialized.ok()) {
    return specialized.status();
  }
  Specialization spec;
  spec.manifest = manifest;
  spec.config = specialized.take();
  // Cross-build batching: prove the per-app configuration is a subset of
  // lupine-general and, if so, build/serve the shared general kernel
  // instead. The proof is per-app — an extra option outside the general
  // union falls back to the specialized build.
  if (options_.batch_general && !options_.general_config) {
    BuildOptions general_options = options_;
    general_options.general_config = true;
    general_options.batch_general = false;
    general_options.extra_options.clear();
    auto general = builder_.SpecializeConfig(*manifest, general_options);
    if (general.ok() && spec.config.IsSubsetOf(general.value())) {
      spec.config = general.take();
      spec.general_kernel = true;
    }
  }
  spec.fingerprint = ConfigFingerprint(spec.config);
  return spec;
}

Result<KernelCache::KernelPtr> KernelCache::EnsureKernel(const kconfig::Config& config,
                                                         const std::string& fingerprint,
                                                         telemetry::SpanTrace* provisioning) {
  return kernels_.GetOrCompute(fingerprint, [&]() -> Result<KernelPtr> {
    telemetry::HostStopwatch build_watch;
    kbuild::ImageBuilder image_builder;
    auto built = image_builder.Build(config);
    const Nanos build_ns = build_watch.ElapsedNanos();
    if (!built.ok()) {
      return built.status();
    }
    if (provisioning != nullptr) {
      provisioning->AddPhase("build", build_ns);
    }
    if (metrics_ != nullptr) {
      metrics_->GetCounter("kernelcache.builds").Increment();
      metrics_->GetHistogram("build.stage_ns", {{"stage", "build"}})
          .Observe(static_cast<double>(build_ns));
    }
    // Artifacts pin their kernels: trim them first, so the kernel tier's
    // trim on this insertion can reclaim kernels only stale artifacts held.
    artifacts_.Trim();
    return std::make_shared<const kbuild::KernelImage>(built.take());
  });
}

Result<KernelCache::ProvisionPlan> KernelCache::PlanProvisioning(const std::string& app) {
  auto specialized = SpecializeForApp(app, nullptr);
  if (!specialized.ok()) {
    return specialized.status();
  }
  Specialization spec = specialized.take();
  ProvisionPlan plan;
  plan.app = app;
  plan.fingerprint = spec.fingerprint;
  apps::RootfsOptions rootfs_options;
  rootfs_options.kml_libc = options_.kml;
  const apps::ContainerImage image = apps::MakeAlpineImage(*spec.manifest);
  plan.rootfs_key = apps::RootfsCache::CacheKey(image, rootfs_options);
  plan.rootfs_cached = rootfs_cache_.Contains(image, rootfs_options);
  plan.kernel_cached = kernels_.Contains(spec.fingerprint);
  plan.kernel_cost =
      provision_costs_.kernel_base +
      provision_costs_.kernel_per_option * static_cast<Nanos>(spec.config.EnabledIds().size());
  plan.rootfs_cost = provision_costs_.rootfs;
  return plan;
}

Status KernelCache::PrewarmKernel(const std::string& app) {
  auto specialized = SpecializeForApp(app, nullptr);
  if (!specialized.ok()) {
    return specialized.status();
  }
  Specialization spec = specialized.take();
  auto ensured = EnsureKernel(spec.config, spec.fingerprint, nullptr);
  return ensured.ok() ? Status::Ok() : ensured.status();
}

Status KernelCache::PrewarmRootfs(const std::string& app) {
  const apps::AppManifest* manifest = apps::FindManifest(app);
  if (manifest == nullptr) {
    return Status(Err::kNoEnt, "no manifest for application " + app);
  }
  apps::RootfsOptions rootfs_options;
  rootfs_options.kml_libc = options_.kml;
  (void)rootfs_cache_.GetOrBuild(apps::MakeAlpineImage(*manifest), rootfs_options);
  return Status::Ok();
}

void KernelCache::DropForRebuild(const std::string& app) {
  artifacts_.Erase(app);
  // The rootfs blob is keyed by content, not by app: drop it too, or the
  // "rebuild" would be served the identical cached bytes. The shared kernel
  // image stays — other apps' successful boots exonerate it, and a per-app
  // config that really miscompiles rebuilds through the artifact path anyway.
  if (const apps::AppManifest* manifest = apps::FindManifest(app); manifest != nullptr) {
    apps::RootfsOptions rootfs_options;
    rootfs_options.kml_libc = options_.kml;
    (void)rootfs_cache_.Invalidate(apps::MakeAlpineImage(*manifest), rootfs_options);
  }
}

void KernelCache::ReportLaunchFailure(const std::string& app) {
  std::lock_guard lock(mu_);
  if (!quarantine_.policy().enabled) {
    return;
  }
  ++quarantine_failures_;
  Count("kernelcache.quarantine_failures");
  switch (quarantine_.Fail(app, quarantine_now_())) {
    case Quarantine::Strike::kNone:
      return;  // Already poisoned; stragglers mid-flight change nothing.
    case Quarantine::Strike::kDrop:
      // Strike one: rebuild-once. The next GetOrBuild builds from scratch
      // instead of re-serving the suspect.
      ++quarantine_rebuilds_;
      Count("kernelcache.quarantine_rebuilds");
      EmitJournal("quarantine-rebuild", app);
      break;
    case Quarantine::Strike::kPoison:
      // The rebuild failed too: poison. One bad blob must not crash-loop
      // rounds x workers VMs — every GetOrBuild until the TTL fails fast.
      ++quarantine_poisoned_;
      Count("kernelcache.quarantine_poisoned");
      EmitJournal("poison", app);
      break;
  }
  DropForRebuild(app);
}

void KernelCache::set_journal(telemetry::Journal* journal) {
  std::lock_guard lock(mu_);
  journal_ = journal;
  artifacts_.set_journal(journal);
  kernels_.set_journal(journal);
  rootfs_cache_.set_journal(journal);
}

void KernelCache::EmitJournal(const char* type, const std::string& app) const {
  apps::EmitCacheEvent(journal_, "kernel-cache", type, "app", app);
}

void KernelCache::Count(const char* counter) const {
  if (metrics_ != nullptr) {
    metrics_->GetCounter(counter).Increment();
  }
}

void KernelCache::set_quarantine(QuarantinePolicy policy) {
  std::lock_guard lock(mu_);
  quarantine_.set_policy(policy);
}

void KernelCache::set_quarantine_clock(std::function<Nanos()> now) {
  std::lock_guard lock(mu_);
  quarantine_now_ = std::move(now);
}

KernelCache::Stats KernelCache::stats() const {
  const auto artifacts = artifacts_.stats();
  const auto kernels = kernels_.stats();
  std::lock_guard lock(mu_);
  Stats stats;
  stats.requests = artifacts.requests + quarantine_denials_;
  stats.builds = kernels.builds;
  stats.apps = app_kernel_bytes_.size();
  stats.distinct_kernels = kernels.entries;
  for (const auto& [key, kernel_bytes] : app_kernel_bytes_) {
    stats.bytes_if_unshared += kernel_bytes;
  }
  stats.bytes_stored = kernels.bytes_stored;
  stats.general_served = general_served_;
  stats.quarantine_failures = quarantine_failures_;
  stats.quarantine_rebuilds = quarantine_rebuilds_;
  stats.quarantine_poisoned = quarantine_poisoned_;
  stats.quarantine_denials = quarantine_denials_;
  stats.artifact_evictions = artifacts.evictions;
  stats.kernel_evictions = kernels.evictions;
  stats.bytes_evicted = kernels.bytes_evicted;
  stats.kernel_bytes_pinned = kernels.bytes_pinned;
  stats.artifact_bytes_pinned = artifacts.bytes_pinned;
  return stats;
}

void KernelCache::PublishMetrics(telemetry::MetricRegistry& registry) const {
  const Stats s = stats();
  auto set = [&registry](const char* name, uint64_t value, telemetry::Labels labels = {}) {
    registry.GetGauge(name, std::move(labels)).Set(static_cast<int64_t>(value));
  };
  set("kernelcache.apps", s.apps);
  set("kernelcache.distinct_kernels", s.distinct_kernels);
  set("kernelcache.bytes_stored", s.bytes_stored);
  set("kernelcache.bytes_saved", s.bytes_saved());
  set("kernelcache.general_served", s.general_served);
  set("kernelcache.quarantine_failures", s.quarantine_failures);
  set("kernelcache.quarantine_rebuilds", s.quarantine_rebuilds);
  set("kernelcache.quarantine_poisoned", s.quarantine_poisoned);
  set("kernelcache.quarantine_denials", s.quarantine_denials);
  set("kernelcache.bytes_evicted", s.bytes_evicted);
  set("kernelcache.evictions", s.artifact_evictions, {{"tier", "artifact"}});
  set("kernelcache.evictions", s.kernel_evictions, {{"tier", "kernel"}});
  set("kernelcache.bytes_pinned", s.artifact_bytes_pinned, {{"tier", "artifact"}});
  set("kernelcache.bytes_pinned", s.kernel_bytes_pinned, {{"tier", "kernel"}});
  rootfs_cache_.PublishMetrics(registry);
}

}  // namespace lupine::core
