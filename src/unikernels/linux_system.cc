#include "src/unikernels/linux_system.h"

#include "src/apps/builtin.h"
#include "src/apps/manifest.h"
#include "src/apps/rootfs_builder.h"
#include "src/kbuild/builder.h"
#include "src/kconfig/option_names.h"
#include "src/kconfig/presets.h"
#include "src/workload/app_bench.h"

namespace lupine::unikernels {

LinuxVariantSpec MicrovmSpec() {
  return {.name = "microvm", .base = LinuxBase::kMicrovm, .kml = false, .tiny = false};
}
LinuxVariantSpec LupineSpec() {
  return {.name = "lupine", .base = LinuxBase::kLupineApp, .kml = true, .tiny = false};
}
LinuxVariantSpec LupineNokmlSpec() {
  return {.name = "lupine-nokml", .base = LinuxBase::kLupineApp, .kml = false, .tiny = false};
}
LinuxVariantSpec LupineTinySpec() {
  return {.name = "lupine-tiny", .base = LinuxBase::kLupineApp, .kml = true, .tiny = true};
}
LinuxVariantSpec LupineNokmlTinySpec() {
  return {.name = "lupine-nokml-tiny", .base = LinuxBase::kLupineApp, .kml = false,
          .tiny = true};
}
LinuxVariantSpec LupineGeneralSpec() {
  return {.name = "lupine-general", .base = LinuxBase::kLupineGeneral, .kml = true,
          .tiny = false};
}
LinuxVariantSpec LupineGeneralNokmlSpec() {
  return {.name = "lupine-general-nokml", .base = LinuxBase::kLupineGeneral, .kml = false,
          .tiny = false};
}

Result<kconfig::Config> BuildVariantConfig(const LinuxVariantSpec& spec,
                                           const std::string& app) {
  kconfig::Config config;
  switch (spec.base) {
    case LinuxBase::kMicrovm:
      config = kconfig::MicrovmConfig();
      break;
    case LinuxBase::kLupineApp: {
      auto result = kconfig::LupineForApp(app);
      if (!result.ok()) {
        return result.status();
      }
      config = result.take();
      break;
    }
    case LinuxBase::kLupineGeneral:
      config = kconfig::LupineGeneral();
      break;
  }
  if (spec.tiny) {
    kconfig::ApplyTiny(config);
  }
  if (spec.base != LinuxBase::kMicrovm) {
    // Lupine's supervised posture (same as LupineBuilder): panic reboots
    // immediately so the monitor restarts the guest. microVM keeps the stock
    // PANIC_TIMEOUT=0 halt.
    config.SetValue(kconfig::names::kPanicTimeout, "-1");
  }
  if (spec.kml) {
    if (Status s = kconfig::ApplyKml(config); !s.ok()) {
      return s;
    }
  }
  config.set_name(spec.name + (spec.base == LinuxBase::kLupineApp ? "-" + app : ""));
  return config;
}

LinuxSystem::LinuxSystem(LinuxVariantSpec spec) : spec_(std::move(spec)) {
  apps::RegisterBuiltinApps();
}

AppSupport LinuxSystem::Supports(const std::string& app) const {
  // Linux runs anything, including multi-process applications (Section 5).
  (void)app;
  return {.supported = true, .reason = ""};
}

Result<std::unique_ptr<vmm::Vm>> LinuxSystem::MakeVm(const std::string& app, Bytes memory,
                                                     bool bench_rootfs,
                                                     FaultInjector* faults) {
  auto config = BuildVariantConfig(spec_, app);
  if (!config.ok()) {
    return config.status();
  }
  kbuild::ImageBuilder builder;
  auto image = builder.Build(config.value());
  if (!image.ok()) {
    return image.status();
  }
  vmm::VmSpec vm_spec;
  vm_spec.monitor = vmm::Firecracker();
  vm_spec.image = std::make_shared<const kbuild::KernelImage>(image.take());
  vm_spec.rootfs = std::make_shared<const guestos::RootfsImage>(
      bench_rootfs ? apps::BuildBenchRootfs(spec_.kml) : apps::BuildAppRootfsForApp(app, spec_.kml));
  vm_spec.memory = memory;
  vm_spec.faults = faults;
  return std::make_unique<vmm::Vm>(std::move(vm_spec));
}

Result<Bytes> LinuxSystem::KernelImageSize(const std::string& app) {
  auto config = BuildVariantConfig(spec_, app);
  if (!config.ok()) {
    return config.status();
  }
  kbuild::ImageBuilder builder;
  auto image = builder.Build(config.value());
  if (!image.ok()) {
    return image.status();
  }
  return image.value().size;
}

Result<Nanos> LinuxSystem::BootTime(const std::string& app) {
  auto vm = MakeVm(app, 512 * kMiB);
  if (!vm.ok()) {
    return vm.status();
  }
  if (Status s = (*vm)->Boot(); !s.ok()) {
    return s;
  }
  return (*vm)->boot_report().to_init;
}

Result<Bytes> LinuxSystem::MemoryFootprint(const std::string& app) {
  const apps::AppManifest* manifest = apps::FindManifest(app);
  if (manifest == nullptr) {
    return Status(Err::kNoEnt, "unknown app " + app);
  }
  const std::string ready = manifest->ready_line;
  bool is_server = manifest->kind == apps::AppKind::kServer;

  auto try_run = [&](Bytes memory) {
    auto vm = MakeVm(app, memory);
    if (!vm.ok()) {
      return false;
    }
    if (is_server) {
      if (!workload::BootAppServer(**vm, ready)) {
        return false;
      }
      // Success criteria: a handful of real requests must succeed.
      if (app == "redis") {
        auto result = workload::RunRedisBenchmark(**vm, /*set_workload=*/true, /*ops=*/32,
                                                  /*connections=*/2);
        return !(*vm)->kernel().oom() && result.errors == 0 && result.completed > 0;
      }
      if (app == "nginx") {
        auto result = workload::RunApacheBench(**vm, /*total_requests=*/32,
                                               /*requests_per_conn=*/4);
        return !(*vm)->kernel().oom() && result.errors == 0 && result.completed > 0;
      }
      return !(*vm)->kernel().oom();
    }
    auto result = (*vm)->BootAndRun();
    return result.status.ok() && result.exit_code == 0 && !(*vm)->kernel().oom() &&
           (*vm)->kernel().console().Contains(ready);
  };
  Bytes footprint = vmm::MinMemoryProbe(kMiB, 512 * kMiB, try_run);
  if (footprint == 0) {
    return Status(Err::kNoMem, app + " does not run in 512 MiB");
  }
  return footprint;
}

Result<workload::SyscallLatencies> LinuxSystem::SyscallLatency() {
  auto vm = MakeVm("hello-world", 512 * kMiB, /*bench_rootfs=*/true);
  if (!vm.ok()) {
    return vm.status();
  }
  if (Status s = (*vm)->Boot(); !s.ok()) {
    return s;
  }
  (*vm)->kernel().Run();
  return workload::MeasureSyscallLatency(**vm);
}

Result<double> LinuxSystem::ServerThroughput(const std::string& app, bool redis_set,
                                             bool per_session) {
  auto vm = MakeVm(app, 512 * kMiB);
  if (!vm.ok()) {
    return vm.status();
  }
  const apps::AppManifest* manifest = apps::FindManifest(app);
  if (!workload::BootAppServer(**vm, manifest->ready_line)) {
    return Status(Err::kIo, app + " failed to start on " + spec_.name);
  }
  workload::ThroughputResult result;
  if (app == "redis") {
    result = workload::RunRedisBenchmark(**vm, redis_set);
  } else {
    result = workload::RunApacheBench(**vm, /*total_requests=*/2000,
                                      /*requests_per_conn=*/per_session ? 100 : 1);
  }
  if (result.completed == 0) {
    return Status(Err::kIo, "no requests completed");
  }
  return result.requests_per_sec;
}

Result<double> LinuxSystem::RedisThroughput(bool set_workload) {
  return ServerThroughput("redis", set_workload, false);
}

Result<double> LinuxSystem::NginxThroughput(bool per_session) {
  return ServerThroughput("nginx", false, per_session);
}

}  // namespace lupine::unikernels
