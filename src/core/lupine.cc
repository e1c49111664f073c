#include "src/core/lupine.h"

#include "src/apps/builtin.h"
#include "src/apps/init_script.h"
#include "src/apps/rootfs_builder.h"
#include "src/kbuild/builder.h"
#include "src/kconfig/option_names.h"
#include "src/kconfig/presets.h"
#include "src/kconfig/resolver.h"

namespace lupine::core {

std::unique_ptr<vmm::Vm> Unikernel::Launch(Bytes memory, FaultInjector* faults) const {
  vmm::VmSpec spec;
  spec.monitor = vmm::Firecracker();
  spec.image = std::make_shared<const kbuild::KernelImage>(kernel);
  spec.rootfs = std::make_shared<const guestos::RootfsImage>(rootfs);
  spec.memory = memory;
  spec.faults = faults;
  return std::make_unique<vmm::Vm>(std::move(spec));
}

LupineBuilder::LupineBuilder() { apps::RegisterBuiltinApps(); }

Result<kconfig::Config> LupineBuilder::SpecializeConfig(const apps::AppManifest& manifest,
                                                        const BuildOptions& options,
                                                        telemetry::SpanTrace* spans) const {
  // Host-wall timing: `resolve` covers the dependency-resolution loops,
  // `specialize` everything else (preset load, -tiny, PANIC_TIMEOUT, KML).
  telemetry::HostStopwatch total;
  Nanos resolve_ns = 0;

  // 1. Specialize the kernel configuration (Section 3.1).
  kconfig::Config config;
  if (options.general_config) {
    config = kconfig::LupineGeneral();
  } else {
    config = kconfig::LupineBase();
    config.set_name("lupine-" + manifest.name);
    kconfig::Resolver resolver(kconfig::OptionDb::Linux40());
    telemetry::HostStopwatch resolve;
    for (const auto& option : manifest.required_options) {
      auto enabled = resolver.Enable(config, option);
      if (!enabled.ok()) {
        return Status(enabled.status().err(),
                      "manifest option " + option + ": " + enabled.status().message());
      }
    }
    resolve_ns += resolve.ElapsedNanos();
  }
  kconfig::Resolver resolver(kconfig::OptionDb::Linux40());
  {
    telemetry::HostStopwatch resolve;
    for (const auto& option : options.extra_options) {
      auto enabled = resolver.Enable(config, option);
      if (!enabled.ok()) {
        return Status(enabled.status().err(),
                      "extra option " + option + ": " + enabled.status().message());
      }
    }
    resolve_ns += resolve.ElapsedNanos();
  }
  if (options.tiny) {
    kconfig::ApplyTiny(config);
  }
  config.SetValue(kconfig::names::kPanicTimeout, std::to_string(options.panic_timeout));
  // 2. Eliminate system call overhead via KML (Section 3.2).
  if (options.kml) {
    if (Status s = kconfig::ApplyKml(config); !s.ok()) {
      return s;
    }
  }
  if (spans != nullptr) {
    const Nanos elapsed = total.ElapsedNanos();
    spans->AddPhase("specialize", elapsed > resolve_ns ? elapsed - resolve_ns : 0);
    spans->AddPhase("resolve", resolve_ns);
  }
  return config;
}

Result<Unikernel> LupineBuilder::Build(const apps::AppManifest& manifest,
                                       const apps::ContainerImage& image,
                                       const BuildOptions& options) const {
  // 1-2. Specialize the configuration (options resolved, -tiny/KML applied).
  auto specialized = SpecializeConfig(manifest, options);
  if (!specialized.ok()) {
    return specialized.status();
  }
  kconfig::Config config = specialized.take();

  // 3. Build the kernel image.
  kbuild::ImageBuilder builder;
  auto kernel = builder.Build(config);
  if (!kernel.ok()) {
    return kernel.status();
  }

  // 4. Convert the container image into the rootfs with the startup script
  //    and (for KML) the patched libc.
  apps::RootfsOptions rootfs_options;
  rootfs_options.kml_libc = options.kml;

  Unikernel result;
  result.kernel = kernel.take();
  result.rootfs = apps::BuildAppRootfs(image, rootfs_options);
  result.init_script = apps::GenerateInitScript(image);
  result.config = std::move(config);
  return result;
}

Result<Unikernel> LupineBuilder::BuildForApp(const std::string& app,
                                             const BuildOptions& options) const {
  const apps::AppManifest* manifest = apps::FindManifest(app);
  if (manifest == nullptr) {
    return Status(Err::kNoEnt, "no manifest for application " + app);
  }
  return Build(*manifest, apps::MakeAlpineImage(*manifest), options);
}

}  // namespace lupine::core
