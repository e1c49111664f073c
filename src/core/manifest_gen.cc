#include "src/core/manifest_gen.h"

#include "src/apps/builtin.h"
#include "src/apps/manifest.h"
#include "src/apps/rootfs_builder.h"
#include "src/kbuild/builder.h"
#include "src/kconfig/option_names.h"
#include "src/kconfig/presets.h"
#include "src/vmm/vm.h"

namespace lupine::core {
namespace {

namespace n = kconfig::names;

const char* FeatureOption(guestos::TraceFeature feature) {
  switch (feature) {
    case guestos::TraceFeature::kAfUnix: return n::kUnix;
    case guestos::TraceFeature::kAfInet6: return n::kIpv6;
    case guestos::TraceFeature::kAfPacket: return n::kPacket;
    case guestos::TraceFeature::kMountTmpfs: return n::kTmpfs;
    case guestos::TraceFeature::kMountHugetlbfs: return n::kHugetlbfs;
    case guestos::TraceFeature::kProcSysctl: return n::kProcSysctl;
  }
  return nullptr;
}

}  // namespace

std::set<std::string> OptionsFromTrace(const guestos::TraceLog& trace) {
  std::set<std::string> options;
  for (const auto& event : trace.syscalls()) {
    const char* option = kbuild::GatingOption(event.nr);
    if (option != nullptr) {
      options.insert(option);
    }
  }
  for (const auto& [pid, feature] : trace.features()) {
    const char* option = FeatureOption(feature);
    if (option != nullptr) {
      options.insert(option);
    }
  }
  return options;
}

Result<GeneratedManifest> GenerateManifestFromTrace(const std::string& app) {
  apps::RegisterBuiltinApps();
  const apps::AppManifest* manifest = apps::FindManifest(app);
  if (manifest == nullptr) {
    return Status(Err::kNoEnt, "no manifest for application " + app);
  }

  // Fully-featured kernel: every feature exists, so the trace records what
  // the app actually uses rather than what fails.
  kbuild::ImageBuilder builder;
  auto image = builder.Build(kconfig::MicrovmConfig());
  if (!image.ok()) {
    return image.status();
  }
  vmm::VmSpec spec;
  spec.monitor = vmm::Firecracker();
  spec.image = std::make_shared<const kbuild::KernelImage>(image.take());
  spec.rootfs = std::make_shared<const guestos::RootfsImage>(
      apps::BuildAppRootfsForApp(app, /*kml_libc=*/false));
  spec.memory = 512 * kMiB;
  vmm::Vm vm(std::move(spec));

  vm.kernel().trace().set_enabled(true);
  if (Status s = vm.Boot(); !s.ok()) {
    return s;
  }
  auto run = vm.RunToCompletion();
  const std::string& console = vm.kernel().console().contents();
  bool ok = manifest->kind == apps::AppKind::kServer
                ? console.find(manifest->ready_line) != std::string::npos
                : run.ok() && run.value() == 0;
  if (!ok) {
    return Status(Err::kIo, app + " did not reach its success criteria during tracing");
  }

  GeneratedManifest result;
  result.syscall_events = vm.kernel().trace().syscalls().size();
  result.distinct_syscalls = vm.kernel().trace().distinct_syscall_count();
  result.options = OptionsFromTrace(vm.kernel().trace());
  return result;
}

CoverageReport CheckLupineGeneralCoverage(const std::set<std::string>& options) {
  kconfig::Config general = kconfig::LupineGeneral();
  CoverageReport report;
  for (const auto& option : options) {
    if (!general.IsEnabled(option)) {
      report.missing.push_back(option);
    }
  }
  report.covered = report.missing.empty();
  return report;
}

}  // namespace lupine::core
