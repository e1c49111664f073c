#include "src/core/config_search.h"

#include "src/apps/builtin.h"
#include "src/apps/manifest.h"
#include "src/apps/rootfs_builder.h"
#include "src/kbuild/builder.h"
#include "src/kconfig/option_names.h"
#include "src/kconfig/presets.h"
#include "src/kconfig/resolver.h"
#include "src/vmm/vm.h"
#include "src/workload/app_bench.h"

namespace lupine::core {
namespace {

namespace n = kconfig::names;

// One build+boot+run cycle. Returns the console output; success is reported
// through `ok`.
std::string TryBoot(const kconfig::Config& config, const apps::AppManifest& manifest,
                    Bytes memory, bool* ok) {
  *ok = false;
  kbuild::ImageBuilder builder;
  auto image = builder.Build(config);
  if (!image.ok()) {
    return "kernel build failed: " + image.status().ToString();
  }
  vmm::VmSpec spec;
  spec.monitor = vmm::Firecracker();
  spec.image = std::make_shared<const kbuild::KernelImage>(image.take());
  spec.rootfs = std::make_shared<const guestos::RootfsImage>(
      apps::BuildAppRootfsForApp(manifest.name, /*kml_libc=*/false));
  spec.memory = memory;
  vmm::Vm vm(std::move(spec));

  if (Status s = vm.Boot(); !s.ok()) {
    return vm.kernel().console().contents() + "\nboot failed: " + s.ToString();
  }
  auto run = vm.RunToCompletion();
  const std::string console = vm.kernel().console().contents();
  if (manifest.kind == apps::AppKind::kServer) {
    // A healthy server blocks; success criteria is the readiness line.
    *ok = console.find(manifest.ready_line) != std::string::npos;
  } else {
    *ok = run.ok() && run.value() == 0 &&
          console.find(manifest.ready_line) != std::string::npos;
  }
  return console;
}

}  // namespace

const std::vector<ErrorHint>& ConsoleErrorHints() {
  static const std::vector<ErrorHint> hints = {
      // Unambiguous diagnostics (Section 4.1's examples).
      {"futex facility returned an unexpected error code", {n::kFutex}},
      {"epoll_create1 failed", {n::kEpoll}},
      {"can't create UNIX socket", {n::kUnix}},
      {"eventfd: function not implemented", {n::kEventfd}},
      {"io_setup: function not implemented", {n::kAio}},
      {"timerfd_create: function not implemented", {n::kTimerfd}},
      {"signalfd: function not implemented", {n::kSignalfd}},
      {"inotify_init failed", {n::kInotifyUser}},
      {"fanotify_init: function not implemented", {n::kFanotify}},
      {"name_to_handle_at: function not implemented", {n::kFhandle}},
      {"bpf: function not implemented", {n::kBpfSyscall}},
      {"mq_open: function not implemented", {n::kPosixMqueue}},
      {"could not create shared memory segment", {n::kSysvipc}},
      {"unknown filesystem type 'tmpfs'", {n::kTmpfs}},
      {"unknown filesystem type 'hugetlbfs'", {n::kHugetlbfs}},
      {"can't open /proc/sys", {n::kProcSysctl}},
      {"AF_INET6", {n::kIpv6}},
      {"AF_PACKET", {n::kPacket}},
      // Less helpful messages requiring trial and error (the paper's
      // experience): a bare "function not implemented" from flock or
      // madvise, tried in likelihood order.
      {"flock: function not implemented", {n::kFileLocking}},
      {"madvise: function not implemented", {n::kAdviseSyscalls}},
      {"function not implemented", {n::kFileLocking, n::kAdviseSyscalls, n::kFutex}},
  };
  return hints;
}

Result<SearchResult> DeriveMinimalConfig(const std::string& app) {
  constexpr int kMaxBoots = 64;
  constexpr Bytes kMemory = 512 * kMiB;
  apps::RegisterBuiltinApps();
  const apps::AppManifest* manifest = apps::FindManifest(app);
  if (manifest == nullptr) {
    return Status(Err::kNoEnt, "no manifest for application " + app);
  }

  kconfig::Config config = kconfig::LupineBase();
  config.set_name("search-" + app);
  kconfig::Resolver resolver(kconfig::OptionDb::Linux40());

  SearchResult result;
  for (int boot = 0; boot < kMaxBoots; ++boot) {
    bool ok = false;
    ++result.boots;
    std::string console = TryBoot(config, *manifest, kMemory, &ok);
    if (ok) {
      result.success = true;
      return result;
    }

    // Read the console like the authors did: find a diagnostic, derive a
    // candidate option, enable it, rebuild and reboot.
    bool advanced = false;
    for (const auto& hint : ConsoleErrorHints()) {
      if (console.find(hint.needle) == std::string::npos) {
        continue;
      }
      for (const auto& candidate : hint.candidates) {
        if (config.IsEnabled(candidate)) {
          continue;  // Already tried; ambiguous hint, try the next candidate.
        }
        auto enabled = resolver.Enable(config, candidate);
        if (!enabled.ok()) {
          continue;
        }
        result.added_options.push_back(candidate);
        advanced = true;
        break;
      }
      if (advanced) {
        break;
      }
    }
    if (!advanced) {
      // No diagnostic we can act on: the app likely is not unikernel-suited.
      result.failure = console.size() > 500 ? console.substr(console.size() - 500) : console;
      return result;
    }
  }
  result.failure = "exceeded max boot attempts";
  return result;
}

}  // namespace lupine::core
