// lupinectl: command-line front end to the Lupine toolchain.
//
//   lupinectl build <app> [--nokml] [--tiny] [--general]   build a unikernel
//   lupinectl run <app> [--mem <MiB>]                      build + boot + run
//   lupinectl search <app>                                 derive minimal config
//   lupinectl trace <app>                                  trace-based manifest
//   lupinectl lmbench <variant>                            syscall microbench
//   lupinectl apps                                         list known apps
#include <charconv>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "src/core/config_search.h"
#include "src/core/lupine.h"
#include "src/core/manifest_gen.h"
#include "src/unikernels/linux_system.h"
#include "src/workload/app_bench.h"
#include "src/workload/lmbench.h"

using namespace lupine;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: lupinectl <command> [args]\n"
               "  build <app> [--nokml] [--tiny] [--general]\n"
               "  run <app> [--mem <MiB>]\n"
               "  search <app>\n"
               "  trace <app>\n"
               "  lmbench <microvm|lupine|lupine-nokml|lupine-general>\n"
               "  apps\n");
  return 2;
}

bool HasFlag(const std::vector<std::string>& args, const char* flag) {
  for (const auto& a : args) {
    if (a == flag) {
      return true;
    }
  }
  return false;
}

int CmdBuild(const std::string& app, const std::vector<std::string>& args) {
  core::BuildOptions options;
  options.kml = !HasFlag(args, "--nokml");
  options.tiny = HasFlag(args, "--tiny");
  options.general_config = HasFlag(args, "--general");
  core::LupineBuilder builder;
  auto unikernel = builder.BuildForApp(app, options);
  if (!unikernel.ok()) {
    std::fprintf(stderr, "build failed: %s\n", unikernel.status().ToString().c_str());
    return 1;
  }
  std::printf("kernel:    %s\n", unikernel->config.name().c_str());
  std::printf("options:   %zu\n", unikernel->config.EnabledCount());
  std::printf("image:     %s\n", FormatSize(unikernel->kernel.size).c_str());
  std::printf("rootfs:    %s\n", FormatSize(unikernel->rootfs.size()).c_str());
  std::printf("\n--- init script ---\n%s", unikernel->init_script.c_str());
  return 0;
}

// The byte count of a --mem value: a whole, non-zero number of MiB whose
// byte count fits in Bytes. nullopt for anything else.
std::optional<Bytes> ParseMemMiB(const std::string& text) {
  Bytes mib = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, mib);
  if (error != std::errc() || stop != end || mib == 0 ||
      mib > std::numeric_limits<Bytes>::max() / kMiB) {
    return std::nullopt;
  }
  return mib * kMiB;
}

int CmdRun(const std::string& app, const std::vector<std::string>& args) {
  Bytes memory = 512 * kMiB;
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--mem") {
      const std::optional<Bytes> parsed =
          i + 1 < args.size() ? ParseMemMiB(args[++i]) : std::nullopt;
      if (!parsed) {
        std::fprintf(stderr, "lupinectl: --mem takes a positive number of MiB\n");
        return Usage();
      }
      memory = *parsed;
    }
  }
  core::LupineBuilder builder;
  auto unikernel = builder.BuildForApp(app);
  if (!unikernel.ok()) {
    std::fprintf(stderr, "build failed: %s\n", unikernel.status().ToString().c_str());
    return 1;
  }
  auto vm = unikernel->Launch(memory);
  auto result = vm->BootAndRun();
  std::printf("boot:      %s\n", FormatDuration(vm->boot_report().to_init).c_str());
  std::printf("memory:    %s peak\n", FormatSize(vm->kernel().mm().peak()).c_str());
  if (result.status.ok()) {
    std::printf("exit code: %d\n", result.exit_code);
  } else {
    std::printf("state:     %s\n", result.status.ToString().c_str());
  }
  std::printf("\n--- console ---\n%s", result.console.c_str());
  // A failed boot is the tool's failure; otherwise the guest's exit code.
  return result.status.ok() ? result.exit_code : 1;
}

int CmdSearch(const std::string& app) {
  auto result = core::DeriveMinimalConfig(app);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  if (!result->success) {
    std::fprintf(stderr, "search failed after %d boots:\n%s\n", result->boots,
                 result->failure.c_str());
    return 1;
  }
  std::printf("%d boots; %zu options atop lupine-base:\n", result->boots,
              result->added_options.size());
  for (const auto& option : result->added_options) {
    std::printf("CONFIG_%s=y\n", option.c_str());
  }
  return 0;
}

int CmdTrace(const std::string& app) {
  auto result = core::GenerateManifestFromTrace(app);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("# %zu syscalls observed (%zu distinct)\n", result->syscall_events,
              result->distinct_syscalls);
  for (const auto& option : result->options) {
    std::printf("CONFIG_%s=y\n", option.c_str());
  }
  auto coverage = core::CheckLupineGeneralCoverage(result->options);
  std::printf("# lupine-general: %s\n", coverage.covered ? "covers this app" : "INSUFFICIENT");
  return 0;
}

int CmdLmbench(const std::string& variant) {
  unikernels::LinuxVariantSpec spec;
  if (variant == "microvm") {
    spec = unikernels::MicrovmSpec();
  } else if (variant == "lupine") {
    spec = unikernels::LupineSpec();
  } else if (variant == "lupine-nokml") {
    spec = unikernels::LupineNokmlSpec();
  } else if (variant == "lupine-general") {
    spec = unikernels::LupineGeneralSpec();
  } else {
    std::fprintf(stderr, "unknown variant %s\n", variant.c_str());
    return 2;
  }
  unikernels::LinuxSystem system(spec);
  auto vm = system.MakeVm("hello-world", 512 * kMiB, /*bench_rootfs=*/true);
  if (!vm.ok() || !(*vm)->Boot().ok()) {
    std::fprintf(stderr, "boot failed\n");
    return 1;
  }
  (*vm)->kernel().Run();
  auto lat = workload::MeasureSyscallLatency(**vm);
  std::printf("%s: null %.3f us, read %.3f us, write %.3f us\n", spec.name.c_str(),
              lat.null_us, lat.read_us, lat.write_us);
  return 0;
}

int CmdApps() {
  std::printf("%-16s %-8s %-22s %s\n", "name", "options", "ready line", "description");
  for (const auto& m : apps::Top20Manifests()) {
    std::printf("%-16s %-8zu %-22.22s %s\n", m.name.c_str(), m.required_options.size(),
                m.ready_line.c_str(), m.description.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);

  if (command == "apps") {
    return CmdApps();
  }
  if (command == "lmbench") {
    return args.empty() ? Usage() : CmdLmbench(args[0]);
  }
  if (args.empty()) {
    return Usage();
  }
  const std::string& app = args[0];
  if (command == "build") {
    return CmdBuild(app, args);
  }
  if (command == "run") {
    return CmdRun(app, args);
  }
  if (command == "search") {
    return CmdSearch(app);
  }
  if (command == "trace") {
    return CmdTrace(app);
  }
  return Usage();
}
