// Ablation (Section 4.6): the paper attributes "much of Lupine's 20%
// application performance improvement" to disabling recent security
// enhancements (retpoline-style mitigations). Re-enable MITIGATIONS on a
// lupine kernel and watch the win evaporate.
#include "src/apps/builtin.h"
#include "src/apps/manifest.h"
#include "src/apps/rootfs_builder.h"
#include "src/kbuild/builder.h"
#include "src/kconfig/option_names.h"
#include "src/kconfig/presets.h"
#include "src/kconfig/resolver.h"
#include "src/unikernels/linux_system.h"
#include "src/util/table.h"
#include "src/workload/app_bench.h"

using namespace lupine;

namespace {

Result<double> RedisRpsForConfig(kconfig::Config config) {
  kbuild::ImageBuilder builder;
  auto image = builder.Build(config);
  if (!image.ok()) {
    return image.status();
  }
  apps::RegisterBuiltinApps();
  vmm::VmSpec spec;
  spec.monitor = vmm::Firecracker();
  spec.image = std::make_shared<const kbuild::KernelImage>(image.take());
  spec.rootfs = std::make_shared<const guestos::RootfsImage>(
      apps::BuildAppRootfsForApp("redis", config.IsEnabled(kconfig::names::kKml)));
  vmm::Vm vm(std::move(spec));
  if (!workload::BootAppServer(vm, "Ready to accept connections")) {
    return Status(Err::kIo, "redis failed to start");
  }
  auto result = workload::RunRedisBenchmark(vm, /*set_workload=*/false);
  return result.requests_per_sec;
}

}  // namespace

int main() {
  PrintBanner("Ablation: re-enabling MITIGATIONS on lupine (redis-get)");

  unikernels::LinuxSystem microvm(unikernels::MicrovmSpec());
  auto baseline = microvm.RedisThroughput(false);
  if (!baseline.ok()) {
    return 1;
  }

  auto lupine_config = kconfig::LupineForApp("redis");
  if (!lupine_config.ok()) {
    return 1;
  }
  auto lupine_rps = RedisRpsForConfig(lupine_config.value());

  kconfig::Config hardened = lupine_config.value();
  kconfig::Resolver resolver(kconfig::OptionDb::Linux40());
  (void)resolver.Enable(hardened, kconfig::names::kMitigations);
  hardened.set_name("lupine-redis+mitigations");
  auto hardened_rps = RedisRpsForConfig(hardened);

  if (!lupine_rps.ok() || !hardened_rps.ok()) {
    return 1;
  }

  Table table({"kernel", "redis-get req/s", "vs microVM"});
  table.AddRow("microvm", baseline.value(), 1.0);
  table.AddRow("lupine-nokml", lupine_rps.value(), lupine_rps.value() / baseline.value());
  table.AddRow("lupine-nokml + MITIGATIONS", hardened_rps.value(),
               hardened_rps.value() / baseline.value());
  table.Print();

  double with = lupine_rps.value() / baseline.value();
  double without = hardened_rps.value() / baseline.value();
  std::printf("\nOf lupine's %.0f%% win over microVM, %.0f points come from dropping\n"
              "the mitigations (paper: \"we attribute much of Lupine's 20%% ...\n"
              "improvement ... to disabling these enhancements\").\n",
              (with - 1) * 100, (with - without) * 100);
  return 0;
}
