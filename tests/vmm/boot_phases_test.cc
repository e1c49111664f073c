// Boot-phase composition across configs and monitors.
#include <gtest/gtest.h>

#include "src/apps/builtin.h"
#include "src/apps/rootfs_builder.h"
#include "src/kbuild/builder.h"
#include "src/kconfig/option_names.h"
#include "src/kconfig/presets.h"
#include "src/kconfig/resolver.h"
#include "src/vmm/vm.h"

namespace lupine::vmm {
namespace {

namespace n = kconfig::names;

std::unique_ptr<Vm> BootVm(kconfig::Config config, const MonitorProfile& monitor) {
  apps::RegisterBuiltinApps();
  kbuild::ImageBuilder builder;
  auto image = builder.Build(config);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  VmSpec spec;
  spec.monitor = monitor;
  spec.image = std::make_shared<const kbuild::KernelImage>(image.take());
  spec.rootfs = std::make_shared<const guestos::RootfsImage>(
      apps::BuildAppRootfsForApp("hello-world", false));
  auto vm = std::make_unique<Vm>(std::move(spec));
  EXPECT_TRUE(vm->Boot().ok());
  return vm;
}

bool HasPhase(const Vm& vm, const std::string& name) {
  for (const auto& phase : vm.kernel().boot_trace().phases) {
    if (phase.name == name) {
      return true;
    }
  }
  return false;
}

TEST(BootPhasesTest, SmpBringupOnlyWithSmpConfig) {
  auto without = BootVm(kconfig::LupineGeneral(), Firecracker());
  EXPECT_FALSE(HasPhase(*without, "smp-bringup"));
  auto with = BootVm(kconfig::MicrovmConfig(), Firecracker());
  EXPECT_TRUE(HasPhase(*with, "smp-bringup"));
}

TEST(BootPhasesTest, PciEnumerationOnlyWithPciConfig) {
  auto without = BootVm(kconfig::LupineGeneral(), Qemu());
  EXPECT_FALSE(HasPhase(*without, "pci-enumeration"));

  kconfig::Config with_pci = kconfig::LupineGeneral();
  kconfig::Resolver resolver(kconfig::OptionDb::Linux40());
  ASSERT_TRUE(resolver.Enable(with_pci, n::kPci).ok());
  auto with = BootVm(with_pci, Qemu());
  EXPECT_TRUE(HasPhase(*with, "pci-enumeration"));
  EXPECT_GT(with->boot_report().to_init, without->boot_report().to_init);
}

TEST(BootPhasesTest, MonitorPhaseNamedAfterMonitor) {
  auto fc = BootVm(kconfig::LupineGeneral(), Firecracker());
  EXPECT_EQ(fc->boot_spans().spans().front().name, "monitor:firecracker");
  auto qemu = BootVm(kconfig::LupineGeneral(), Qemu());
  EXPECT_EQ(qemu->boot_spans().spans().front().name, "monitor:qemu");
  EXPECT_GT(qemu->boot_report().monitor, fc->boot_report().monitor);
}

TEST(BootPhasesTest, InitcallsScaleWithConfigSize) {
  auto small = BootVm(kconfig::LupineBase(), Firecracker());
  auto large = BootVm(kconfig::MicrovmConfig(), Firecracker());
  Nanos small_initcalls = 0;
  Nanos large_initcalls = 0;
  for (const auto& phase : small->kernel().boot_trace().phases) {
    if (phase.name == "initcalls") {
      small_initcalls = phase.duration;
    }
  }
  for (const auto& phase : large->kernel().boot_trace().phases) {
    if (phase.name == "initcalls") {
      large_initcalls = phase.duration;
    }
  }
  // 833 options vs 283: microVM pays several times more initcall work.
  EXPECT_GT(large_initcalls, 3 * small_initcalls);
}

TEST(BootPhasesTest, DecompressScalesWithImageSize) {
  auto small = BootVm(kconfig::LupineBase(), Firecracker());
  auto large = BootVm(kconfig::MicrovmConfig(), Firecracker());
  auto phase_of = [](const Vm& vm) {
    for (const auto& phase : vm.kernel().boot_trace().phases) {
      if (phase.name == "decompress") {
        return phase.duration;
      }
    }
    return Nanos{0};
  };
  EXPECT_GT(phase_of(*large), 2 * phase_of(*small));
}

}  // namespace
}  // namespace lupine::vmm
