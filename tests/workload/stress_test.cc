#include "src/workload/stress.h"

#include <gtest/gtest.h>

#include "src/apps/builtin.h"
#include "src/apps/rootfs_builder.h"
#include "src/kbuild/builder.h"
#include "src/kconfig/option_names.h"
#include "src/kconfig/presets.h"
#include "src/kconfig/resolver.h"
#include "src/unikernels/linux_system.h"

namespace lupine::workload {
namespace {

std::unique_ptr<vmm::Vm> VmWithSmp(bool smp) {
  kconfig::Config config = kconfig::LupineGeneral();
  if (smp) {
    kconfig::Resolver resolver(kconfig::OptionDb::Linux40());
    EXPECT_TRUE(resolver.Enable(config, kconfig::names::kSmp).ok());
  }
  kbuild::ImageBuilder builder;
  auto image = builder.Build(config);
  EXPECT_TRUE(image.ok());
  apps::RegisterBuiltinApps();
  vmm::VmSpec spec;
  spec.monitor = vmm::Firecracker();
  spec.image = std::make_shared<const kbuild::KernelImage>(image.take());
  spec.rootfs = std::make_shared<const guestos::RootfsImage>(apps::BuildBenchRootfs(false));
  spec.memory = 512 * kMiB;
  auto vm = std::make_unique<vmm::Vm>(std::move(spec));
  EXPECT_TRUE(vm->Boot().ok());
  vm->kernel().Run();
  return vm;
}

TEST(StressTest, FutexStressCompletes) {
  auto vm = VmWithSmp(false);
  Nanos elapsed = RunFutexStress(*vm, /*workers=*/4, /*rounds=*/50);
  EXPECT_GT(elapsed, 0);
  EXPECT_FALSE(vm->kernel().console().Contains("unexpected error code"));
}

TEST(StressTest, SemStressCompletes) {
  auto vm = VmWithSmp(false);
  EXPECT_GT(RunSemStress(*vm, 4, 50), 0);
}

TEST(StressTest, MakeJobWritesObjects) {
  auto vm = VmWithSmp(false);
  EXPECT_GT(RunMakeJob(*vm, /*jobs=*/4, /*units=*/20), 0);
  EXPECT_TRUE(vm->kernel().vfs().Exists("/tmp/obj_0.o"));
  EXPECT_TRUE(vm->kernel().vfs().Exists("/tmp/obj_19.o"));
}

TEST(StressTest, SmpOverheadWithinPaperBounds) {
  // Section 5: futex stress <=8%, sem_posix <=3%, make <=3% on one VCPU.
  auto uni = VmWithSmp(false);
  auto smp = VmWithSmp(true);
  Nanos futex_uni = RunFutexStress(*uni, 8, 60);
  Nanos futex_smp = RunFutexStress(*smp, 8, 60);
  double overhead = (static_cast<double>(futex_smp) - static_cast<double>(futex_uni)) /
                    static_cast<double>(futex_uni);
  EXPECT_GE(overhead, 0.0);
  EXPECT_LE(overhead, 0.10);
}

TEST(StressTest, SemOverheadSmallerThanFutex) {
  auto uni = VmWithSmp(false);
  auto smp = VmWithSmp(true);
  Nanos sem_uni = RunSemStress(*uni, 8, 60);
  Nanos sem_smp = RunSemStress(*smp, 8, 60);
  double overhead = (static_cast<double>(sem_smp) - static_cast<double>(sem_uni)) /
                    static_cast<double>(sem_uni);
  EXPECT_LE(overhead, 0.06);
}

}  // namespace
}  // namespace lupine::workload
