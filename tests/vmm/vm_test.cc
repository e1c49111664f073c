#include "src/vmm/vm.h"

#include <gtest/gtest.h>

#include "src/apps/builtin.h"
#include "src/apps/rootfs_builder.h"
#include "src/kbuild/builder.h"
#include "src/kconfig/presets.h"

namespace lupine::vmm {
namespace {

VmSpec HelloSpec(Bytes memory = 512 * kMiB) {
  apps::RegisterBuiltinApps();
  kbuild::ImageBuilder builder;
  auto image = builder.Build(kconfig::LupineGeneral());
  EXPECT_TRUE(image.ok());
  VmSpec spec;
  spec.monitor = Firecracker();
  spec.image = std::make_shared<const kbuild::KernelImage>(image.take());
  spec.rootfs = std::make_shared<const guestos::RootfsImage>(
      apps::BuildAppRootfsForApp("hello-world", /*kml_libc=*/false));
  spec.memory = memory;
  return spec;
}

TEST(VmTest, BootProducesPhaseReport) {
  Vm vm(HelloSpec());
  ASSERT_TRUE(vm.Boot().ok());
  const BootReport& report = vm.boot_report();
  EXPECT_GT(report.total, 0);
  EXPECT_EQ(report.total, report.to_init);
  ASSERT_FALSE(report.phases.empty());
  EXPECT_EQ(report.phases.front().name, "monitor:firecracker");
  Nanos sum = 0;
  for (const auto& phase : report.phases) {
    sum += phase.duration;
  }
  EXPECT_EQ(sum, report.total);
}

TEST(VmTest, HelloRunsToCompletion) {
  Vm vm(HelloSpec());
  auto result = vm.BootAndRun();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString() << "\n" << result.console;
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.console.find("Hello from Docker!"), std::string::npos);
}

TEST(VmTest, RunWithoutBootFails) {
  Vm vm(HelloSpec());
  EXPECT_FALSE(vm.RunToCompletion().ok());
}

TEST(VmTest, InsufficientMemoryFailsBoot) {
  Vm vm(HelloSpec(2 * kMiB));
  EXPECT_FALSE(vm.Boot().ok());
}

TEST(MinMemoryProbeTest, FindsThreshold) {
  Bytes result = MinMemoryProbe(kMiB, 64 * kMiB,
                                [](Bytes memory) { return memory >= 21 * kMiB; });
  EXPECT_EQ(result, 21 * kMiB);
}

TEST(MinMemoryProbeTest, ZeroWhenCeilingFails) {
  EXPECT_EQ(MinMemoryProbe(kMiB, 16 * kMiB, [](Bytes) { return false; }), 0u);
}

TEST(MinMemoryProbeTest, HelloFootprintIsDeterministic) {
  auto try_run = [&](Bytes memory) {
    Vm vm(HelloSpec(memory));
    auto result = vm.BootAndRun();
    return result.status.ok() && result.exit_code == 0;
  };
  Bytes a = MinMemoryProbe(kMiB, 256 * kMiB, try_run);
  Bytes b = MinMemoryProbe(kMiB, 256 * kMiB, try_run);
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 4 * kMiB);
  EXPECT_LT(a, 64 * kMiB);
}

}  // namespace
}  // namespace lupine::vmm
