// End-to-end: every Linux variant boots hello-world from its rootfs.
#include <gtest/gtest.h>

#include "src/apps/manifest.h"
#include "src/apps/rootfs_builder.h"
#include "src/kbuild/builder.h"
#include "src/unikernels/linux_system.h"

namespace lupine {
namespace {

using unikernels::LinuxSystem;
using unikernels::LinuxVariantSpec;

class BootEveryVariant : public ::testing::TestWithParam<int> {};

LinuxVariantSpec VariantByIndex(int i) {
  switch (i) {
    case 0: return unikernels::MicrovmSpec();
    case 1: return unikernels::LupineSpec();
    case 2: return unikernels::LupineNokmlSpec();
    case 3: return unikernels::LupineTinySpec();
    case 4: return unikernels::LupineNokmlTinySpec();
    case 5: return unikernels::LupineGeneralSpec();
    default: return unikernels::LupineGeneralNokmlSpec();
  }
}

TEST_P(BootEveryVariant, HelloWorldBootsAndExits) {
  LinuxSystem system(VariantByIndex(GetParam()));
  auto vm = system.MakeVm("hello-world", 512 * kMiB);
  ASSERT_TRUE(vm.ok()) << vm.status().ToString();
  auto result = (*vm)->BootAndRun();
  ASSERT_TRUE(result.status.ok()) << system.name() << ": " << result.status.ToString() << "\n"
                                  << result.console;
  EXPECT_EQ(result.exit_code, 0) << result.console;
  EXPECT_NE(result.console.find("Hello from Docker!"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, BootEveryVariant, ::testing::Range(0, 7));

TEST(BootIntegrationTest, BootReportPhasesExplainTotal) {
  LinuxSystem system(unikernels::LupineNokmlSpec());
  auto vm = system.MakeVm("hello-world", 512 * kMiB);
  ASSERT_TRUE(vm.ok());
  ASSERT_TRUE((*vm)->Boot().ok());
  Nanos sum = 0;
  const telemetry::SpanTrace spans = (*vm)->boot_spans();
  for (const auto& span : spans.spans()) {
    EXPECT_GE(span.duration(), 0) << span.name;
    sum += span.duration();
  }
  EXPECT_EQ(sum, (*vm)->boot_report().to_init);
}

TEST(BootIntegrationTest, ServersReachReadiness) {
  for (const std::string app : {"redis", "nginx", "postgres"}) {
    LinuxSystem system(unikernels::LupineSpec());
    auto vm = system.MakeVm(app, 512 * kMiB);
    ASSERT_TRUE(vm.ok()) << app;
    ASSERT_TRUE((*vm)->Boot().ok()) << app;
    (*vm)->kernel().Run();
    const auto* manifest = apps::FindManifest(app);
    EXPECT_TRUE((*vm)->kernel().console().Contains(manifest->ready_line))
        << app << "\n"
        << (*vm)->kernel().console().contents();
  }
}

TEST(BootIntegrationTest, AppOnWrongKernelFailsWithDiagnostic) {
  // redis booted on the hello-world (0-option) kernel: first probe fails.
  unikernels::LinuxSystem system(unikernels::LupineSpec());
  auto config = unikernels::BuildVariantConfig(unikernels::LupineSpec(), "hello-world");
  ASSERT_TRUE(config.ok());
  kbuild::ImageBuilder builder;
  auto image = builder.Build(config.value());
  ASSERT_TRUE(image.ok());
  vmm::VmSpec spec;
  spec.monitor = vmm::Firecracker();
  spec.image = std::make_shared<const kbuild::KernelImage>(image.take());
  spec.rootfs = std::make_shared<const guestos::RootfsImage>(
      apps::BuildAppRootfsForApp("redis", /*kml_libc=*/true));
  vmm::Vm vm(std::move(spec));
  auto result = vm.BootAndRun();
  EXPECT_NE(result.console.find("futex facility"), std::string::npos) << result.console;
}

}  // namespace
}  // namespace lupine
