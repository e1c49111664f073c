// Kernel panic semantics: the oops dump, CONFIG_PANIC_TIMEOUT's
// halt-vs-reboot posture, and the boot-time fault injection sites.
#include <gtest/gtest.h>

#include "src/apps/builtin.h"
#include "src/apps/rootfs_builder.h"
#include "src/kbuild/builder.h"
#include "src/kconfig/option_names.h"
#include "src/kconfig/presets.h"
#include "src/util/fault.h"
#include "src/vmm/vm.h"

namespace lupine::vmm {
namespace {

// hello-world on lupine-general with an explicit PANIC_TIMEOUT value.
VmSpec HelloSpec(const std::string& panic_timeout, FaultInjector* faults,
                 bool kml = false) {
  apps::RegisterBuiltinApps();
  kconfig::Config config = kconfig::LupineGeneral();
  if (kml) {
    EXPECT_TRUE(kconfig::ApplyKml(config).ok());
  }
  config.SetValue(kconfig::names::kPanicTimeout, panic_timeout);
  kbuild::ImageBuilder builder;
  auto image = builder.Build(config);
  EXPECT_TRUE(image.ok());
  VmSpec spec;
  spec.monitor = Firecracker();
  spec.image = std::make_shared<const kbuild::KernelImage>(image.take());
  spec.rootfs = std::make_shared<const guestos::RootfsImage>(
      apps::BuildAppRootfsForApp("hello-world", /*kml_libc=*/kml));
  spec.memory = 512 * kMiB;
  spec.faults = faults;
  return spec;
}

TEST(PanicTest, AppFaultKillsInitAndPanicsWithHalt) {
  FaultInjector faults(FaultPlan{}.FireOnce(FaultSite::kAppFault, 2));
  Vm vm(HelloSpec("0", &faults));
  auto result = vm.BootAndRun();
  EXPECT_FALSE(result.status.ok());
  EXPECT_TRUE(vm.crashed());
  EXPECT_FALSE(vm.kernel().reboot_on_panic());
  // Without KML the wild access is a ring-3 segfault — but in pid 1, which
  // takes the kernel down just the same.
  EXPECT_TRUE(vm.kernel().console().Contains("segfault at 8"));
  EXPECT_TRUE(vm.kernel().console().Contains(
      "Kernel panic - not syncing: Attempted to kill init!"));
  // PANIC_TIMEOUT=0: the stock halt posture, no reboot line.
  EXPECT_TRUE(vm.kernel().console().Contains("---[ end Kernel panic"));
  EXPECT_FALSE(vm.kernel().console().Contains("Rebooting"));
}

TEST(PanicTest, KmlAppFaultIsARing0Oops) {
  FaultInjector faults(FaultPlan{}.FireOnce(FaultSite::kAppFault, 2));
  Vm vm(HelloSpec("0", &faults, /*kml=*/true));
  auto result = vm.BootAndRun();
  EXPECT_FALSE(result.status.ok());
  EXPECT_TRUE(vm.crashed());
  // Under KML the application *is* ring 0: its fault is a kernel BUG.
  EXPECT_TRUE(vm.kernel().console().Contains(
      "BUG: unable to handle kernel NULL pointer dereference"));
  EXPECT_EQ(vm.kernel().panic_reason(), "Fatal exception in ring 0");
}

TEST(PanicTest, NegativeTimeoutRebootsImmediately) {
  FaultInjector faults(FaultPlan{}.FireOnce(FaultSite::kAppFault, 2));
  Vm vm(HelloSpec("-1", &faults));
  (void)vm.BootAndRun();
  EXPECT_TRUE(vm.crashed());
  EXPECT_TRUE(vm.kernel().reboot_on_panic());
  EXPECT_TRUE(vm.kernel().console().Contains("Rebooting immediately.."));
}

TEST(PanicTest, PositiveTimeoutWaitsInVirtualTimeThenReboots) {
  FaultInjector halt_faults(FaultPlan{}.FireOnce(FaultSite::kAppFault, 2));
  Vm halted(HelloSpec("0", &halt_faults));
  (void)halted.BootAndRun();

  FaultInjector wait_faults(FaultPlan{}.FireOnce(FaultSite::kAppFault, 2));
  Vm waiting(HelloSpec("5", &wait_faults));
  (void)waiting.BootAndRun();

  EXPECT_TRUE(waiting.kernel().reboot_on_panic());
  EXPECT_TRUE(waiting.kernel().console().Contains("Rebooting in 5 seconds.."));
  // The panic loop burned exactly the configured 5 virtual seconds more than
  // the otherwise-identical halting guest.
  EXPECT_EQ(waiting.kernel().clock().now() - halted.kernel().clock().now(), Seconds(5));
}

TEST(PanicTest, PanicIsRecordedInTheTraceLog) {
  FaultInjector faults(FaultPlan{}.FireOnce(FaultSite::kAppFault, 2));
  Vm vm(HelloSpec("-1", &faults));
  (void)vm.BootAndRun();
  const auto& panics = vm.kernel().trace().panics();
  ASSERT_EQ(panics.size(), 1u);
  EXPECT_GT(panics[0].at, 0);
  EXPECT_EQ(panics[0].reason, "Attempted to kill init! exitcode=0x0000000b");
}

TEST(PanicTest, RunToCompletionReportsThePanicAsFault) {
  FaultInjector faults(FaultPlan{}.FireOnce(FaultSite::kAppFault, 2));
  Vm vm(HelloSpec("-1", &faults));
  auto result = vm.BootAndRun();
  EXPECT_EQ(result.status.err(), Err::kFault);
  EXPECT_NE(result.status.message().find("kernel panic:"), std::string::npos);
}

TEST(BootFaultTest, DecompressionFailureAbortsBoot) {
  FaultInjector faults(FaultPlan{}.FireOnce(FaultSite::kBootDecompress, 1));
  Vm vm(HelloSpec("0", &faults));
  Status s = vm.Boot();
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(vm.kernel().console().Contains("crc error"));
  EXPECT_TRUE(vm.kernel().console().Contains("-- System halted"));
}

TEST(BootFaultTest, InitcallFailureAbortsBoot) {
  FaultInjector faults(FaultPlan{}.FireOnce(FaultSite::kBootInitcall, 1));
  Vm vm(HelloSpec("0", &faults));
  Status s = vm.Boot();
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(vm.kernel().console().Contains("initcall lupine_subsys_init"));
}

TEST(BootFaultTest, CorruptedRootfsFailsTheMount) {
  FaultInjector faults(FaultPlan{}.FireOnce(FaultSite::kRootfsCorrupt, 1));
  Vm vm(HelloSpec("0", &faults));
  Status s = vm.Boot();
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(vm.kernel().console().Contains("VFS: Cannot open root device"));
  // The same spec without the fault boots fine (the blob itself is intact).
  Vm clean(HelloSpec("0", nullptr));
  EXPECT_TRUE(clean.Boot().ok());
}

TEST(BootFaultTest, FaultFreeRunMatchesNullInjectorExactly) {
  // An armed injector whose rules never fire must not perturb the virtual
  // clock or console relative to the null injector (zero-cost guarantee).
  FaultInjector dormant(FaultPlan{}.FireOnce(FaultSite::kAppFault, 1000000));
  Vm with(HelloSpec("0", &dormant));
  Vm without(HelloSpec("0", nullptr));
  auto a = with.BootAndRun();
  auto b = without.BootAndRun();
  EXPECT_EQ(a.exit_code, b.exit_code);
  EXPECT_EQ(a.console, b.console);
  EXPECT_EQ(with.kernel().clock().now(), without.kernel().clock().now());
}

}  // namespace
}  // namespace lupine::vmm
