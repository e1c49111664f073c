#include "src/guestos/kernel.h"

#include <gtest/gtest.h>

#include "src/kconfig/option_names.h"
#include "tests/guestos/guest_fixture.h"

namespace lupine::guestos {
namespace {

using testing::GuestFixture;

TEST(KernelTest, BootsAndMountsRootfs) {
  GuestFixture guest;
  EXPECT_TRUE(guest.kernel->vfs().Exists("/sbin/init"));
  EXPECT_TRUE(guest.kernel->vfs().Exists("/dev/null"));
  EXPECT_TRUE(guest.kernel->vfs().Exists("/dev/zero"));
  EXPECT_GT(guest.kernel->boot_trace().Total(), 0);
}

TEST(KernelTest, BootChargesKernelMemory) {
  GuestFixture guest;
  EXPECT_GT(guest.kernel->mm().used(), 5 * kMiB);
  EXPECT_FALSE(guest.kernel->oom());
}

TEST(KernelTest, BootPhasesIncludeInitcalls) {
  GuestFixture guest;
  bool has_initcalls = false;
  bool has_decompress = false;
  for (const auto& phase : guest.kernel->boot_trace().phases) {
    has_initcalls |= phase.name == "initcalls";
    has_decompress |= phase.name == "decompress";
  }
  EXPECT_TRUE(has_initcalls);
  EXPECT_TRUE(has_decompress);
}

TEST(KernelTest, ParavirtSpeedsBoot) {
  kconfig::Config with_pv = kconfig::LupineGeneral();
  kconfig::Config without_pv = kconfig::LupineGeneral();
  without_pv.Disable(kconfig::names::kParavirt);

  GuestFixture a(with_pv);
  GuestFixture b(without_pv);
  // Section 4.3: without CONFIG_PARAVIRT boot jumps from ~23ms to ~71ms.
  EXPECT_GT(b.kernel->boot_trace().Total(),
            a.kernel->boot_trace().Total() + Millis(40));
}

TEST(KernelTest, StartInitRunsTheStartupScript) {
  GuestFixture guest;
  auto init = guest.kernel->StartInit("/sbin/init");
  ASSERT_TRUE(init.ok()) << init.status().ToString();
  guest.kernel->Run();
  // The bench rootfs init execs hello-world.
  EXPECT_TRUE(guest.kernel->console().Contains("Hello from Docker!"));
  EXPECT_TRUE(init.value()->exited);
  EXPECT_EQ(init.value()->exit_code, 0);
}

TEST(KernelTest, MissingInitPanics) {
  GuestFixture guest;
  (void)guest.kernel->vfs().Unlink("/sbin/init");
  auto init = guest.kernel->StartInit("/sbin/init");
  ASSERT_TRUE(init.ok());
  guest.kernel->Run();
  EXPECT_TRUE(guest.kernel->console().Contains("Kernel panic"));
}

TEST(KernelTest, ProcessLifecycle) {
  GuestFixture guest;
  auto aspace = std::make_shared<AddressSpace>(&guest.kernel->mm());
  Process* p = guest.kernel->CreateProcess(0, aspace, "proc");
  EXPECT_EQ(guest.kernel->FindProcess(p->pid()), p);
  guest.kernel->ExitProcess(p, 3);
  EXPECT_TRUE(p->exited);
  EXPECT_EQ(p->exit_code, 3);
}

TEST(KernelTest, PageCacheChargedOnce) {
  GuestFixture guest;
  auto inode = guest.kernel->vfs().Resolve("/etc/hostname");
  ASSERT_TRUE(inode.ok());
  Bytes before = guest.kernel->mm().used();
  ASSERT_TRUE(guest.kernel->ChargePageCache(*inode.value(), 10 * kPageSize).ok());
  EXPECT_EQ(guest.kernel->mm().used(), before + 10 * kPageSize);
  ASSERT_TRUE(guest.kernel->ChargePageCache(*inode.value(), 10 * kPageSize).ok());
  EXPECT_EQ(guest.kernel->mm().used(), before + 10 * kPageSize);  // No double charge.
}

TEST(KernelTest, TinyKernelBootsTooButNoFasterThanNormal) {
  kconfig::Config normal = kconfig::LupineGeneral();
  kconfig::Config tiny = kconfig::LupineGeneral();
  kconfig::ApplyTiny(tiny);
  GuestFixture a(normal);
  GuestFixture b(tiny);
  // Section 4.3: -tiny does not improve boot time (same phase structure).
  double ratio = static_cast<double>(b.kernel->boot_trace().Total()) /
                 static_cast<double>(a.kernel->boot_trace().Total());
  EXPECT_GT(ratio, 0.9);
  EXPECT_LT(ratio, 1.15);
}

TEST(KernelTest, OomDuringBootReported) {
  kbuild::ImageBuilder builder;
  auto image = builder.Build(kconfig::LupineGeneral());
  ASSERT_TRUE(image.ok());
  // Far too small.
  Kernel kernel(std::make_shared<const kbuild::KernelImage>(image.take()), 2 * kMiB);
  Status s = kernel.Boot(RootfsImage(apps::BuildBenchRootfs(false)));
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(kernel.oom());
}

}  // namespace
}  // namespace lupine::guestos
