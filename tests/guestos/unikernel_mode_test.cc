// Single-process (library-OS style) kernels: fork really fails, threads
// still work — the mechanism behind Section 5's crash-on-fork story.
#include <gtest/gtest.h>

#include "src/apps/rootfs_builder.h"
#include "src/kbuild/builder.h"
#include "src/kconfig/presets.h"
#include "src/workload/spawn.h"
#include "tests/guestos/guest_fixture.h"

namespace lupine::guestos {
namespace {

using testing::GuestFixture;

// A lupine kernel with the unikernel single-process restriction applied.
std::unique_ptr<Kernel> SingleProcessKernel() {
  apps::RegisterBuiltinApps();
  kbuild::ImageBuilder builder;
  auto image = builder.Build(kconfig::LupineGeneral());
  EXPECT_TRUE(image.ok());
  kbuild::KernelImage modified = image.take();
  modified.features.single_process = true;
  auto kernel =
      std::make_unique<Kernel>(std::make_shared<const kbuild::KernelImage>(modified), 512 * kMiB);
  EXPECT_TRUE(kernel->Boot(RootfsImage(apps::BuildBenchRootfs(false))).ok());
  return kernel;
}

TEST(UnikernelModeTest, ForkFailsWithDiagnostic) {
  auto kernel = SingleProcessKernel();
  Status fork_status;
  workload::SpawnProcess(*kernel, "app", [&](SyscallApi& sys) {
    auto pid = sys.Fork([](SyscallApi&) -> int { return 0; });
    fork_status = pid.status();
  });
  kernel->Run();
  EXPECT_EQ(fork_status.err(), Err::kNoSys);
  EXPECT_TRUE(kernel->console().Contains("fork: not supported"));
}

TEST(UnikernelModeTest, PostgresCrashesWhereLupineRunsIt) {
  // The same postgres model that runs on Lupine dies on a single-process
  // kernel when it forks its background workers.
  auto kernel = SingleProcessKernel();
  const AppMain* postgres = kernel->apps().Find("postgres");
  ASSERT_NE(postgres, nullptr);
  int exit_code = 0;
  workload::SpawnProcess(*kernel, "postgres", [&, postgres](SyscallApi& sys) {
    exit_code = (*postgres)(sys, {"postgres"});
  });
  kernel->Run();
  EXPECT_EQ(exit_code, 1);
  EXPECT_TRUE(kernel->console().Contains("could not fork worker process"));
  EXPECT_FALSE(kernel->console().Contains("ready to accept connections"));
}

TEST(UnikernelModeTest, ThreadsStillWork) {
  auto kernel = SingleProcessKernel();
  int done = 0;
  workload::SpawnProcess(*kernel, "app", [&](SyscallApi& sys) {
    for (int i = 0; i < 4; ++i) {
      auto tid = sys.SpawnThread([&](SyscallApi&) { ++done; });
      EXPECT_TRUE(tid.ok());
    }
  });
  kernel->Run();
  EXPECT_EQ(done, 4);
}

TEST(UnikernelModeTest, SingleProcessServersStillServe) {
  // redis never forks: it is unikernel-compatible and runs fine.
  auto kernel = SingleProcessKernel();
  const AppMain* redis = kernel->apps().Find("redis");
  ASSERT_NE(redis, nullptr);
  workload::SpawnProcess(*kernel, "redis", [redis](SyscallApi& sys) {
    (*redis)(sys, {"redis"});
  });
  kernel->Run();
  EXPECT_TRUE(kernel->console().Contains("Ready to accept connections"));
}

}  // namespace
}  // namespace lupine::guestos
