// Shared fixture: a booted guest kernel for unit-testing subsystems.
#ifndef TESTS_GUESTOS_GUEST_FIXTURE_H_
#define TESTS_GUESTOS_GUEST_FIXTURE_H_

#include <memory>
#include <string>

#include "src/apps/builtin.h"
#include "src/apps/rootfs_builder.h"
#include "src/guestos/kernel.h"
#include "src/guestos/syscall_api.h"
#include "src/kbuild/builder.h"
#include "src/kconfig/presets.h"
#include "src/workload/spawn.h"

namespace lupine::guestos::testing {

struct GuestFixture {
  explicit GuestFixture(kconfig::Config config = kconfig::LupineGeneral(),
                        Bytes memory = 512 * kMiB) {
    apps::RegisterBuiltinApps();
    kbuild::ImageBuilder builder;
    auto image = builder.Build(config);
    if (!image.ok()) {
      std::abort();
    }
    kernel = std::make_unique<Kernel>(std::make_shared<const kbuild::KernelImage>(image.take()),
                                      memory);
    const RootfsImage rootfs(apps::BuildBenchRootfs(/*kml_libc=*/config.kml_patch_applied()));
    Status s = kernel->Boot(rootfs);
    if (!s.ok()) {
      std::abort();
    }
  }

  // Spawns a process running `body` and runs the guest to quiescence.
  void RunInGuest(std::function<void(SyscallApi&)> body,
                  const workload::SpawnOptions& options = {}) {
    workload::SpawnProcess(*kernel, "test", std::move(body), options);
    kernel->Run();
  }

  std::unique_ptr<Kernel> kernel;
};

}  // namespace lupine::guestos::testing

#endif  // TESTS_GUESTOS_GUEST_FIXTURE_H_
