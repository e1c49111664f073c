// Ablation (Section 3.1.2): KPTI's effect on syscall latency — the paper
// measured a 10x slowdown on Linux 5.0, motivating its removal for the
// single-security-domain unikernel case.
#include "src/apps/builtin.h"
#include "src/apps/rootfs_builder.h"
#include "src/kbuild/builder.h"
#include "src/kconfig/option_names.h"
#include "src/kconfig/presets.h"
#include "src/kconfig/resolver.h"
#include "src/util/table.h"
#include "src/workload/lmbench.h"

using namespace lupine;

namespace {

std::unique_ptr<vmm::Vm> VmWithKpti(bool kpti) {
  kconfig::Config config = kconfig::LupineGeneral();
  if (kpti) {
    kconfig::Resolver resolver(kconfig::OptionDb::Linux40());
    (void)resolver.Enable(config, kconfig::names::kKpti);
    config.set_name("lupine-general+kpti");
  }
  kbuild::ImageBuilder builder;
  auto image = builder.Build(config);
  if (!image.ok()) {
    return nullptr;
  }
  apps::RegisterBuiltinApps();
  vmm::VmSpec spec;
  spec.monitor = vmm::Firecracker();
  spec.image = std::make_shared<const kbuild::KernelImage>(image.take());
  spec.rootfs = std::make_shared<const guestos::RootfsImage>(apps::BuildBenchRootfs(false));
  auto vm = std::make_unique<vmm::Vm>(std::move(spec));
  if (!vm->Boot().ok()) {
    return nullptr;
  }
  vm->kernel().Run();
  return vm;
}

}  // namespace

int main() {
  PrintBanner("Ablation: KPTI (kernel page-table isolation) syscall cost");

  auto plain = VmWithKpti(false);
  auto kpti = VmWithKpti(true);
  if (plain == nullptr || kpti == nullptr) {
    return 1;
  }
  auto a = workload::MeasureSyscallLatency(*plain);
  auto b = workload::MeasureSyscallLatency(*kpti);

  Table table({"kernel", "null (us)", "read (us)", "write (us)"});
  table.AddRow("lupine-general", a.null_us, a.read_us, a.write_us);
  table.AddRow("lupine-general + KPTI", b.null_us, b.read_us, b.write_us);
  table.Print();

  std::printf("\nnull-call slowdown with KPTI: %.1fx (paper: ~10x on the transition)\n",
              b.null_us / a.null_us);
  return 0;
}
