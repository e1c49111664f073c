// Section 5: worst-case overhead of CONFIG_SMP on one VCPU
// (sem_posix / futex / make -j).
#include "src/apps/builtin.h"
#include "src/apps/rootfs_builder.h"
#include "src/kbuild/builder.h"
#include "src/kconfig/option_names.h"
#include "src/kconfig/presets.h"
#include "src/kconfig/resolver.h"
#include "src/util/table.h"
#include "src/workload/stress.h"

using namespace lupine;

namespace {

std::unique_ptr<vmm::Vm> VmWithSmp(bool smp) {
  kconfig::Config config = kconfig::LupineGeneral();
  if (smp) {
    kconfig::Resolver resolver(kconfig::OptionDb::Linux40());
    (void)resolver.Enable(config, kconfig::names::kSmp);
    config.set_name("lupine-general+smp");
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
  spec.memory = 512 * kMiB;
  auto vm = std::make_unique<vmm::Vm>(std::move(spec));
  if (!vm->Boot().ok()) {
    return nullptr;
  }
  vm->kernel().Run();
  return vm;
}

}  // namespace

int main() {
  PrintBanner("Section 5: SMP kernel overhead on 1 VCPU (worst case)");

  Table table({"workload", "workers/jobs", "!SMP (ms)", "SMP (ms)", "overhead", "paper"});

  struct Case {
    const char* name;
    const char* bound;
    std::function<Nanos(vmm::Vm&)> run;
  };
  std::vector<Case> cases = {
      {"sem_posix", "<=3%",
       [](vmm::Vm& vm) { return workload::RunSemStress(vm, 32, 40); }},
      {"futex", "<=8%",
       [](vmm::Vm& vm) { return workload::RunFutexStress(vm, 32, 40); }},
      {"make -j", "<=3%",
       [](vmm::Vm& vm) { return workload::RunMakeJob(vm, 8, 60); }},
  };

  for (const auto& c : cases) {
    auto uni = VmWithSmp(false);
    auto smp = VmWithSmp(true);
    if (uni == nullptr || smp == nullptr) {
      return 1;
    }
    Nanos t_uni = c.run(*uni);
    Nanos t_smp = c.run(*smp);
    double overhead = (static_cast<double>(t_smp) - static_cast<double>(t_uni)) /
                      static_cast<double>(t_uni);
    char pct[16];
    std::snprintf(pct, sizeof(pct), "%.1f%%", overhead * 100);
    table.AddRow(c.name, 32, ToMillis(t_uni), ToMillis(t_smp), pct, c.bound);
  }
  table.Print();

  std::printf("\nPaper conclusion: \"the choice to use SMP ... will almost always\n"
              "outweigh the alternative.\"\n");
  return 0;
}
