// Ablation (Section 2.2): monitor choice and PCI enumeration. LightVM and
// Firecracker "optimize for boot time by eliminating PCI enumeration";
// QEMU-style monitors expose a PCI bus that a PCI-enabled kernel must walk.
#include "src/apps/builtin.h"
#include "src/apps/rootfs_builder.h"
#include "src/kbuild/builder.h"
#include "src/kconfig/option_names.h"
#include "src/kconfig/presets.h"
#include "src/kconfig/resolver.h"
#include "src/util/table.h"
#include "src/vmm/vm.h"

using namespace lupine;

namespace {

Result<Nanos> BootWith(const vmm::MonitorProfile& monitor, bool with_pci) {
  kconfig::Config config = kconfig::LupineGeneral();
  if (with_pci) {
    kconfig::Resolver resolver(kconfig::OptionDb::Linux40());
    (void)resolver.Enable(config, kconfig::names::kPci);
    config.set_name("lupine-general+pci");
  }
  kbuild::ImageBuilder builder;
  auto image = builder.Build(config);
  if (!image.ok()) {
    return image.status();
  }
  apps::RegisterBuiltinApps();
  vmm::VmSpec spec;
  spec.monitor = monitor;
  spec.image = std::make_shared<const kbuild::KernelImage>(image.take());
  spec.rootfs = std::make_shared<const guestos::RootfsImage>(
      apps::BuildAppRootfsForApp("hello-world", false));
  vmm::Vm vm(std::move(spec));
  if (Status s = vm.Boot(); !s.ok()) {
    return s;
  }
  return vm.boot_report().to_init;
}

}  // namespace

int main() {
  PrintBanner("Ablation: monitor choice and PCI enumeration (hello boot, ms)");

  Table table({"monitor", "kernel", "boot (ms)"});
  struct Case {
    const vmm::MonitorProfile& monitor;
    bool pci;
  };
  const Case cases[] = {
      {vmm::Firecracker(), false},
      {vmm::Solo5Hvt(), false},
      {vmm::Uhyve(), false},
      {vmm::Qemu(), false},
      {vmm::Qemu(), true},
  };
  for (const auto& c : cases) {
    auto boot = BootWith(c.monitor, c.pci);
    if (boot.ok()) {
      table.AddRow(c.monitor.name, c.pci ? "lupine-general+PCI" : "lupine-general",
                   ToMillis(boot.value()));
    }
  }
  table.Print();

  std::printf("\nPaper shape: unikernel monitors boot in single-digit milliseconds of\n"
              "overhead; Firecracker stays light by dropping PCI; a traditional\n"
              "monitor adds device-model setup, and PCI enumeration adds ~10 ms of\n"
              "guest-side probing on top (Sections 2.2, 4.3).\n");
  return 0;
}
