// Figure 7: boot time for hello world, with the guest-side phase breakdown
// and the PARAVIRT ablation from Section 4.3.
#include "src/core/lineup.h"
#include "src/kconfig/option_names.h"
#include "src/unikernels/linux_system.h"
#include "src/util/table.h"

using namespace lupine;

int main() {
  PrintBanner("Figure 7: boot time for hello world");

  Table table({"system", "boot (ms)", "paper shape"});
  for (auto& system : core::BootTimeLineup()) {
    auto boot = system->BootTime("hello-world");
    if (!boot.ok()) {
      table.AddRow(system->name(), "n/a", boot.status().ToString());
      continue;
    }
    const char* note = "";
    if (system->name() == "microvm") {
      note = "slowest Linux";
    } else if (system->name() == "lupine-nokml") {
      note = "~23 ms";
    } else if (system->name() == "lupine-general-nokml") {
      note = "+~2 ms vs app-specific";
    } else if (system->name() == "osv-zfs") {
      note = "10x slower than rofs";
    }
    table.AddRow(system->name(), ToMillis(boot.value()), note);
  }
  table.Print();

  // Phase breakdown for lupine-nokml.
  unikernels::LinuxSystem lupine(unikernels::LupineNokmlSpec());
  auto vm = lupine.MakeVm("hello-world", 512 * kMiB);
  if (vm.ok() && (*vm)->Boot().ok()) {
    PrintBanner("Boot phase breakdown (lupine-nokml)");
    Table phases({"phase", "ms"});
    const telemetry::SpanTrace spans = (*vm)->boot_spans();
    for (const telemetry::Span& span : spans.spans()) {
      phases.AddRow(span.name, ToMillis(span.duration()));
    }
    phases.Print();
  }

  // Ablation: the KML variant loses CONFIG_PARAVIRT (Section 4.3: 71 ms).
  unikernels::LinuxSystem kml(unikernels::LupineSpec());
  auto kml_boot = kml.BootTime("hello-world");
  if (kml_boot.ok()) {
    std::printf("\nAblation: lupine (KML, no CONFIG_PARAVIRT) boots in %.1f ms "
                "(paper: 71 ms)\n", ToMillis(kml_boot.value()));
  }
  return 0;
}
