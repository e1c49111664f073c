#include "src/kbuild/features.h"

#include <cstdlib>

#include "src/kconfig/option_names.h"

namespace lupine::kbuild {
namespace {

// Every option name feature derivation consults, interned exactly once per
// process. DeriveFeatures runs once per kernel build and its results ride in
// the image, which every boot of it reads its phase costs from, so the
// per-call cost here is ~35 bitset probes instead of ~35 hash lookups
// through the global interner's shared_mutex.
struct FeatureIds {
  kconfig::OptionId smp, numa, cgroups, namespaces, modules, audit, seccomp, selinux;
  kconfig::OptionId kml, kpti, mitigations, paravirt;
  kconfig::OptionId futex, sysvipc, posix_mqueue;
  kconfig::OptionId net, inet, ipv6, unix_sockets, packet;
  kconfig::OptionId proc_fs, proc_sysctl, sysfs, tmpfs, hugetlbfs, ext2, devtmpfs;
  kconfig::OptionId blk_dev_loop, tty;
  kconfig::OptionId printk, kallsyms, high_res_timers, panic_timeout;
  kconfig::OptionId multiuser, pci, acpi;
};

const FeatureIds& Ids() {
  namespace n = kconfig::names;
  auto& interner = kconfig::OptionInterner::Global();
  static const FeatureIds ids = {
      interner.Intern(n::kSmp),        interner.Intern(n::kNuma),
      interner.Intern(n::kCgroups),    interner.Intern(n::kNamespaces),
      interner.Intern(n::kModules),    interner.Intern(n::kAudit),
      interner.Intern(n::kSeccomp),    interner.Intern(n::kSelinux),
      interner.Intern(n::kKml),        interner.Intern(n::kKpti),
      interner.Intern(n::kMitigations), interner.Intern(n::kParavirt),
      interner.Intern(n::kFutex),      interner.Intern(n::kSysvipc),
      interner.Intern(n::kPosixMqueue),
      interner.Intern(n::kNet),        interner.Intern(n::kInet),
      interner.Intern(n::kIpv6),       interner.Intern(n::kUnix),
      interner.Intern(n::kPacket),
      interner.Intern(n::kProcFs),     interner.Intern(n::kProcSysctl),
      interner.Intern(n::kSysfs),      interner.Intern(n::kTmpfs),
      interner.Intern(n::kHugetlbfs),  interner.Intern(n::kExt2Fs),
      interner.Intern(n::kDevtmpfs),
      interner.Intern(n::kBlkDevLoop), interner.Intern(n::kTty),
      interner.Intern(n::kPrintk),     interner.Intern(n::kKallsyms),
      interner.Intern(n::kHighResTimers), interner.Intern(n::kPanicTimeout),
      interner.Intern(n::kMultiuser),  interner.Intern(n::kPci),
      interner.Intern(n::kAcpi),
  };
  return ids;
}

}  // namespace

KernelFeatures DeriveFeatures(const kconfig::Config& config, const kconfig::OptionDb* db_in) {
  const auto& db = db_in != nullptr ? *db_in : kconfig::OptionDb::Linux40();
  const FeatureIds& id = Ids();

  KernelFeatures f;
  f.syscalls = EnabledSyscalls(config);

  f.smp = config.IsEnabledId(id.smp);
  f.numa = config.IsEnabledId(id.numa);
  f.cgroups = config.IsEnabledId(id.cgroups);
  f.namespaces = config.IsEnabledId(id.namespaces);
  f.modules = config.IsEnabledId(id.modules);
  f.audit = config.IsEnabledId(id.audit);
  f.seccomp = config.IsEnabledId(id.seccomp);
  f.selinux = config.IsEnabledId(id.selinux);

  f.kml = config.IsEnabledId(id.kml);
  f.kpti = config.IsEnabledId(id.kpti);
  f.mitigations = config.IsEnabledId(id.mitigations);
  f.paravirt = config.IsEnabledId(id.paravirt);

  f.futex = config.IsEnabledId(id.futex);
  f.sysvipc = config.IsEnabledId(id.sysvipc);
  f.posix_mqueue = config.IsEnabledId(id.posix_mqueue);

  f.net_core = config.IsEnabledId(id.net);
  f.inet = config.IsEnabledId(id.inet);
  f.ipv6 = config.IsEnabledId(id.ipv6);
  f.unix_sockets = config.IsEnabledId(id.unix_sockets);
  f.packet_sockets = config.IsEnabledId(id.packet);

  f.proc_fs = config.IsEnabledId(id.proc_fs);
  f.proc_sysctl = config.IsEnabledId(id.proc_sysctl);
  f.sysfs = config.IsEnabledId(id.sysfs);
  f.tmpfs = config.IsEnabledId(id.tmpfs);
  f.hugetlbfs = config.IsEnabledId(id.hugetlbfs);
  f.ext2 = config.IsEnabledId(id.ext2);
  f.devtmpfs = config.IsEnabledId(id.devtmpfs);
  f.blk_dev_loop = config.IsEnabledId(id.blk_dev_loop);
  f.tty = config.IsEnabledId(id.tty);

  f.printk = config.IsEnabledId(id.printk);
  f.kallsyms = config.IsEnabledId(id.kallsyms);
  f.high_res_timers = config.IsEnabledId(id.high_res_timers);
  if (config.IsEnabledId(id.panic_timeout)) {
    // Valued option; a bare "y" (no explicit value) means the stock default 0.
    // Copied to a std::string before parsing — ValueOfId's view dies on the
    // next side-table mutation (see Config::ValueOfId's lifetime note).
    const std::string value(config.ValueOfId(id.panic_timeout));
    char* end = nullptr;
    long timeout = std::strtol(value.c_str(), &end, 10);
    f.panic_timeout = (end != value.c_str()) ? static_cast<int>(timeout) : 0;
  }
  f.multiuser = config.IsEnabledId(id.multiuser);
  f.pci = config.IsEnabledId(id.pci);
  f.acpi = config.IsEnabledId(id.acpi);

  f.compile_mode = config.compile_mode();

  for (kconfig::OptionId option : config.EnabledIds()) {
    const kconfig::OptionInfo* info = db.FindById(option);
    if (info == nullptr) {
      continue;
    }
    ++f.enabled_options;
    switch (info->dir) {
      case kconfig::SourceDir::kDrivers:
        ++f.driver_options;
        break;
      case kconfig::SourceDir::kNet:
        ++f.net_options;
        break;
      case kconfig::SourceDir::kFs:
        ++f.fs_options;
        break;
      case kconfig::SourceDir::kCrypto:
        ++f.crypto_options;
        break;
      default:
        break;
    }
    if (info->option_class == kconfig::OptionClass::kAppDebug) {
      ++f.debug_options;
    }
  }
  return f;
}

}  // namespace lupine::kbuild
