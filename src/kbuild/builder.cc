#include "src/kbuild/builder.h"

#include "src/kconfig/resolver.h"

namespace lupine::kbuild {

Result<KernelImage> ImageBuilder::Build(const kconfig::Config& config) const {
  const auto& db = *db_;
  kconfig::Resolver resolver(db);
  if (Status s = resolver.Validate(config); !s.ok()) {
    return Status(s.err(), "kernel build failed: " + s.message());
  }

  KernelImage image;
  image.name = config.name();
  image.config = config;
  image.features = DeriveFeatures(config, db_);

  Bytes option_bytes = 0;
  // Id-indexed hot loop: no option-name strings are materialized or hashed.
  for (kconfig::OptionId id : config.EnabledIds()) {
    const kconfig::OptionInfo* info = db.FindById(id);
    if (info == nullptr) {
      continue;
    }
    if (config.ValueOfId(id) == "m") {
      // Modules live in the rootfs (and load at runtime), not in the image —
      // unikernel-style builds compile everything in instead (Section 3.1.2).
      image.modules_size += info->builtin_size;
      ++image.module_count;
      continue;
    }
    option_bytes += info->builtin_size;
  }

  double size = static_cast<double>(kCoreSize + option_bytes) * kLinkFactor;
  if (config.compile_mode() == kconfig::CompileMode::kOs) {
    size *= kOsSizeFactor;
  }
  image.size = static_cast<Bytes>(size);
  // The resident core is the image plus unpacked data structures; page
  // tables, slabs and per-CPU areas are accounted dynamically by the guest.
  image.text_and_data = static_cast<Bytes>(size * 1.10);
  return image;
}

Bytes ImageBuilder::SizeOfClass(const kconfig::Config& config, kconfig::OptionClass cls) const {
  const auto& db = *db_;
  Bytes total = 0;
  for (kconfig::OptionId id : config.EnabledIds()) {
    const kconfig::OptionInfo* info = db.FindById(id);
    if (info != nullptr && info->option_class == cls) {
      total += info->builtin_size;
    }
  }
  return total;
}

}  // namespace lupine::kbuild
