// ImageBuilder: configuration -> kernel image, with the additive size model.
//
// Size model: a fixed unconfigurable core (entry code, linker-script glue,
// built-in initramfs stub) plus the per-option contributions recorded in the
// option database, scaled by the compile mode (-Os shaves a few percent off
// generated code, Section 4.2) and by a link-time factor representing
// section garbage collection.
#ifndef SRC_KBUILD_BUILDER_H_
#define SRC_KBUILD_BUILDER_H_

#include "src/kbuild/image.h"
#include "src/util/result.h"

namespace lupine::kbuild {

class ImageBuilder {
 public:
  // Builds against the synthetic Linux 4.0 tree by default; pass a custom
  // database for user-defined trees.
  explicit ImageBuilder(const kconfig::OptionDb* db = nullptr)
      : db_(db != nullptr ? db : &kconfig::OptionDb::Linux40()) {}

  // Fails when the config does not validate against the database (missing
  // deps, conflicts).
  Result<KernelImage> Build(const kconfig::Config& config) const;

  // Size attributable to each taxonomy class in `config` (ablation bench).
  Bytes SizeOfClass(const kconfig::Config& config, kconfig::OptionClass cls) const;

  // Fixed size of the unconfigurable kernel core.
  static Bytes CoreSize() { return kCoreSize; }

 private:
  const kconfig::OptionDb* db_;

  static constexpr Bytes kCoreSize = 1152 * kKiB;
  // -Os code-size factor; most of -tiny's win comes from the 9 dropped
  // options, matching the paper's ~6% total.
  static constexpr double kOsSizeFactor = 0.985;
  // Link-time section GC keeps a fraction of nominally-built code out of the
  // final image.
  static constexpr double kLinkFactor = 0.97;
};

}  // namespace lupine::kbuild

#endif  // SRC_KBUILD_BUILDER_H_
