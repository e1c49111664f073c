// Loadable-module (=m) semantics: modules ship in the rootfs, not the
// kernel image, and require CONFIG_MODULES — the generality knob unikernel
// builds reject ("a single application facilitates the creation of a kernel
// that contains all functionality it needs at build time", Section 3.1.2).
#include <gtest/gtest.h>

#include "src/kbuild/builder.h"
#include "src/kconfig/option_names.h"
#include "src/kconfig/presets.h"
#include "src/kconfig/resolver.h"

namespace lupine::kbuild {
namespace {

namespace n = kconfig::names;

TEST(ModulesTest, ModularOptionStaysOutOfTheImage) {
  kconfig::Config builtin_config = kconfig::MicrovmConfig();
  kconfig::Config modular_config = kconfig::MicrovmConfig();
  // IPV6 as a module instead of built-in.
  modular_config.SetValue(n::kIpv6, "m");

  ImageBuilder builder;
  auto builtin_image = builder.Build(builtin_config);
  auto modular_image = builder.Build(modular_config);
  ASSERT_TRUE(builtin_image.ok());
  ASSERT_TRUE(modular_image.ok()) << modular_image.status().ToString();

  EXPECT_LT(modular_image->size, builtin_image->size);
  EXPECT_EQ(modular_image->module_count, 1u);
  EXPECT_GT(modular_image->modules_size, 300 * kKiB);  // IPv6 is large.
  EXPECT_EQ(builtin_image->module_count, 0u);
}

TEST(ModulesTest, ModuleWithoutModulesSupportRejected) {
  kconfig::Config config = kconfig::LupineBase();  // MODULES removed.
  config.SetValue(n::kTmpfs, "m");
  kconfig::Resolver resolver(kconfig::OptionDb::Linux40());
  Status s = resolver.Validate(config);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("CONFIG_MODULES"), std::string::npos);
}

TEST(ModulesTest, MicrovmAllowsModulesLupineDoesNot) {
  // microVM keeps CONFIG_MODULES; every Lupine flavour drops it.
  EXPECT_TRUE(kconfig::MicrovmConfig().IsEnabled(n::kModules));
  EXPECT_FALSE(kconfig::LupineBase().IsEnabled(n::kModules));
  EXPECT_FALSE(kconfig::LupineGeneral().IsEnabled(n::kModules));
}

}  // namespace
}  // namespace lupine::kbuild
