#include "src/kbuild/builder.h"

#include <gtest/gtest.h>

#include "src/kconfig/option_names.h"
#include "src/kconfig/presets.h"

namespace lupine::kbuild {
namespace {

namespace n = kconfig::names;

KernelImage MustBuild(const kconfig::Config& config) {
  ImageBuilder builder;
  auto image = builder.Build(config);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return image.take();
}

TEST(BuilderTest, LupineBaseImageAround4MB) {
  KernelImage image = MustBuild(kconfig::LupineBase());
  // The paper reports a 4 MB image (abstract, Fig. 6).
  EXPECT_GT(image.size, 3 * kMiB);
  EXPECT_LT(image.size, 5 * kMiB);
}

TEST(BuilderTest, LupineBaseIsAboutASharedQuarterOfMicrovm) {
  KernelImage base = MustBuild(kconfig::LupineBase());
  KernelImage microvm = MustBuild(kconfig::MicrovmConfig());
  double ratio = static_cast<double>(base.size) / static_cast<double>(microvm.size);
  // "The lupine-base image is only 27% of the microVM image" (Section 4.2).
  EXPECT_GT(ratio, 0.22);
  EXPECT_LT(ratio, 0.32);
}

TEST(BuilderTest, AppSpecificKernelsWithin27To33Percent) {
  KernelImage microvm = MustBuild(kconfig::MicrovmConfig());
  for (const std::string app : {"redis", "nginx", "postgres", "mariadb"}) {
    auto config = kconfig::LupineForApp(app);
    ASSERT_TRUE(config.ok());
    KernelImage image = MustBuild(config.value());
    double ratio = static_cast<double>(image.size) / static_cast<double>(microvm.size);
    EXPECT_GT(ratio, 0.22) << app;
    EXPECT_LT(ratio, 0.36) << app;
  }
}

TEST(BuilderTest, TinyShrinksAroundSixPercent) {
  auto config = kconfig::LupineForApp("redis");
  ASSERT_TRUE(config.ok());
  KernelImage normal = MustBuild(config.value());
  kconfig::Config tiny_config = config.value();
  kconfig::ApplyTiny(tiny_config);
  KernelImage tiny = MustBuild(tiny_config);
  double shrink = 1.0 - static_cast<double>(tiny.size) / static_cast<double>(normal.size);
  // "the Lupine image shrinks by a further 6%" (Section 4.2).
  EXPECT_GT(shrink, 0.03);
  EXPECT_LT(shrink, 0.10);
}

TEST(BuilderTest, GeneralLargerThanAppSpecificButBounded) {
  auto redis = kconfig::LupineForApp("redis");
  ASSERT_TRUE(redis.ok());
  KernelImage app_image = MustBuild(redis.value());
  KernelImage general = MustBuild(kconfig::LupineGeneral());
  EXPECT_GT(general.size, app_image.size);
  // Still smaller than OSv (6.7 MB) and Rump (8.2 MB), Section 4.2.
  EXPECT_LT(general.size, static_cast<Bytes>(6.5 * kMiB));
}

TEST(BuilderTest, InvalidConfigRejected) {
  kconfig::Config broken;
  broken.Enable(n::kIpv6);  // Missing INET/NET.
  ImageBuilder builder;
  auto image = builder.Build(broken);
  EXPECT_FALSE(image.ok());
}

TEST(BuilderTest, SizeOfClassAccountsHardwareHeavily) {
  ImageBuilder builder;
  kconfig::Config microvm = kconfig::MicrovmConfig();
  Bytes hw = builder.SizeOfClass(microvm, kconfig::OptionClass::kHardware);
  Bytes base = builder.SizeOfClass(microvm, kconfig::OptionClass::kBase);
  EXPECT_GT(hw, 2 * kMiB);
  EXPECT_GT(base, kMiB);
}

TEST(BuilderTest, FeaturesDerivedDuringBuild) {
  auto config = kconfig::LupineForApp("redis");
  ASSERT_TRUE(config.ok());
  ASSERT_TRUE(kconfig::ApplyKml(*config).ok());
  KernelImage image = MustBuild(config.value());
  EXPECT_TRUE(image.features.kml);
  EXPECT_TRUE(image.features.futex);
  EXPECT_FALSE(image.features.smp);
}

}  // namespace
}  // namespace lupine::kbuild
