// Property tests over the configuration engine with PRNG-sampled inputs.
#include <gtest/gtest.h>

#include "src/kconfig/presets.h"
#include "src/kconfig/resolver.h"
#include "src/util/prng.h"

namespace lupine::kconfig {
namespace {

// Samples `count` random option names from the tree.
std::vector<std::string> SampleOptions(Prng& rng, size_t count) {
  const auto& all = OptionDb::Linux40().options();
  std::vector<std::string> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(all[rng.NextBelow(all.size())].name);
  }
  return out;
}

class ResolverProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ResolverProperty, EnableClosureAlwaysValidates) {
  Prng rng(GetParam());
  Resolver resolver(OptionDb::Linux40());
  Config config;
  config.set_kml_patch_applied(true);
  for (const auto& option : SampleOptions(rng, 40)) {
    // Enabling may fail on conflicts; the config must stay valid either way.
    auto result = resolver.Enable(config, option);
    (void)result;
    EXPECT_TRUE(resolver.Validate(config).ok()) << "after enabling " << option;
  }
}

TEST_P(ResolverProperty, EnableIsIdempotent) {
  Prng rng(GetParam() ^ 0xABCD);
  Resolver resolver(OptionDb::Linux40());
  Config config;
  auto options = SampleOptions(rng, 20);
  for (const auto& option : options) {
    (void)resolver.Enable(config, option);
  }
  size_t count = config.EnabledCount();
  for (const auto& option : options) {
    (void)resolver.Enable(config, option);
  }
  EXPECT_EQ(config.EnabledCount(), count);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResolverProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

TEST(ConfigProperty, MinusAndUnionAreConsistent) {
  Config microvm = MicrovmConfig();
  Config base = LupineBase();
  auto removed = microvm.Minus(base);
  Config rebuilt = base;
  for (const auto& option : removed) {
    rebuilt.Enable(option);
  }
  EXPECT_EQ(rebuilt.EnabledIds(), microvm.EnabledIds());
  EXPECT_TRUE(rebuilt.IsSubsetOf(microvm));
  EXPECT_TRUE(microvm.IsSubsetOf(rebuilt));
}

}  // namespace
}  // namespace lupine::kconfig
