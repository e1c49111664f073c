// End-to-end with a user-defined option tree: OptionDb -> resolved config ->
// built image.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/kbuild/builder.h"
#include "src/kconfig/resolver.h"

namespace lupine::kbuild {
namespace {

// CORE <- NETWORK <- HTTP (which also selects CORE), 100 KiB each.
void AddToyTree(kconfig::OptionDb& db) {
  auto add = [&db](const char* name, std::vector<std::string> depends_on,
                   std::vector<std::string> selects) {
    kconfig::OptionInfo info;
    info.name = name;
    info.builtin_size = 100 * kKiB;
    info.depends_on = std::move(depends_on);
    info.selects = std::move(selects);
    ASSERT_TRUE(db.Add(std::move(info)));
  };
  add("CORE", {}, {});
  add("NETWORK", {"CORE"}, {});
  add("HTTP", {"NETWORK"}, {"CORE"});
}

TEST(CustomDbTest, BuildFromCustomTree) {
  kconfig::OptionDb db;
  AddToyTree(db);
  ASSERT_EQ(db.size(), 3u);

  kconfig::Config config("toy");
  kconfig::Resolver resolver(db);
  ASSERT_TRUE(resolver.Enable(config, "HTTP").ok());
  EXPECT_EQ(config.EnabledCount(), 3u);  // HTTP + NETWORK + CORE.

  ImageBuilder builder(&db);
  auto image = builder.Build(config);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  // Core + 3 * 100 KiB, times the link factor.
  EXPECT_GT(image->size, ImageBuilder::CoreSize());
  EXPECT_LT(image->size, ImageBuilder::CoreSize() + 400 * kKiB);
  EXPECT_EQ(image->features.enabled_options, 3u);
}

TEST(CustomDbTest, ValidationUsesTheCustomTree) {
  kconfig::OptionDb db;
  AddToyTree(db);
  kconfig::Config broken("broken");
  broken.Enable("HTTP");  // Missing NETWORK.
  ImageBuilder builder(&db);
  EXPECT_FALSE(builder.Build(broken).ok());
}

}  // namespace
}  // namespace lupine::kbuild
