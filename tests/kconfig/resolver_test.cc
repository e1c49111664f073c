#include "src/kconfig/resolver.h"

#include <gtest/gtest.h>

#include "src/kconfig/option_names.h"

namespace lupine::kconfig {
namespace {

namespace n = names;

TEST(ResolverTest, EnablesTransitiveDependencies) {
  Config c;
  Resolver resolver(OptionDb::Linux40());
  auto result = resolver.Enable(c, n::kIpv6);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(c.IsEnabled(n::kIpv6));
  EXPECT_TRUE(c.IsEnabled(n::kInet));  // IPV6 -> INET -> NET.
  EXPECT_TRUE(c.IsEnabled(n::kNet));
  EXPECT_GE(result->auto_enabled.size(), 2u);
}

TEST(ResolverTest, NoDuplicateAutoEnables) {
  Config c;
  Resolver resolver(OptionDb::Linux40());
  (void)resolver.Enable(c, n::kNet);
  auto result = resolver.Enable(c, n::kUnix);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->auto_enabled.empty());  // NET was already on.
}

TEST(ResolverTest, UnknownOptionFails) {
  Config c;
  Resolver resolver(OptionDb::Linux40());
  auto result = resolver.Enable(c, "NOT_A_REAL_OPTION");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.err(), Err::kNoEnt);
}

TEST(ResolverTest, ConflictLeavesConfigUntouched) {
  Config c;
  c.set_kml_patch_applied(true);
  Resolver resolver(OptionDb::Linux40());
  ASSERT_TRUE(resolver.Enable(c, n::kParavirt).ok());
  size_t before = c.EnabledCount();
  auto result = resolver.Enable(c, n::kKml);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.err(), Err::kInval);
  EXPECT_EQ(c.EnabledCount(), before);
  EXPECT_FALSE(c.IsEnabled(n::kKml));
}

TEST(ResolverTest, ValidateCatchesMissingDependency) {
  Config c;
  c.Enable(n::kIpv6);  // Without INET.
  Resolver resolver(OptionDb::Linux40());
  Status s = resolver.Validate(c);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("IPV6"), std::string::npos);
}

TEST(ResolverTest, ValidateReportsTheLexicographicallyFirstViolation) {
  // Z is interned before A, so id order and name order disagree.
  const OptionId z = OptionInterner::Global().Intern("VALIDATE_ORDER_Z");
  const OptionId a = OptionInterner::Global().Intern("VALIDATE_ORDER_A");
  ASSERT_LT(z, a);
  OptionDb db;
  for (const char* name : {"VALIDATE_ORDER_Z", "VALIDATE_ORDER_A"}) {
    OptionInfo info;
    info.name = name;
    info.depends_on = {std::string(name) + "_DEP"};
    ASSERT_TRUE(db.Add(info));
    info.name += "_DEP";
    info.depends_on.clear();
    ASSERT_TRUE(db.Add(info));
  }
  Config c;
  c.Enable("VALIDATE_ORDER_Z");
  c.Enable("VALIDATE_ORDER_A");
  Status s = Resolver(db).Validate(c);
  EXPECT_EQ(s.message(),
            "CONFIG_VALIDATE_ORDER_A requires CONFIG_VALIDATE_ORDER_A_DEP which is not enabled");
}

TEST(ResolverTest, ValidateCatchesConflicts) {
  Config c;
  c.set_kml_patch_applied(true);
  c.Enable(n::kParavirt);
  c.Enable(n::kKml);
  c.Enable(n::kVsyscallEmulation);
  Resolver resolver(OptionDb::Linux40());
  EXPECT_FALSE(resolver.Validate(c).ok());
}

TEST(ResolverTest, ValidateCatchesUnpatchedKml) {
  Config c;
  c.Enable(n::kKml);
  c.Enable(n::kVsyscallEmulation);
  Resolver resolver(OptionDb::Linux40());
  Status s = resolver.Validate(c);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("KML"), std::string::npos);
}

TEST(ResolverTest, NumaRequiresSmp) {
  Config c;
  Resolver resolver(OptionDb::Linux40());
  ASSERT_TRUE(resolver.Enable(c, n::kNuma).ok());
  EXPECT_TRUE(c.IsEnabled(n::kSmp));
}

}  // namespace
}  // namespace lupine::kconfig
