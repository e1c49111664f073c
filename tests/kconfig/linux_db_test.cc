#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "src/kconfig/option_db.h"
#include "src/kconfig/option_names.h"

namespace lupine::kconfig {
namespace {

namespace n = names;

size_t CountInClass(const OptionDb& db, OptionClass c) {
  return std::count_if(db.options().begin(), db.options().end(),
                       [c](const OptionInfo& o) { return o.option_class == c; });
}

const OptionInfo* Find(const OptionDb& db, std::string_view name) {
  return db.FindById(OptionInterner::Global().Find(name));
}

TEST(LinuxDbTest, TreeHas15953Options) {
  // The paper's count for Linux 4.0 (Section 3.1).
  EXPECT_EQ(OptionDb::Linux40().size(), 15953u);
}

TEST(LinuxDbTest, DriversIsTheLargestDirectory) {
  const auto& db = OptionDb::Linux40();
  size_t drivers = db.CountInDir(SourceDir::kDrivers);
  for (int d = 0; d < kNumSourceDirs; ++d) {
    auto dir = static_cast<SourceDir>(d);
    if (dir != SourceDir::kDrivers) {
      EXPECT_LT(db.CountInDir(dir), drivers) << SourceDirName(dir);
    }
  }
  // "Almost half of the configuration options are found in drivers."
  EXPECT_GT(drivers, OptionDb::Linux40().size() * 2 / 5);
}

TEST(LinuxDbTest, Fig4ClassCounts) {
  const auto& db = OptionDb::Linux40();
  EXPECT_EQ(CountInClass(db, OptionClass::kBase), 283u);
  EXPECT_EQ(CountInClass(db, OptionClass::kMultiProcess), 89u);
  EXPECT_EQ(CountInClass(db, OptionClass::kHardware), 150u);
  size_t app_specific = CountInClass(db, OptionClass::kAppNetwork) +
                        CountInClass(db, OptionClass::kAppFilesystem) +
                        CountInClass(db, OptionClass::kAppSyscall) +
                        CountInClass(db, OptionClass::kAppCompression) +
                        CountInClass(db, OptionClass::kAppCrypto) +
                        CountInClass(db, OptionClass::kAppDebug) +
                        CountInClass(db, OptionClass::kAppOther);
  EXPECT_EQ(app_specific, 311u);
}

TEST(LinuxDbTest, AppSpecificSubcategoryCounts) {
  const auto& db = OptionDb::Linux40();
  EXPECT_EQ(CountInClass(db, OptionClass::kAppNetwork), 100u);
  EXPECT_EQ(CountInClass(db, OptionClass::kAppFilesystem), 35u);
  EXPECT_EQ(CountInClass(db, OptionClass::kAppSyscall), 12u);  // Table 1.
  EXPECT_EQ(CountInClass(db, OptionClass::kAppCompression), 20u);
  EXPECT_EQ(CountInClass(db, OptionClass::kAppCrypto), 55u);
  EXPECT_EQ(CountInClass(db, OptionClass::kAppDebug), 65u);
}

TEST(LinuxDbTest, NamedOptionsExistWithSaneAttributes) {
  const auto& db = OptionDb::Linux40();
  const OptionInfo* futex = Find(db, n::kFutex);
  ASSERT_NE(futex, nullptr);
  EXPECT_EQ(futex->option_class, OptionClass::kAppSyscall);
  EXPECT_GT(futex->builtin_size, 0u);

  const OptionInfo* smp = Find(db, n::kSmp);
  ASSERT_NE(smp, nullptr);
  EXPECT_EQ(smp->option_class, OptionClass::kMultiProcess);

  const OptionInfo* ipv6 = Find(db, n::kIpv6);
  ASSERT_NE(ipv6, nullptr);
  EXPECT_EQ(ipv6->dir, SourceDir::kNet);
  ASSERT_FALSE(ipv6->depends_on.empty());
  EXPECT_EQ(ipv6->depends_on[0], n::kInet);
}

TEST(LinuxDbTest, KmlConflictsWithParavirt) {
  const auto& db = OptionDb::Linux40();
  const OptionInfo* kml = Find(db, n::kKml);
  ASSERT_NE(kml, nullptr);
  EXPECT_EQ(kml->option_class, OptionClass::kNotSelected);
  bool conflicts_paravirt = false;
  for (const auto& c : kml->conflicts) {
    conflicts_paravirt |= c == n::kParavirt;
  }
  EXPECT_TRUE(conflicts_paravirt);
}

TEST(LinuxDbTest, DuplicateNamesRejected) {
  OptionDb db;
  OptionInfo a;
  a.name = "X";
  EXPECT_TRUE(db.Add(a));
  EXPECT_FALSE(db.Add(a));
  EXPECT_EQ(db.size(), 1u);
}

}  // namespace
}  // namespace lupine::kconfig
