#include "src/kconfig/presets.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/kconfig/option_names.h"
#include "src/kconfig/resolver.h"

namespace lupine::kconfig {
namespace {

namespace n = names;

TEST(PresetsTest, MicrovmHas833Options) {
  EXPECT_EQ(MicrovmConfig().EnabledCount(), 833u);
}

TEST(PresetsTest, LupineBaseHas283Options) {
  // 283 = 34% of microVM's 833 (Section 3.1).
  EXPECT_EQ(LupineBase().EnabledCount(), 283u);
}

TEST(PresetsTest, LupineBaseIsSubsetOfMicrovm) {
  Config microvm = MicrovmConfig();
  Config base = LupineBase();
  for (OptionId id : base.EnabledIds()) {
    EXPECT_TRUE(microvm.IsEnabledId(id)) << OptionInterner::Global().NameOf(id);
  }
  EXPECT_EQ(microvm.Minus(base).size(), 550u);  // The removed options.
}

TEST(PresetsTest, BothValidateAgainstTheTree) {
  Resolver resolver(OptionDb::Linux40());
  EXPECT_TRUE(resolver.Validate(MicrovmConfig()).ok());
  EXPECT_TRUE(resolver.Validate(LupineBase()).ok());
}

// Table 3: exact per-app option counts.
TEST(PresetsTest, Table3AppOptionCounts) {
  const std::map<std::string, size_t> expected = {
      {"nginx", 13},    {"postgres", 10},    {"httpd", 13},     {"node", 5},
      {"redis", 10},    {"mongo", 11},       {"mysql", 9},      {"traefik", 8},
      {"memcached", 10}, {"hello-world", 0}, {"mariadb", 13},   {"golang", 0},
      {"python", 0},    {"openjdk", 0},      {"rabbitmq", 12},  {"php", 0},
      {"wordpress", 9}, {"haproxy", 8},      {"influxdb", 11},  {"elasticsearch", 12},
  };
  for (const auto& [app, count] : expected) {
    EXPECT_EQ(AppExtraOptions(app).size(), count) << app;
  }
}

TEST(PresetsTest, UnionOfAppOptionsIs19) {
  // "a kernel with only 19 configuration options added on top of the
  // lupine-base configuration is sufficient to run all 20 of the most
  // popular applications" (Section 4.1).
  std::set<std::string> all;
  for (const auto& app : Top20AppNames()) {
    for (const auto& option : AppExtraOptions(app)) {
      all.insert(option);
    }
  }
  EXPECT_EQ(all.size(), 19u);
}

TEST(PresetsTest, LupineGeneralIsBasePlus19) {
  EXPECT_EQ(LupineGeneral().EnabledCount(), 283u + 19u);
}

TEST(PresetsTest, AppOptionsAreApplicationSpecificOrIpc) {
  // Every Table 3 option was removed from microVM (and thus re-addable).
  const auto& db = OptionDb::Linux40();
  for (const auto& app : Top20AppNames()) {
    for (const auto& option : AppExtraOptions(app)) {
      const OptionInfo* info = db.FindById(OptionInterner::Global().Find(option));
      ASSERT_NE(info, nullptr) << option;
      EXPECT_TRUE(IsRemovedFromMicrovm(info->option_class)) << option;
    }
  }
}

TEST(PresetsTest, PostgresNeedsMultiProcessSysvipc) {
  // The paper calls out postgres requiring CONFIG_SYSVIPC, an option
  // classified as multi-process (Section 4.1).
  const auto& options = AppExtraOptions("postgres");
  bool has_sysvipc = false;
  for (const auto& o : options) {
    has_sysvipc |= o == n::kSysvipc;
  }
  EXPECT_TRUE(has_sysvipc);
  const OptionInfo* sysvipc =
      OptionDb::Linux40().FindById(OptionInterner::Global().Find(n::kSysvipc));
  ASSERT_NE(sysvipc, nullptr);
  EXPECT_EQ(sysvipc->option_class, OptionClass::kMultiProcess);
}

TEST(PresetsTest, RedisNeedsEpollAndFutexButNotAio) {
  // Section 3.1.1's example: redis requires EPOLL and FUTEX; nginx
  // additionally requires AIO and EVENTFD.
  auto redis = AppExtraOptions("redis");
  auto has = [](const std::vector<std::string>& v, const char* o) {
    for (const auto& e : v) {
      if (e == o) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has(redis, n::kEpoll));
  EXPECT_TRUE(has(redis, n::kFutex));
  EXPECT_FALSE(has(redis, n::kAio));
  EXPECT_FALSE(has(redis, n::kEventfd));

  auto nginx = AppExtraOptions("nginx");
  EXPECT_TRUE(has(nginx, n::kAio));
  EXPECT_TRUE(has(nginx, n::kEventfd));
}

TEST(PresetsTest, TinyDisablesNineOptions) {
  EXPECT_EQ(TinyDisabledOptions().size(), 9u);
  Config config = LupineBase();
  size_t before = config.EnabledCount();
  ApplyTiny(config);
  EXPECT_EQ(config.EnabledCount(), before - 9);
  EXPECT_EQ(config.compile_mode(), CompileMode::kOs);
  EXPECT_FALSE(config.IsEnabled(n::kBaseFull));
}

TEST(PresetsTest, ApplyKmlSwapsParavirt) {
  Config config = LupineBase();
  ASSERT_TRUE(config.IsEnabled(n::kParavirt));
  ASSERT_TRUE(ApplyKml(config).ok());
  EXPECT_TRUE(config.IsEnabled(n::kKml));
  EXPECT_FALSE(config.IsEnabled(n::kParavirt));
  Resolver resolver(OptionDb::Linux40());
  EXPECT_TRUE(resolver.Validate(config).ok());
}

TEST(PresetsTest, KmlWithoutPatchFails) {
  Config config = LupineBase();
  config.Disable(n::kParavirt);
  Resolver resolver(OptionDb::Linux40());
  auto result = resolver.Enable(config, n::kKml);
  EXPECT_FALSE(result.ok());  // Patch not applied.
}

TEST(PresetsTest, LupineForAppResolvesDependencies) {
  auto config = LupineForApp("nginx");
  ASSERT_TRUE(config.ok());
  // IPV6 pulled in; INET/NET were already in base.
  EXPECT_TRUE(config->IsEnabled(n::kIpv6));
  EXPECT_TRUE(config->IsEnabled(n::kInet));
  Resolver resolver(OptionDb::Linux40());
  EXPECT_TRUE(resolver.Validate(config.value()).ok());
}

TEST(PresetsTest, Top20ListMatchesPaperOrder) {
  const auto& apps = Top20AppNames();
  ASSERT_EQ(apps.size(), 20u);
  EXPECT_EQ(apps.front(), "nginx");
  EXPECT_EQ(apps[1], "postgres");
  EXPECT_EQ(apps.back(), "elasticsearch");
}

}  // namespace
}  // namespace lupine::kconfig
