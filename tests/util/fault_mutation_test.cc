// Mutation test of FaultPlanFromJson: seeded mutants of fault plans
// (tests/support/mutator.h) never crash it, every rejection names a byte
// offset inside the input, and the committed bench plans parse to the plans
// the chaos bench was written against.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/util/fault.h"
#include "src/util/prng.h"
#include "tests/support/mutator.h"

namespace lupine {
namespace {

std::string ReadPlan(const std::string& name) {
  std::ifstream file(std::string(LUPINE_PLAN_DIR) + "/" + name, std::ios::binary);
  std::stringstream text;
  text << file.rdbuf();
  return text.str();
}

void ExpectSameRule(const FaultRule& got, const FaultRule& want) {
  EXPECT_EQ(got.site, want.site);
  EXPECT_EQ(got.trigger_on, want.trigger_on);
  EXPECT_EQ(got.period, want.period);
  EXPECT_DOUBLE_EQ(got.probability, want.probability);
  EXPECT_EQ(got.max_fires, want.max_fires);
  EXPECT_EQ(got.app, want.app);
  EXPECT_EQ(got.stall, want.stall);
}

TEST(FaultPlanMutation, BenchPlansParseToTheirPlans) {
  struct Want {
    const char* file;
    uint64_t seed;
    FaultRule rule;
  };
  for (const Want& want :
       {Want{"boot_initcall_twice.json", 42,
             {.site = FaultSite::kBootInitcall, .trigger_on = 1, .period = 1, .max_fires = 2}},
        Want{"poisoned_rootfs.json", 7,
             {.site = FaultSite::kRootfsCorrupt, .trigger_on = 1, .period = 1,
              .max_fires = -1}}}) {
    SCOPED_TRACE(want.file);
    auto plan = FaultPlanFromJson(ReadPlan(want.file));
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(plan->seed, want.seed);
    ASSERT_EQ(plan->rules.size(), 1u);
    ExpectSameRule(plan->rules[0], want.rule);
  }
}

TEST(FaultPlanMutation, CountsOutsideTheirRangeAreRejected) {
  for (const char* doc : {
           R"({"rules": [{"site": "vfs-io", "trigger_on": -1}]})",
           R"({"rules": [{"site": "vfs-io", "period": 0.5}]})",
           R"({"rules": [{"site": "vfs-io", "period": 1e400}]})",
           R"({"rules": [{"site": "vfs-io", "trigger_on": 18446744073709551616}]})",
           R"({"rules": [{"site": "vfs-io", "max_fires": 1e10}]})",
           R"({"rules": [{"site": "vfs-io", "max_fires": -2}]})",
           R"({"rules": [{"site": "vfs-io", "stall_ns": -5}]})",
           R"({"seed": -3})",
       }) {
    auto plan = FaultPlanFromJson(doc);
    EXPECT_EQ(plan.err(), Err::kInval) << doc;
  }
  // The largest counts in range still parse, and -1 still means unlimited.
  auto plan = FaultPlanFromJson(
      R"({"seed": 0, "rules": [{"site": "vfs-io", "trigger_on": 4294967296,
          "max_fires": 2147483647, "stall_ns": 0}, {"site": "vfs-io", "max_fires": -1}]})");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->rules[0].trigger_on, 4294967296u);
  EXPECT_EQ(plan->rules[0].max_fires, 2147483647);
  EXPECT_EQ(plan->rules[1].max_fires, -1);
}

TEST(FaultPlanMutation, RejectionsPointInsideTheInput) {
  const std::vector<std::string> corpus = {
      ReadPlan("boot_initcall_twice.json"),
      ReadPlan("poisoned_rootfs.json"),
      R"({"seed": 1234, "rules": [
          {"site": "boot-initcall", "trigger_on": 1, "period": 1, "probability": 0,
           "max_fires": 2},
          {"site": "net-recv-reset", "probability": 0.25, "app": "redis",
           "stall_ns": 5000}]})",
  };
  Prng rng(22);
  size_t accepted = 0, rejected = 0;
  for (const std::string& original : corpus) {
    ASSERT_TRUE(FaultPlanFromJson(original).ok());
    for (int i = 0; i < 700; ++i) {
      const std::string mutant =
          fuzz::Mutate(original, corpus[rng.NextBelow(corpus.size())], rng);
      SCOPED_TRACE("mutant " + std::to_string(i) + ": " + mutant);
      auto plan = FaultPlanFromJson(mutant);
      if (plan.ok()) {
        ++accepted;
        continue;
      }
      ++rejected;
      EXPECT_EQ(plan.err(), Err::kInval);
      const std::string& message = plan.status().message();
      const size_t at = message.rfind(" at offset ");
      ASSERT_NE(at, std::string::npos) << message;
      EXPECT_LE(std::stoull(message.substr(at + 11)), mutant.size()) << message;
    }
  }
  // Both outcomes were exercised (a plan's grammar is narrow, so few
  // mutants survive).
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 1000u);
}

}  // namespace
}  // namespace lupine
