#include "src/util/fault.h"

#include <gtest/gtest.h>

namespace lupine {
namespace {

TEST(FaultInjectorTest, NullObjectNeverFires) {
  FaultInjector injector;
  EXPECT_FALSE(injector.armed());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(injector.Check(FaultSite::kMemAlloc));
  }
  EXPECT_EQ(injector.total_fires(), 0u);
  // A disarmed injector does not even count evaluations (zero bookkeeping on
  // the fault-free path).
  EXPECT_EQ(injector.evaluations(FaultSite::kMemAlloc), 0u);
}

TEST(FaultInjectorTest, FireOnceHitsExactlyTheNthEvaluation) {
  FaultInjector injector(FaultPlan{}.FireOnce(FaultSite::kVfsIo, 3));
  EXPECT_TRUE(injector.armed());
  EXPECT_FALSE(injector.Check(FaultSite::kVfsIo));
  EXPECT_FALSE(injector.Check(FaultSite::kVfsIo));
  EXPECT_TRUE(injector.Check(FaultSite::kVfsIo));
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.Check(FaultSite::kVfsIo));
  }
  EXPECT_EQ(injector.fires(FaultSite::kVfsIo), 1u);
  EXPECT_EQ(injector.evaluations(FaultSite::kVfsIo), 103u);
}

TEST(FaultInjectorTest, PeriodicRuleFiresOnSchedule) {
  FaultPlan plan;
  plan.Add({.site = FaultSite::kNetSendDrop, .trigger_on = 2, .period = 3});
  FaultInjector injector(plan);
  std::vector<uint64_t> fired;
  for (uint64_t n = 1; n <= 12; ++n) {
    if (injector.Check(FaultSite::kNetSendDrop)) {
      fired.push_back(n);
    }
  }
  EXPECT_EQ(fired, (std::vector<uint64_t>{2, 5, 8, 11}));
}

TEST(FaultInjectorTest, MaxFiresCapsPeriodicRule) {
  FaultPlan plan;
  plan.Add({.site = FaultSite::kSyscallTransient, .trigger_on = 1, .period = 1,
            .max_fires = 2});
  FaultInjector injector(plan);
  int fires = 0;
  for (int n = 0; n < 50; ++n) {
    fires += injector.Check(FaultSite::kSyscallTransient) ? 1 : 0;
  }
  EXPECT_EQ(fires, 2);
}

TEST(FaultInjectorTest, SitesAreIndependent) {
  FaultInjector injector(FaultPlan{}.FireOnce(FaultSite::kMemAlloc, 1));
  EXPECT_FALSE(injector.Check(FaultSite::kVfsIo));
  EXPECT_FALSE(injector.Check(FaultSite::kNetRecvReset));
  EXPECT_TRUE(injector.Check(FaultSite::kMemAlloc));
  EXPECT_EQ(injector.evaluations(FaultSite::kVfsIo), 1u);
  EXPECT_EQ(injector.evaluations(FaultSite::kNetRecvReset), 1u);
  EXPECT_EQ(injector.evaluations(FaultSite::kMemAlloc), 1u);
}

std::vector<uint64_t> ProbabilisticSchedule(uint64_t seed, int evaluations) {
  FaultPlan plan;
  plan.seed = seed;
  plan.Add({.site = FaultSite::kNetRecvReset, .probability = 0.2});
  FaultInjector injector(plan);
  std::vector<uint64_t> fired;
  for (int n = 1; n <= evaluations; ++n) {
    if (injector.Check(FaultSite::kNetRecvReset)) {
      fired.push_back(static_cast<uint64_t>(n));
    }
  }
  return fired;
}

TEST(FaultInjectorTest, ProbabilisticScheduleIsSeedDeterministic) {
  auto a = ProbabilisticSchedule(42, 500);
  auto b = ProbabilisticSchedule(42, 500);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());  // p=0.2 over 500 draws fires with near certainty.
  // A different seed produces a different schedule.
  EXPECT_NE(a, ProbabilisticSchedule(43, 500));
}

TEST(FaultInjectorTest, UnrelatedSiteRulesDoNotShiftDeterministicTriggers) {
  // Adding a probabilistic rule at another site must not perturb when a
  // deterministic rule fires (counters are per-site, draws are per-rule).
  FaultPlan bare = FaultPlan{}.FireOnce(FaultSite::kBootInitcall, 5);
  FaultPlan noisy = bare;
  noisy.Add({.site = FaultSite::kNetSendDrop, .probability = 0.5});

  auto schedule = [](const FaultPlan& plan) {
    FaultInjector injector(plan);
    std::vector<int> fired;
    for (int n = 1; n <= 10; ++n) {
      (void)injector.Check(FaultSite::kNetSendDrop);
      if (injector.Check(FaultSite::kBootInitcall)) {
        fired.push_back(n);
      }
    }
    return fired;
  };
  EXPECT_EQ(schedule(bare), schedule(noisy));
  EXPECT_EQ(schedule(bare), (std::vector<int>{5}));
}

TEST(FaultSiteTest, EverySiteHasAName) {
  for (size_t i = 0; i < kFaultSiteCount; ++i) {
    EXPECT_STRNE(FaultSiteName(static_cast<FaultSite>(i)), "");
  }
  EXPECT_STREQ(FaultSiteName(FaultSite::kAppFault), "app-fault");
  EXPECT_STREQ(FaultSiteName(FaultSite::kBootStall), "boot-stall");
}

TEST(FaultSiteTest, NamesRoundTripThroughFaultSiteFromName) {
  for (size_t i = 0; i < kFaultSiteCount; ++i) {
    const FaultSite site = static_cast<FaultSite>(i);
    auto parsed = FaultSiteFromName(FaultSiteName(site));
    ASSERT_TRUE(parsed.ok()) << FaultSiteName(site);
    EXPECT_EQ(*parsed, site);
  }
  EXPECT_FALSE(FaultSiteFromName("no-such-site").ok());
  EXPECT_FALSE(FaultSiteFromName("").ok());
}

TEST(FaultPlanJsonTest, ParsesEveryRuleField) {
  auto parsed = FaultPlanFromJson(R"({"seed": 1234, "rules": [
      {"site": "boot-initcall", "trigger_on": 1, "period": 1, "probability": 0,
       "max_fires": 2},
      {"site": "net-recv-reset", "probability": 0.25, "app": "redis",
       "stall_ns": 5000}]})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->seed, 1234u);
  ASSERT_EQ(parsed->rules.size(), 2u);
  const FaultRule& first = parsed->rules[0];
  EXPECT_EQ(first.site, FaultSite::kBootInitcall);
  EXPECT_EQ(first.trigger_on, 1u);
  EXPECT_EQ(first.period, 1u);
  EXPECT_DOUBLE_EQ(first.probability, 0.0);
  EXPECT_EQ(first.max_fires, 2);
  const FaultRule& second = parsed->rules[1];
  EXPECT_EQ(second.site, FaultSite::kNetRecvReset);
  EXPECT_DOUBLE_EQ(second.probability, 0.25);
  EXPECT_EQ(second.app, "redis");
  EXPECT_EQ(second.stall, 5000);
}

TEST(FaultPlanJsonTest, ParserDefaultsOmittedFields) {
  auto plan = FaultPlanFromJson(R"({"rules": [{"site": "vfs-io"}]})");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->seed, FaultPlan{}.seed);
  ASSERT_EQ(plan->rules.size(), 1u);
  EXPECT_EQ(plan->rules[0].site, FaultSite::kVfsIo);
  EXPECT_EQ(plan->rules[0].trigger_on, 0u);
  EXPECT_EQ(plan->rules[0].period, 0u);
  EXPECT_DOUBLE_EQ(plan->rules[0].probability, 0.0);
  EXPECT_EQ(plan->rules[0].max_fires, -1);
}

TEST(FaultPlanJsonTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(FaultPlanFromJson("").ok());
  EXPECT_FALSE(FaultPlanFromJson("[]").ok());
  EXPECT_FALSE(FaultPlanFromJson(R"({"seed": 1)").ok());                     // Truncated.
  EXPECT_FALSE(FaultPlanFromJson(R"({"sede": 1})").ok());                    // Unknown key.
  EXPECT_FALSE(FaultPlanFromJson(R"({"rules": [{"site": "warp-core"}]})").ok());
  EXPECT_FALSE(FaultPlanFromJson(R"({"rules": [{"trigger_on": "soon"}]})").ok());
  EXPECT_FALSE(FaultPlanFromJson(R"({"seed": 1} trailing)").ok());
}

TEST(FaultPlanJsonTest, ParsedPlanDrivesTheInjectorLikeTheOriginal) {
  const char* doc = R"({"seed": 42, "rules": [{"site": "boot-initcall",
      "trigger_on": 1, "period": 1, "probability": 0, "max_fires": 2}]})";
  auto plan = FaultPlanFromJson(doc);
  ASSERT_TRUE(plan.ok());
  FaultInjector injector(*plan);
  int fires = 0;
  for (int n = 0; n < 10; ++n) {
    fires += injector.Check(FaultSite::kBootInitcall) ? 1 : 0;
  }
  EXPECT_EQ(fires, 2);  // max_fires caps the always-firing rule.
}

}  // namespace
}  // namespace lupine
