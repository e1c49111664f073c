// Mutation test of ParseRules: seeded mutants (tests/support/mutator.h) of
// the committed bench/baselines/benchdiff_rules.json never crash it, each
// one either parses or fails with a kInval Status, and the committed file
// parses to its 10 rules.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/util/prng.h"
#include "tests/support/mutator.h"
#include "tools/benchdiff_lib.h"

namespace lupine::tools {
namespace {

std::string CommittedRules() {
  std::ifstream file(std::string(LUPINE_BASELINE_DIR) + "/benchdiff_rules.json",
                     std::ios::binary);
  std::stringstream text;
  text << file.rdbuf();
  return text.str();
}

TEST(BenchdiffRulesMutation, CommittedRulesParseToTheirTenRules) {
  auto rules = ParseRules(CommittedRules());
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_EQ(rules->size(), 10u);
  EXPECT_EQ(rules->front().pattern, "exemplar_pipeline_spans.*");
  EXPECT_EQ(rules->front().direction, Direction::kInformational);
  EXPECT_EQ((*rules)[6].pattern, "kml.*.speedup");
  EXPECT_EQ((*rules)[6].direction, Direction::kTwoSided);
  EXPECT_DOUBLE_EQ((*rules)[6].threshold, 0.10);
  EXPECT_EQ(rules->back().pattern, "queueing_metrics.*");
  EXPECT_EQ(rules->back().direction, Direction::kInformational);
}

TEST(BenchdiffRulesMutation, MutantsParseOrFailWithAStatus) {
  const std::string original = CommittedRules();
  // A second donor shaped like a rules document with every direction.
  const std::string donor = R"([{"pattern": "*_ms", "direction": "lower-better",
      "threshold": 0.05}, {"pattern": "*rate", "direction": "higher-better"},
      {"pattern": "x", "direction": "info", "threshold": 0}])";
  Prng rng(24);
  size_t accepted = 0, rejected = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string mutant = fuzz::Mutate(original, rng.NextBool(0.5) ? donor : original, rng);
    SCOPED_TRACE("mutant " + std::to_string(i) + ": " + mutant);
    auto rules = ParseRules(mutant);
    if (rules.ok()) {
      ++accepted;
      for (const Rule& rule : *rules) {
        EXPECT_GE(rule.threshold, 0.0) << rule.pattern;
      }
      continue;
    }
    ++rejected;
    EXPECT_EQ(rules.status().err(), Err::kInval);
    EXPECT_FALSE(rules.status().message().empty());
  }
  // Both outcomes were exercised.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 1000u);
}

}  // namespace
}  // namespace lupine::tools
