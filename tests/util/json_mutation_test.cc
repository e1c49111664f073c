// Mutation test of ParseJson, the parser under every spec, plan and rules
// reader: seeded mutants of documents shaped like the repo's JSON (scenario
// specs, fault plans, benchdiff rules, bench artifacts) must never crash it,
// and every rejection must point at a byte offset inside the input.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/util/json.h"
#include "src/util/prng.h"
#include "tests/support/mutator.h"

namespace lupine {
namespace {

const std::vector<std::string>& Corpus() {
  static const std::vector<std::string> corpus = {
      R"({"name": "mini", "seed": 5,
          "vms": [{"name": "a", "variant": "lupine-general", "memory_mb": 256}],
          "groups": [{"name": "g", "vm": "a", "workers": 2, "iterations": 10,
                      "actions": [{"op": "syscall_mix", "count": 5,
                                   "mix": {"getppid": 3, "read": 2}},
                                  {"op": "compute", "us": 3}]}],
          "expect": [{"metric": "iterations", "min": 1, "max": 1e6}]})",
      R"({"seed": 42, "rules": [{"site": "boot-initcall", "trigger_on": 1, "period": 1,
          "probability": 0.25, "max_fires": -1, "app": "redis", "stall_ns": 5000}]})",
      R"({"rules": [{"pattern": "*_ms", "direction": "lower", "threshold": 0.05},
                    {"pattern": "virt_*", "direction": "two-sided", "threshold": 0}]})",
      R"({"bench": "ext_serving", "rows": [[1, -2.5, 3e-4, true, false, null]],
          "text": "tab\there \"quoted\" \\ é 😀 \/"})",
  };
  return corpus;
}

// Feeds `text` to ParseJson with `options`. Returns whether it parsed;
// a rejection must carry an offset no further than the end of the input
// (an error at the end points just past the last byte) and name the same
// offset in its message.
bool ParseChecked(const std::string& text, const JsonParseOptions& options) {
  JsonParseError error;
  auto doc = ParseJson(text, options, &error);
  if (doc.ok()) {
    return true;
  }
  EXPECT_EQ(doc.status().err(), Err::kInval);
  EXPECT_LE(error.offset, text.size()) << error.what;
  EXPECT_TRUE(doc.status().message().ends_with(" at offset " + std::to_string(error.offset)))
      << doc.status().message();
  return false;
}

TEST(JsonMutation, RejectionsPointInsideTheInput) {
  // The defaults, and the spec parsers' shallow, duplicate-rejecting guard.
  const JsonParseOptions defaults;
  const JsonParseOptions strict{.max_depth = 8, .reject_duplicate_keys = true};
  Prng rng(6);
  size_t accepted = 0, rejected = 0;
  for (const std::string& original : Corpus()) {
    ASSERT_TRUE(ParseChecked(original, defaults));
    for (int i = 0; i < 500; ++i) {
      const std::string& donor = Corpus()[rng.NextBelow(Corpus().size())];
      const std::string mutant = fuzz::Mutate(original, donor, rng);
      SCOPED_TRACE("mutant " + std::to_string(i) + ": " + mutant);
      (ParseChecked(mutant, defaults) ? accepted : rejected) += 1;
      (void)ParseChecked(mutant, strict);
    }
  }
  // Both outcomes were exercised.
  EXPECT_GT(accepted, 50u);
  EXPECT_GT(rejected, 1000u);
}

}  // namespace
}  // namespace lupine
