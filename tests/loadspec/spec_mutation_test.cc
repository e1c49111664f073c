// Mutation test of ParseScenario: seeded mutants (tests/support/mutator.h)
// of every scenario in bench/scenarios never crash it, every rejection
// carries diagnostics whose line:col lies inside the mutant, and the
// unmutated corpus parses clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/loadspec/parser.h"
#include "src/util/prng.h"
#include "tests/support/mutator.h"

namespace lupine::loadspec {
namespace {

// The committed scenario specs, in file-name order.
const std::vector<std::string>& Corpus() {
  static const std::vector<std::string> corpus = [] {
    std::vector<std::filesystem::path> paths;
    for (const auto& entry : std::filesystem::directory_iterator(LUPINE_SCENARIO_DIR)) {
      if (entry.path().extension() == ".json") {
        paths.push_back(entry.path());
      }
    }
    std::sort(paths.begin(), paths.end());
    std::vector<std::string> texts;
    for (const auto& path : paths) {
      std::ifstream file(path, std::ios::binary);
      std::stringstream text;
      text << file.rdbuf();
      texts.push_back(text.str());
    }
    return texts;
  }();
  return corpus;
}

// True when `diag` names a byte of `text`, or the position just past the
// end of one of its lines (where an unterminated token is reported).
bool InsideText(const SpecDiagnostic& diag, const std::string& text) {
  if (diag.line < 1 || diag.col < 1) {
    return false;
  }
  size_t start = 0;
  for (int line = 1; line < diag.line; ++line) {
    start = text.find('\n', start);
    if (start == std::string::npos) {
      return false;
    }
    ++start;
  }
  const size_t end = std::min(text.find('\n', start), text.size());
  return static_cast<size_t>(diag.col) <= end - start + 1;
}

TEST(LoadspecMutation, CorpusParsesClean) {
  ASSERT_EQ(Corpus().size(), 6u);
  for (const std::string& text : Corpus()) {
    std::vector<SpecDiagnostic> diags;
    auto spec = ParseScenario(text, &diags);
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    EXPECT_TRUE(diags.empty());
  }
}

TEST(LoadspecMutation, DiagnosticsPointInsideTheMutant) {
  Prng rng(23);
  size_t accepted = 0, rejected = 0;
  for (const std::string& original : Corpus()) {
    for (int i = 0; i < 300; ++i) {
      const std::string& donor = Corpus()[rng.NextBelow(Corpus().size())];
      const std::string mutant = fuzz::Mutate(original, donor, rng);
      SCOPED_TRACE("mutant " + std::to_string(i) + ": " + mutant);
      std::vector<SpecDiagnostic> diags;
      auto spec = ParseScenario(mutant, &diags);
      if (spec.ok()) {
        ++accepted;
        EXPECT_TRUE(diags.empty());
        continue;
      }
      ++rejected;
      EXPECT_EQ(spec.status().err(), Err::kInval);
      ASSERT_FALSE(diags.empty());
      EXPECT_EQ(spec.status().message(), "loadspec: " + diags.front().ToString());
      for (const SpecDiagnostic& diag : diags) {
        EXPECT_TRUE(InsideText(diag, mutant)) << diag.ToString();
      }
    }
  }
  // Both outcomes were exercised.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 1000u);
}

}  // namespace
}  // namespace lupine::loadspec
