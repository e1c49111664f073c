#include "src/loadspec/interpreter.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/loadspec/parser.h"
#include "src/telemetry/journal.h"

namespace lupine::loadspec {
namespace {

std::string ReadSpecFile(const char* basename) {
  const std::filesystem::path path = std::filesystem::path(LUPINE_SCENARIO_DIR) / basename;
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Parses and runs a spec; `reseed`, when non-zero, replaces its seed.
Result<ScenarioResult> RunText(std::string_view text, const ScenarioOptions& options = {},
                               uint64_t reseed = 0) {
  auto spec = ParseScenario(text);
  if (!spec.ok()) {
    return spec.status();
  }
  if (reseed != 0) {
    spec->seed = reseed;
  }
  return RunScenario(spec.value(), options);
}

TEST(InterpreterTest, RunsMinimalSpec) {
  auto result = RunText(R"({
    "name": "mini",
    "groups": [{"name": "g", "workers": 2, "iterations": 10,
                "actions": [{"op": "syscall_mix", "count": 5, "mix": {"getppid": 1}},
                            {"op": "compute", "us": 3}]}]
  })");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok());
  EXPECT_EQ(result->total_iterations, 20u);
  EXPECT_EQ(result->blocked, 0u);
  EXPECT_GT(result->elapsed, 0);
  // 2 workers x 10 iterations x 5 draws, all getppid.
  EXPECT_EQ(result->SyscallCount("getppid"), 100u);
}

TEST(InterpreterTest, PipePingPongCompletes) {
  auto result = RunText(ReadSpecFile("pipe_latency.json"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok()) << (result->failures.empty() ? "" : result->failures[0]);
  EXPECT_EQ(result->total_iterations, 2000u);
  EXPECT_EQ(result->blocked, 0u);
  EXPECT_GE(result->SyscallCount("write"), 2000u);
  EXPECT_GE(result->SyscallCount("read"), 2000u);
}

TEST(InterpreterTest, DgramFanoutCompletes) {
  auto result = RunText(ReadSpecFile("fanout_microservice.json"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok()) << (result->failures.empty() ? "" : result->failures[0]);
  EXPECT_EQ(result->blocked, 0u);
}

TEST(InterpreterTest, ThreadModeGroupJoinsAllWorkers) {
  auto result = RunText(R"({
    "name": "threads",
    "groups": [{"name": "t", "workers": 4, "mode": "thread", "iterations": 6,
                "actions": [{"op": "sem_lock", "compute_ns": 500},
                            {"op": "yield"}]}]
  })");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_iterations, 24u);
  EXPECT_EQ(result->blocked, 0u);
}

TEST(InterpreterTest, ExpectViolationsAreReportedNotFatal) {
  auto result = RunText(R"({
    "name": "strict",
    "groups": [{"name": "g", "iterations": 2, "actions": [{"op": "yield"}]}],
    "expect": [{"metric": "iterations", "min": 1000000}]
  })");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->ok());
  ASSERT_EQ(result->failures.size(), 1u);
  EXPECT_NE(result->failures[0].find("below expected min"), std::string::npos);
}

TEST(InterpreterTest, KmlLowersPipeLatency) {
  const std::string text = ReadSpecFile("pipe_latency.json");
  ScenarioOptions kml;
  kml.kml_override = 1;
  ScenarioOptions nokml;
  nokml.kml_override = 0;
  auto fast = RunText(text, kml);
  auto slow = RunText(text, nokml);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  // Same work, cheaper kernel entries: KML must finish the scenario sooner.
  EXPECT_LT(fast->elapsed, slow->elapsed);
  EXPECT_EQ(fast->total_iterations, slow->total_iterations);
}

TEST(InterpreterTest, SameSeedSameFigures) {
  const std::string text = ReadSpecFile("bursty_tenant.json");
  auto a = RunText(text);
  auto b = RunText(text);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->CanonicalFiguresInput(), b->CanonicalFiguresInput());

  auto c = RunText(text, {}, /*reseed=*/777);
  ASSERT_TRUE(c.ok());
  // Reseeding reshuffles the mix draws but not the amount of work.
  EXPECT_EQ(a->total_iterations, c->total_iterations);
}

// The determinism contract of the tentpole: the same spec, run with 1/2/4/8
// host workers, must produce byte-identical figures and a byte-identical
// canonical journal. Uses a two-VM spec so the pool has real parallelism.
TEST(ScenarioStorm, WorkerCountInvariantFiguresAndJournal) {
  const char* text = R"({
    "name": "storm",
    "seed": 5,
    "vms": [
      {"name": "a", "variant": "lupine-general"},
      {"name": "b", "variant": "lupine-general-nokml"},
      {"name": "c", "variant": "microvm"}
    ],
    "groups": [
      {"name": "ga", "vm": "a", "workers": 2, "iterations": 40,
       "actions": [{"op": "syscall_mix", "count": 6,
                    "mix": {"getppid": 3, "read": 2, "brk": 1, "futex": 1}}]},
      {"name": "gb", "vm": "b", "workers": 2, "iterations": 30,
       "actions": [{"op": "mem_touch", "kb": 32}, {"op": "sleep", "us": 10}]},
      {"name": "gc", "vm": "c", "workers": 1, "iterations": 20,
       "actions": [{"op": "fork_work", "units": 1, "compute_us": 50, "write_kb": 2}]}
    ]
  })";
  std::string reference;
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    telemetry::Journal journal;
    ScenarioOptions options;
    options.workers = workers;
    options.journal = &journal;
    auto result = RunText(text, options);
    ASSERT_TRUE(result.ok()) << "workers=" << workers << ": "
                             << result.status().ToString();
    const std::string canonical =
        result->CanonicalFiguresInput() + journal.ExportJsonl(false);
    if (reference.empty()) {
      reference = canonical;
      EXPECT_GT(result->total_iterations, 0u);
    } else {
      EXPECT_EQ(canonical, reference) << "workers=" << workers;
    }
  }
}

// Storm (no guest fibers): the parser/linter hammered from many
// host threads over the whole corpus must race-free produce identical
// diagnostics.
TEST(SpecLintStorm, ConcurrentLintingIsRaceFree) {
  std::vector<std::string> corpus;
  for (const auto& entry :
       std::filesystem::directory_iterator(LUPINE_SCENARIO_DIR)) {
    if (entry.path().extension() == ".json") {
      std::ifstream in(entry.path());
      std::stringstream buffer;
      buffer << in.rdbuf();
      corpus.push_back(buffer.str());
    }
  }
  corpus.push_back("{\"name\": \"broken\"");  // syntax error
  corpus.push_back(R"({"name": "x", "groups": [{"name": "g",
                     "actions": [{"op": "warp"}]}]})");
  ASSERT_GE(corpus.size(), 7u);

  std::vector<std::vector<int>> verdicts(8);
  std::vector<std::thread> threads;
  threads.reserve(verdicts.size());
  for (size_t t = 0; t < verdicts.size(); ++t) {
    threads.emplace_back([&corpus, &verdicts, t] {
      for (int round = 0; round < 20; ++round) {
        for (const std::string& text : corpus) {
          std::vector<SpecDiagnostic> diags;
          verdicts[t].push_back(LintScenario(text, &diags) ? 1 : 0);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (size_t t = 1; t < verdicts.size(); ++t) {
    EXPECT_EQ(verdicts[t], verdicts[0]);
  }
}

}  // namespace
}  // namespace lupine::loadspec
