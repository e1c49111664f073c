// Journal unit coverage plus the JournalConcurrency storm (tsan leg: the
// suite name is in the CI filter — concurrent Emit against one journal).
#include "src/telemetry/journal.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/util/json.h"

namespace lupine::telemetry {
namespace {

TEST(JournalTest, EventLineRendersTypedFields) {
  Event event;
  event.at = 42;
  event.source = "fleet";
  event.type = "retry";
  event.fields = {{"attempt", FieldValue{int64_t{3}}},
                  {"bytes", FieldValue{uint64_t{7}}},
                  {"ratio", FieldValue{0.5}},
                  {"ok", FieldValue{true}},
                  {"app", FieldValue{std::string("nginx")}}};
  EXPECT_EQ(EventToJsonLine(event),
            R"({"at":42,"source":"fleet","type":"retry","attempt":3,"bytes":7,)"
            R"("ratio":0.5,"ok":true,"app":"nginx"})");
}

TEST(JournalTest, StringsInLinesAreEscaped) {
  Event event;
  event.source = "a\"b";
  event.type = "t\\t";
  event.fields = {{"k", FieldValue{std::string("line\nbreak")}}};
  const std::string line = EventToJsonLine(event);
  EXPECT_EQ(line, R"({"at":0,"source":"a\"b","type":"t\\t","k":"line\nbreak"})");
  // The line must round-trip through the parser.
  auto doc = ParseJson(line);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("k")->str, "line\nbreak");
}

TEST(JournalTest, ExportIsCanonicallySortedRegardlessOfEmissionOrder) {
  Journal a;
  a.Emit(20, "fleet", "task-done");
  a.Emit(10, "fleet", "task-start");
  a.Emit(10, "admission", "verdict");
  Journal b;
  b.Emit(10, "admission", "verdict");
  b.Emit(10, "fleet", "task-start");
  b.Emit(20, "fleet", "task-done");
  EXPECT_EQ(a.ExportJsonl(true), b.ExportJsonl(true));
  // (at, source, type): admission@10 before fleet@10 before fleet@20.
  const std::string jsonl = a.ExportJsonl(true);
  EXPECT_LT(jsonl.find("admission"), jsonl.find("task-start"));
  EXPECT_LT(jsonl.find("task-start"), jsonl.find("task-done"));
}

TEST(JournalTest, ScheduleScopedEventsAreExcludedFromCanonicalExport) {
  Journal journal;
  journal.Emit(1, "fleet", "task-start");
  Event steal;
  steal.at = 2;
  steal.source = "sched";
  steal.type = "steal";
  steal.schedule_scoped = true;
  journal.Emit(std::move(steal));

  EXPECT_EQ(journal.size(), 2u);
  EXPECT_EQ(journal.Snapshot(/*include_schedule_scoped=*/true).size(), 2u);
  EXPECT_EQ(journal.Snapshot(/*include_schedule_scoped=*/false).size(), 1u);
  EXPECT_EQ(journal.ExportJsonl().find("steal"), std::string::npos);
  EXPECT_NE(journal.ExportJsonl(true).find("steal"), std::string::npos);
}

TEST(JournalTest, RingDropsOldestPerSourceAndCountsIt) {
  Journal journal(/*ring_capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    journal.Emit(i, "fleet", std::string("e").append(std::to_string(i)));
  }
  journal.Emit(0, "supervisor", "probe");  // Other sources unaffected.
  EXPECT_EQ(journal.size(), 4u);
  // Oldest dropped: e0/e1 gone, e2..e4 retained.
  const std::string jsonl = journal.ExportJsonl();
  EXPECT_EQ(jsonl.find("\"e0\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"e2\""), std::string::npos);
  // The drop is visible in the export itself.
  EXPECT_NE(jsonl.find(R"("source":"journal","type":"dropped","from":"fleet","count":2)"),
            std::string::npos);
  EXPECT_EQ(jsonl.find(R"("from":"supervisor")"), std::string::npos);
}

TEST(JournalTest, ExportLinesAllParseAsJson) {
  Journal journal;
  journal.Emit(1, "fleet", "task-start", {{"app", FieldValue{std::string("redis")}}});
  journal.Emit(2, "kernel-cache", "hit", {{"key", FieldValue{std::string("a\x1f b")}}});
  std::string jsonl = journal.ExportJsonl(true);
  size_t start = 0;
  size_t lines = 0;
  while (start < jsonl.size()) {
    const size_t end = jsonl.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    auto doc = ParseJson(jsonl.substr(start, end - start));
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    EXPECT_TRUE(doc->is_object());
    start = end + 1;
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
}

TEST(JournalConcurrencyTest, ConcurrentEmittersYieldTheFullMultiset) {
  // 8 threads x 500 events into distinct sources: nothing dropped, and the
  // canonical export equals a serial emission of the same multiset.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  Journal concurrent;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&concurrent, t] {
      const std::string source = "worker-" + std::to_string(t);
      for (int i = 0; i < kPerThread; ++i) {
        concurrent.Emit(i, source, "tick", {{"n", FieldValue{int64_t{i}}}});
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(concurrent.size(), size_t{kThreads} * kPerThread);

  Journal serial;
  for (int t = 0; t < kThreads; ++t) {
    const std::string source = "worker-" + std::to_string(t);
    for (int i = 0; i < kPerThread; ++i) {
      serial.Emit(i, source, "tick", {{"n", FieldValue{int64_t{i}}}});
    }
  }
  EXPECT_EQ(concurrent.ExportJsonl(true), serial.ExportJsonl(true));
}

TEST(JournalConcurrencyTest, ConcurrentEmitAndSnapshotAreSafe) {
  Journal journal(/*ring_capacity=*/64);
  std::thread emitter([&journal] {
    for (int i = 0; i < 2000; ++i) {
      journal.Emit(i, "fleet", "tick");
    }
  });
  size_t observed = 0;
  for (int i = 0; i < 50; ++i) {
    observed += journal.Snapshot().size();
    (void)journal.ExportJsonl();
  }
  emitter.join();
  EXPECT_LE(journal.size(), 64u);
  (void)observed;
}

}  // namespace
}  // namespace lupine::telemetry
