#include "src/telemetry/metrics.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/telemetry/export.h"
#include "src/telemetry/span.h"

namespace lupine::telemetry {
namespace {

TEST(MetricRegistryTest, CounterFindOrCreateIsStable) {
  MetricRegistry registry;
  Counter& a = registry.GetCounter("fleet.boots");
  a.Increment();
  a.Increment(4);
  // Same (name, labels) resolves to the same cell.
  EXPECT_EQ(&registry.GetCounter("fleet.boots"), &a);
  EXPECT_EQ(registry.GetCounter("fleet.boots").value(), 5u);
}

TEST(MetricRegistryTest, LabelsAreCanonicalizedBySortedKey) {
  MetricRegistry registry;
  Counter& ab = registry.GetCounter("x", {{"a", "1"}, {"b", "2"}});
  Counter& ba = registry.GetCounter("x", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&ab, &ba);
  // Different label values are distinct cells.
  EXPECT_NE(&ab, &registry.GetCounter("x", {{"a", "1"}, {"b", "3"}}));
}

TEST(MetricRegistryTest, HistogramSummaryAndPercentiles) {
  MetricRegistry registry;
  Histogram& h = registry.GetHistogram("boot.phase_ns");
  for (int i = 1; i <= 100; ++i) {
    h.Observe(static_cast<double>(i));
  }
  Histogram::Summary s = h.Snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_NEAR(s.p50, 50.5, 1.0);
  EXPECT_NEAR(s.p95, 95.0, 1.5);
  EXPECT_NEAR(s.p99, 99.0, 1.5);
}

TEST(MetricRegistryTest, CollectIsStableOrderAndComplete) {
  MetricRegistry registry;
  registry.GetCounter("b.count").Increment();
  registry.GetCounter("a.count", {{"vm", "redis"}}).Increment(2);
  registry.GetGauge("c.bytes").Set(7);
  registry.GetHistogram("d.ns").Observe(1.0);

  MetricRegistry::Snapshot snapshot = registry.Collect();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "a.count");
  EXPECT_EQ(snapshot.counters[0].value, 2u);
  EXPECT_EQ(snapshot.counters[1].name, "b.count");
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].value, 7);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.size(), 4u);
}

TEST(MetricRegistryTest, FormatLabels) {
  EXPECT_EQ(FormatLabels({}), "");
  EXPECT_EQ(FormatLabels({{"app", "redis"}, {"worker", "3"}}), "{app=redis,worker=3}");
}

TEST(SpanTraceTest, AddPhaseChainsAtCursor) {
  SpanTrace trace;
  trace.AddPhase("decompress", 100);
  trace.AddPhase("core-init", 50);
  ASSERT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.spans()[1].start, 100);
  EXPECT_EQ(trace.spans()[1].end, 150);
  EXPECT_EQ(trace.cursor(), 150);
}

TEST(SpanTraceTest, ExtendRebasesOtherTimeline) {
  SpanTrace provisioning;
  provisioning.AddPhase("build", 40);
  SpanTrace boot;
  boot.Record("decompress", 0, 10);
  boot.Record("core-init", 10, 30);

  SpanTrace pipeline;
  pipeline.Extend(provisioning);
  pipeline.Extend(boot);
  ASSERT_EQ(pipeline.spans().size(), 3u);
  EXPECT_EQ(pipeline.spans()[1].name, "decompress");
  EXPECT_EQ(pipeline.spans()[1].start, 40);
  EXPECT_EQ(pipeline.spans()[2].end, 70);
  const Span* found = pipeline.Find("core-init");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->duration(), 20);
}

TEST(ExportTest, JsonEscape) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

TEST(ExportTest, RegistryRendersValidShape) {
  MetricRegistry registry;
  registry.GetCounter("fleet.boots", {{"variant", "lupine"}}).Increment(3);
  registry.GetGauge("fleet.resident_peak_bytes").Set(1024);
  registry.GetHistogram("boot.to_init_ns").Observe(5.0);
  std::string json = ExportJson(registry);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"fleet.boots\""), std::string::npos);
  EXPECT_NE(json.find("\"variant\": \"lupine\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 1024"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(ExportTest, SpanTraceRendersArray) {
  SpanTrace trace;
  trace.AddPhase("decompress", 10);
  std::string json = ToJson(trace);
  EXPECT_NE(json.find("\"decompress\""), std::string::npos);
  EXPECT_NE(json.find("\"duration_ns\": 10"), std::string::npos);
}

TEST(ExportTest, IdenticalRegistriesExportIdenticalBytes) {
  auto fill = [](MetricRegistry& registry) {
    registry.GetCounter("z.count").Increment();
    registry.GetCounter("a.count", {{"k", "v"}}).Increment(2);
    registry.GetHistogram("h.ns").Observe(3.5);
    registry.GetGauge("g.bytes").Set(-4);
  };
  MetricRegistry r1, r2;
  fill(r1);
  fill(r2);
  EXPECT_EQ(ExportJson(r1), ExportJson(r2));
}

// tsan leg: hammer one registry from eight threads — find-or-create races,
// label canonicalization races, concurrent Observe on shared cells, and
// Collect() racing updates.
TEST(TelemetryConcurrencyTest, RegistryStormFromPoolWorkers) {
  MetricRegistry registry;
  constexpr size_t kThreads = 8;
  constexpr int kIterations = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < kIterations; ++i) {
        registry.GetCounter("storm.events").Increment();
        registry.GetCounter("storm.by_worker", {{"worker", std::to_string(t)}})
            .Increment();
        registry.GetGauge("storm.level").Set(static_cast<int64_t>(i));
        registry.GetHistogram("storm.latency_ns").Observe(static_cast<double>(i));
        if (i % 64 == 0) {
          MetricRegistry::Snapshot snapshot = registry.Collect();
          ASSERT_GE(snapshot.size(), 1u);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(registry.GetCounter("storm.events").value(), kThreads * kIterations);
  std::set<std::string> seen;
  for (const auto& sample : registry.Collect().counters) {
    if (sample.name == "storm.by_worker") {
      EXPECT_EQ(sample.value, static_cast<uint64_t>(kIterations));
      seen.insert(FormatLabels(sample.labels));
    }
  }
  EXPECT_EQ(seen.size(), kThreads);
  EXPECT_EQ(registry.GetHistogram("storm.latency_ns").count(), kThreads * kIterations);
}

}  // namespace
}  // namespace lupine::telemetry
