// The serving front door: load generation, warm-pool mechanics, and the
// RunServing determinism/recovery contracts. ServingStormTest runs
// execute=true at several worker counts — bodies boot/restore but never run
// fibers.
#include "src/serve/front_door.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/core/multik.h"
#include "src/core/snapshot_cache.h"
#include "src/serve/loadgen.h"
#include "src/serve/warm_pool.h"
#include "src/telemetry/journal.h"
#include "src/util/fault.h"

namespace lupine::serve {
namespace {

core::KernelCache& Cache() {
  static auto* cache = new core::KernelCache();
  return *cache;
}

std::vector<TenantSpec> Tenants(double multiplier = 1.0) {
  return {{"nginx", 120.0 * multiplier},
          {"redis", 80.0 * multiplier},
          {"postgres", 40.0 * multiplier}};
}

TEST(LoadgenTest, ArrivalsAreDeterministicSortedAndBounded) {
  const auto a = GenerateOpenLoopArrivals(Tenants(), Seconds(1), 7);
  const auto b = GenerateOpenLoopArrivals(Tenants(), Seconds(1), 7);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].app, b[i].app);
    EXPECT_EQ(a[i].index, i);
    EXPECT_LT(a[i].arrival, Seconds(1));
    if (i > 0) {
      EXPECT_GE(a[i].arrival, a[i - 1].arrival);
    }
  }
  // ~240 arrivals/sec expected; allow generous Poisson slack.
  EXPECT_GT(a.size(), 150u);
  EXPECT_LT(a.size(), 350u);
  // A different seed is a different trace.
  const auto c = GenerateOpenLoopArrivals(Tenants(), Seconds(1), 8);
  bool differs = c.size() != a.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].arrival != c[i].arrival;
  }
  EXPECT_TRUE(differs);
}

TEST(LoadgenTest, RateScalesArrivalCount) {
  const auto low = GenerateOpenLoopArrivals(Tenants(0.5), Seconds(2), 7);
  const auto high = GenerateOpenLoopArrivals(Tenants(2.0), Seconds(2), 7);
  EXPECT_GT(high.size(), 2 * low.size());
}

TEST(WarmPoolTest, ParkAndTakeAreFifoPerApp) {
  WarmPool pool;
  telemetry::MetricRegistry registry;
  pool.set_metrics(&registry);
  pool.Park("a", {nullptr, {}, Millis(1)});
  pool.Park("a", {nullptr, {}, Millis(2)});
  pool.Park("b", {nullptr, {}, Millis(3)});
  EXPECT_EQ(registry.GetGauge("warmpool.live").value(), 3);

  auto first = pool.TryTake("a");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->launch_ns, Millis(1));
  auto second = pool.TryTake("a");
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->launch_ns, Millis(2));
  EXPECT_FALSE(pool.TryTake("a").has_value());
  EXPECT_FALSE(pool.TryTake("missing").has_value());

  EXPECT_EQ(registry.GetCounter("warmpool.parked").value(), 3u);
  EXPECT_EQ(registry.GetCounter("warmpool.taken").value(), 2u);
  EXPECT_EQ(registry.GetCounter("warmpool.empty_takes").value(), 2u);
  EXPECT_EQ(registry.GetGauge("warmpool.live").value(), 1);
  auto last = pool.TryTake("b");
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->launch_ns, Millis(3));
}

TEST(ServingTest, WarmHitsDominateAtSteadyStateAndRestoreStaysCheap) {
  core::SnapshotCache snapshots;
  ServeOptions options;
  options.tenants = Tenants();
  options.duration = Seconds(2);
  options.execute = false;
  auto result = RunServing(Cache(), snapshots, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_GT(result->requests, 0u);
  EXPECT_GT(result->warm_hit_ratio, 0.5);
  EXPECT_EQ(result->requests,
            result->warm_hits + result->restores + result->cold_boots);
  // Launch economics, measured in the prelude: restore under half cold.
  for (const AppServeCost& cost : result->costs) {
    EXPECT_LT(cost.restore_ratio, 0.5) << cost.app;
    EXPECT_GT(cost.restore_ns, 0) << cost.app;
  }
  // The pool fills from cold boots: every app captures exactly once.
  EXPECT_EQ(result->captures, result->costs.size());
  // p50 is a warm dispatch + service, far below a cold boot.
  EXPECT_LT(result->ttfr_p50, result->costs.front().cold_ns);
  EXPECT_GE(result->ttfr_p99, result->ttfr_p50);
  EXPECT_GE(result->ttfr_max, result->ttfr_p99);
}

TEST(ServingTest, RecordsAndJournalAreByteIdenticalAcrossWorkerCounts) {
  auto run = [](size_t workers, std::string* journal_out) {
    telemetry::Journal journal;
    core::SnapshotCache snapshots;
    ServeOptions options;
    options.tenants = Tenants();
    options.duration = Seconds(1);
    options.workers = workers;
    options.execute = true;
    options.journal = &journal;
    auto result = RunServing(Cache(), snapshots, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    *journal_out = journal.ExportJsonl(false);
    return result.ok() ? result.take() : ServeResult{};
  };
  std::string base_journal;
  const ServeResult base = run(1, &base_journal);
  EXPECT_FALSE(base_journal.empty());
  for (size_t workers : {2u, 4u, 8u}) {
    std::string journal;
    const ServeResult other = run(workers, &journal);
    EXPECT_EQ(base_journal, journal) << workers << " workers";
    EXPECT_EQ(base.ttfr_p50, other.ttfr_p50) << workers << " workers";
    EXPECT_EQ(base.ttfr_p99, other.ttfr_p99) << workers << " workers";
    EXPECT_EQ(base.warm_hits, other.warm_hits) << workers << " workers";
    EXPECT_EQ(base.virtual_end, other.virtual_end) << workers << " workers";
    ASSERT_EQ(base.records.size(), other.records.size());
    for (size_t i = 0; i < base.records.size(); ++i) {
      EXPECT_EQ(base.records[i].ttfr, other.records[i].ttfr) << "request " << i;
      EXPECT_STREQ(base.records[i].path, other.records[i].path) << "request " << i;
    }
  }
}

TEST(ServingStormTest, HostExecutionMatchesThePlanWithoutDivergence) {
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    telemetry::MetricRegistry metrics;
    core::SnapshotCache snapshots;
    ServeOptions options;
    options.tenants = Tenants();
    options.duration = Seconds(1);
    options.workers = workers;
    options.execute = true;
    options.metrics = &metrics;
    auto result = RunServing(Cache(), snapshots, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    // The dependency graph makes the plan executable: every warm take found
    // its parked guest, every restore found its snapshot.
    EXPECT_EQ(result->exec_divergence, 0u) << workers << " workers";
    EXPECT_EQ(result->exec_warm_takes, result->warm_hits) << workers << " workers";
    EXPECT_EQ(result->exec_restores, result->restores) << workers << " workers";
    EXPECT_EQ(result->exec_cold_boots, result->cold_boots) << workers << " workers";
    EXPECT_EQ(result->exec_captures, result->captures) << workers << " workers";
    EXPECT_EQ(metrics.GetCounter("serve.requests").value(), result->requests);
    EXPECT_EQ(metrics.GetCounter("warmpool.taken").value(), result->warm_hits);
  }
}

TEST(ServingStormTest, AdmissionBudgetDeniesWithoutBlockingTheFrontDoor) {
  core::SnapshotCache snapshots;
  ServeOptions options;
  options.tenants = Tenants();
  options.duration = Seconds(1);
  options.workers = 4;
  options.execute = true;
  options.host_budget = 2 * options.memory;  // Two concurrent guests, tops.
  auto result = RunServing(Cache(), snapshots, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // TryAdmit never blocks: denials are counted, every request still served.
  EXPECT_GT(result->exec_admission_denied, 0u);
  EXPECT_EQ(result->records.size(), result->requests);
}

TEST(ServingChaosTest, RestoreFaultsPoisonThenHalfOpenProbeRecovers) {
  FaultPlan plan;
  plan.Add({.site = FaultSite::kSnapshotRestore,
            .trigger_on = 1,
            .period = 1,
            .max_fires = 4,
            .app = "redis"});
  core::SnapshotCache snapshots;
  ServeOptions options;
  options.tenants = Tenants();
  options.duration = Seconds(2);
  options.execute = false;
  options.fault_plan = &plan;
  options.quarantine.poison_ttl = Millis(120);
  auto result = RunServing(Cache(), snapshots, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The schedule walks the whole state machine: failures, a drop +
  // recapture, a poison, TTL denials, then the half-open probe readmits.
  EXPECT_EQ(result->restore_failures, 4u);
  EXPECT_GE(result->quarantine_drops, 1u);
  EXPECT_GE(result->quarantine_poisoned, 1u);
  EXPECT_GE(result->probes, 1u);
  // Recovery: redis serves off its snapshot path again after the last fault.
  Nanos last_failure = -1;
  for (const RequestRecord& rec : result->records) {
    if (std::string(rec.path) == "restore-fail-cold") {
      last_failure = std::max(last_failure, rec.dispatch);
    }
  }
  bool recovered = false;
  for (const RequestRecord& rec : result->records) {
    if (rec.app == "redis" && rec.dispatch > last_failure &&
        (std::string(rec.path) == "warm" || std::string(rec.path) == "restore")) {
      recovered = true;
      break;
    }
  }
  EXPECT_TRUE(recovered);
  // Unstruck tenants never noticed.
  for (const RequestRecord& rec : result->records) {
    if (rec.app != "redis") {
      EXPECT_STRNE(rec.path, "restore-fail-cold");
    }
  }
}

TEST(ServingTest, EmptyTenantListIsInvalid) {
  core::SnapshotCache snapshots;
  ServeOptions options;
  auto result = RunServing(Cache(), snapshots, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().err(), Err::kInval);
}

}  // namespace
}  // namespace lupine::serve
