#include "src/vmm/admission.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/telemetry/journal.h"
#include "src/telemetry/metrics.h"

namespace lupine::vmm {
namespace {

void WaitForWaiters(const FleetAdmissionController& controller, size_t n) {
  while (controller.stats().waiting < n) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(FleetAdmissionTest, UnlimitedBudgetAdmitsEverythingInFull) {
  FleetAdmissionController controller;  // host_budget = 0.
  Grant a = controller.Admit({"a", 4 * kGiB, 0});
  Grant b = controller.Admit({"b", 16 * kGiB, 0});
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.granted(), 4 * kGiB);
  EXPECT_FALSE(a.degraded());
  EXPECT_FALSE(a.waited());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(controller.stats().committed, 20 * kGiB);
}

TEST(FleetAdmissionTest, RejectsRequestThatCanNeverFit) {
  FleetAdmissionController controller({256 * kMiB});
  // 512 MiB with no floor cannot fit even on an idle host.
  Grant grant = controller.Admit({"big", 512 * kMiB, 0});
  EXPECT_FALSE(grant.valid());
  EXPECT_EQ(grant.granted(), 0u);
  // A floor above the whole budget is just as hopeless.
  Grant floored = controller.Admit({"big", 512 * kMiB, 300 * kMiB});
  EXPECT_FALSE(floored.valid());
  FleetAdmissionController::Stats stats = controller.stats();
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.committed, 0u);
}

TEST(FleetAdmissionTest, DegradesToFloorWhenFullDoesNotFit) {
  FleetAdmissionController controller({1280 * kMiB});
  Grant a = controller.Admit({"a", 512 * kMiB, 0});
  Grant b = controller.Admit({"b", 512 * kMiB, 0});
  // 1024 committed; a third full 512 does not fit, its 128 floor does.
  Grant c = controller.Admit({"c", 512 * kMiB, 128 * kMiB});
  ASSERT_TRUE(c.valid());
  EXPECT_TRUE(c.degraded());
  EXPECT_FALSE(c.waited());
  EXPECT_EQ(c.granted(), 128 * kMiB);
  FleetAdmissionController::Stats stats = controller.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_EQ(stats.committed, 1152 * kMiB);
  EXPECT_EQ(stats.peak_committed, 1152 * kMiB);
}

TEST(FleetAdmissionTest, GrantReleasesOnDestructionAndIsIdempotent) {
  FleetAdmissionController controller({1 * kGiB});
  {
    Grant grant = controller.Admit({"a", 512 * kMiB, 0});
    EXPECT_EQ(controller.stats().committed, 512 * kMiB);
    grant.Release();
    EXPECT_EQ(controller.stats().committed, 0u);
    grant.Release();  // Idempotent.
    EXPECT_EQ(controller.stats().committed, 0u);
  }
  FleetAdmissionController::Stats stats = controller.stats();
  EXPECT_EQ(stats.committed, 0u);
  EXPECT_EQ(stats.active, 0u);
  EXPECT_EQ(stats.peak_committed, 512 * kMiB);
}

TEST(FleetAdmissionTest, QueuesUntilBudgetDrainsOnVmExit) {
  FleetAdmissionController controller({512 * kMiB});
  Grant running = controller.Admit({"running", 512 * kMiB, 0});
  ASSERT_TRUE(running.valid());

  // The second launch must block: budget exhausted, no floor.
  auto pending = std::async(std::launch::async,
                            [&] { return controller.Admit({"queued", 512 * kMiB, 0}); });
  WaitForWaiters(controller, 1);
  EXPECT_EQ(controller.stats().queued, 1u);

  running.Release();  // The "VM" exits; the queued launch drains.
  Grant drained = pending.get();
  ASSERT_TRUE(drained.valid());
  EXPECT_TRUE(drained.waited());
  EXPECT_FALSE(drained.degraded());
  EXPECT_EQ(drained.granted(), 512 * kMiB);
  EXPECT_EQ(controller.stats().waiting, 0u);
}

TEST(FleetAdmissionTest, QueueDrainsInFifoOrder) {
  FleetAdmissionController controller({512 * kMiB});
  Grant running = controller.Admit({"running", 512 * kMiB, 0});

  std::mutex mu;
  std::vector<int> order;
  auto launch = [&](int id) {
    Grant grant = controller.Admit({"vm" + std::to_string(id), 512 * kMiB, 0});
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(id);
    return grant;
  };
  // Enqueue 1 then 2, deterministically (wait for each to be parked).
  auto first = std::async(std::launch::async, launch, 1);
  WaitForWaiters(controller, 1);
  auto second = std::async(std::launch::async, launch, 2);
  WaitForWaiters(controller, 2);

  running.Release();
  Grant g1 = first.get();  // Head of the line gets the freed bytes.
  EXPECT_EQ(controller.stats().waiting, 1u);
  g1.Release();
  Grant g2 = second.get();
  g2.Release();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(FleetAdmissionTest, JournalRecordsEveryVerdict) {
  telemetry::Journal journal;
  FleetAdmissionController controller({1 * kGiB});
  controller.set_journal(&journal);
  Grant a = controller.Admit({"a", 512 * kMiB, 0});
  Grant b = controller.Admit({"b", 768 * kMiB, 256 * kMiB});  // Degraded.
  Grant c = controller.Admit({"c", 2 * kGiB, 0});             // Rejected.
  Grant d = controller.TryAdmit({"d", 512 * kMiB, 0});        // No room now.
  Grant e = controller.TryAdmit({"e", 256 * kMiB, 0});        // Fills the budget.
  auto f = std::async(std::launch::async,
                      [&] { return controller.Admit({"f", 512 * kMiB, 0}); });
  WaitForWaiters(controller, 1);
  a.Release();
  EXPECT_TRUE(f.get().waited());

  std::vector<std::string> seen;
  for (const telemetry::Event& event : journal.Snapshot(/*include_schedule_scoped=*/true)) {
    ASSERT_EQ(event.source, "admission");
    ASSERT_EQ(event.fields.size(), 3u);
    seen.push_back(event.type + " " + std::get<std::string>(event.fields[0].value) + " " +
                   std::get<std::string>(event.fields[1].value) + " " +
                   std::to_string(std::get<uint64_t>(event.fields[2].value) / kMiB));
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::string>{
                      "try-verdict d deny 0", "try-verdict e admit 256",
                      "verdict a admit 512", "verdict b degrade 256", "verdict c reject 0",
                      "verdict f admit 512", "verdict f queue 0"}));
}

TEST(FleetAdmissionTest, EmitsMetricsWhenRegistryInstalled) {
  telemetry::MetricRegistry registry;
  FleetAdmissionController controller({1 * kGiB});
  controller.set_metrics(&registry);
  Grant a = controller.Admit({"a", 512 * kMiB, 0});
  Grant b = controller.Admit({"b", 768 * kMiB, 256 * kMiB});  // Degraded.
  Grant c = controller.Admit({"c", 2 * kGiB, 0});             // Rejected.
  EXPECT_EQ(registry.GetCounter("admission.requests").value(), 3u);
  EXPECT_EQ(registry.GetCounter("admission.admitted").value(), 1u);
  EXPECT_EQ(registry.GetCounter("admission.degraded").value(), 1u);
  EXPECT_EQ(registry.GetCounter("admission.rejected").value(), 1u);
  EXPECT_EQ(registry.GetGauge("admission.committed_bytes").value(),
            static_cast<int64_t>(768 * kMiB));
  a.Release();
  EXPECT_EQ(registry.GetGauge("admission.committed_bytes").value(),
            static_cast<int64_t>(256 * kMiB));
  EXPECT_EQ(registry.GetGauge("admission.peak_committed_bytes").value(),
            static_cast<int64_t>(768 * kMiB));
}

TEST(FleetAdmissionTest, SetMetricsRegistersEveryCounterAtZero) {
  telemetry::MetricRegistry registry;
  FleetAdmissionController controller({1 * kGiB});
  controller.set_metrics(&registry);
  Grant a = controller.Admit({"a", 512 * kMiB, 0});
  ASSERT_TRUE(a.valid());
  EXPECT_FALSE(a.waited());
  std::map<std::string, uint64_t> counters;
  for (const auto& sample : registry.Collect().counters) {
    counters[sample.name] = sample.value;
  }
  EXPECT_EQ(counters, (std::map<std::string, uint64_t>{{"admission.admitted", 1},
                                                       {"admission.degraded", 0},
                                                       {"admission.queued", 0},
                                                       {"admission.rejected", 0},
                                                       {"admission.requests", 1},
                                                       {"admission.try_denied", 0}}));
}

// tsan leg: many threads admit/hold/release against a tight budget; the
// invariant the controller must keep under contention is committed <= budget
// at every grant and a clean drain at the end.
TEST(AdmissionStormTest, ConcurrentAdmitHoldReleaseStaysUnderBudget) {
  constexpr Bytes kBudget = 256 * kMiB;
  constexpr size_t kThreads = 8;
  constexpr int kIterations = 50;
  FleetAdmissionController controller({kBudget});
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&controller, kBudget] {
      for (int i = 0; i < kIterations; ++i) {
        Grant grant = controller.Admit({"storm", 64 * kMiB, 16 * kMiB});
        ASSERT_TRUE(grant.valid());  // 64 MiB always fits eventually.
        ASSERT_LE(controller.stats().committed, kBudget);
        std::this_thread::yield();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  FleetAdmissionController::Stats stats = controller.stats();
  EXPECT_EQ(stats.requests, kThreads * kIterations);
  EXPECT_EQ(stats.admitted + stats.degraded, kThreads * kIterations);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.active, 0u);
  EXPECT_EQ(stats.waiting, 0u);
  EXPECT_EQ(stats.committed, 0u);
  EXPECT_LE(stats.peak_committed, kBudget);
}


TEST(FleetAdmissionTest, TryAdmitGrantsWhatFitsNowAndNeverBlocks) {
  FleetAdmissionController controller({1 * kGiB});
  Grant a = controller.TryAdmit({"a", 512 * kMiB, 0});
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(a.waited());
  Grant b = controller.TryAdmit({"b", 512 * kMiB, 0});
  EXPECT_TRUE(b.valid());
  // Budget exhausted: the non-blocking path denies instead of queueing.
  Grant c = controller.TryAdmit({"c", 512 * kMiB, 0});
  EXPECT_FALSE(c.valid());
  EXPECT_EQ(controller.stats().try_denied, 1u);
  EXPECT_EQ(controller.stats().waiting, 0u);
  // Releasing capacity makes the next try succeed.
  a.Release();
  Grant d = controller.TryAdmit({"d", 512 * kMiB, 0});
  EXPECT_TRUE(d.valid());
}

TEST(FleetAdmissionTest, TryAdmitDegradesToTheFloorWhenFullDoesNotFit) {
  FleetAdmissionController controller({768 * kMiB});
  Grant a = controller.TryAdmit({"a", 512 * kMiB, 0});
  ASSERT_TRUE(a.valid());
  // 512 full does not fit, the 128 floor does: degrade, immediately.
  Grant b = controller.TryAdmit({"b", 512 * kMiB, 128 * kMiB});
  EXPECT_TRUE(b.valid());
  EXPECT_TRUE(b.degraded());
  EXPECT_EQ(b.granted(), 128 * kMiB);
}

TEST(FleetAdmissionTest, TryAdmitRespectsTheFifoQueue) {
  // A waiter in the blocking queue outranks any TryAdmit: the front door
  // must not starve launches that were promised capacity first.
  FleetAdmissionController controller({1 * kGiB});
  Grant hold = controller.Admit({"hold", 768 * kMiB, 0});
  auto queued = std::async(std::launch::async, [&controller] {
    return controller.Admit({"queued", 512 * kMiB, 0});
  });
  WaitForWaiters(controller, 1);
  // 256 MiB is free, but the queued 512 MiB launch was first in line.
  Grant sneak = controller.TryAdmit({"sneak", 128 * kMiB, 0});
  EXPECT_FALSE(sneak.valid());
  hold.Release();
  Grant promoted = queued.get();
  EXPECT_TRUE(promoted.valid());
  // Queue drained: TryAdmit works again.
  Grant after = controller.TryAdmit({"after", 128 * kMiB, 0});
  EXPECT_TRUE(after.valid());
}

}  // namespace
}  // namespace lupine::vmm
