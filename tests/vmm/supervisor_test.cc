// Supervisor: restart-with-backoff, crash-loop quarantine, deterministic
// incident timelines, and fleet integration through the KernelCache.
#include "src/vmm/supervisor.h"

#include <gtest/gtest.h>

#include "src/core/multik.h"
#include "src/util/fault.h"

namespace lupine::vmm {
namespace {

// Shares built artifacts across tests (builds are deterministic; the cache
// just saves time).
core::KernelCache& Cache() {
  static core::KernelCache cache;
  return cache;
}

Supervisor::VmFactory Factory(const std::string& app, FaultInjector* faults,
                              Bytes memory = 256 * kMiB) {
  auto artifact = Cache().GetOrBuild(app);
  EXPECT_TRUE(artifact.ok()) << artifact.status().ToString();
  core::KernelCache::ArtifactPtr ptr = *artifact;
  return [ptr, faults, memory] { return ptr->Launch(memory, faults); };
}

TEST(SupervisorTest, BatchMemberRunsToCompleted) {
  Supervisor supervisor;
  supervisor.AddMember("hello", Factory("hello-world", nullptr));
  EXPECT_EQ(supervisor.Run(), 0u);
  EXPECT_EQ(supervisor.state("hello"), MemberState::kCompleted);
  const auto& stats = supervisor.stats("hello");
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_EQ(stats.failures, 0);
  EXPECT_GT(stats.first_healthy_at, 0);
}

TEST(SupervisorTest, ServerMemberStaysHealthyWithLiveVm) {
  Supervisor supervisor;
  supervisor.AddMember("redis", Factory("redis", nullptr), "Ready to accept connections");
  EXPECT_EQ(supervisor.Run(), 0u);
  EXPECT_EQ(supervisor.state("redis"), MemberState::kHealthy);
  ASSERT_NE(supervisor.stats("redis").vm, nullptr);
  EXPECT_TRUE(supervisor.stats("redis").vm->kernel().console().Contains(
      "Ready to accept connections"));
}

TEST(SupervisorTest, CrashedServerIsRestartedAndRecovers) {
  // One wild access on the 10th syscall of boot #1; the injector outlives
  // the restart, so boot #2 runs clean.
  FaultInjector faults(FaultPlan{}.FireOnce(FaultSite::kAppFault, 10));
  Supervisor supervisor;
  supervisor.AddMember("redis", Factory("redis", &faults), "Ready to accept connections");
  EXPECT_EQ(supervisor.Run(), 0u);
  EXPECT_EQ(supervisor.state("redis"), MemberState::kHealthy);
  EXPECT_EQ(supervisor.stats("redis").attempts, 2);
  EXPECT_EQ(supervisor.stats("redis").failures, 1);

  int panics = 0, restarts = 0;
  for (const Incident& incident : supervisor.timeline()) {
    panics += incident.kind == "panic" ? 1 : 0;
    restarts += incident.kind == "restart-scheduled" ? 1 : 0;
  }
  EXPECT_EQ(panics, 1);
  EXPECT_EQ(restarts, 1);
}

TEST(SupervisorTest, CrashLoopingMemberIsQuarantinedAsDegraded) {
  FaultInjector faults(FaultPlan{}.FireAlways(FaultSite::kBootInitcall));
  SupervisorPolicy policy;
  policy.crash_loop_failures = 3;
  Supervisor supervisor(policy);
  supervisor.AddMember("hello", Factory("hello-world", &faults));
  EXPECT_EQ(supervisor.Run(), 1u);  // The degraded member stays unsettled.
  EXPECT_EQ(supervisor.state("hello"), MemberState::kDegraded);
  EXPECT_EQ(supervisor.stats("hello").attempts, 3);
  EXPECT_EQ(supervisor.timeline().back().kind, "degraded");
}

TEST(SupervisorTest, DegradedMemberDoesNotTakeDownTheFleet) {
  FaultInjector faults(FaultPlan{}.FireAlways(FaultSite::kBootInitcall));
  SupervisorPolicy policy;
  policy.crash_loop_failures = 2;
  Supervisor supervisor(policy);
  supervisor.AddMember("bad", Factory("hello-world", &faults));
  supervisor.AddMember("good", Factory("hello-world", nullptr));
  EXPECT_EQ(supervisor.Run(), 1u);
  EXPECT_EQ(supervisor.state("bad"), MemberState::kDegraded);
  EXPECT_EQ(supervisor.state("good"), MemberState::kCompleted);
}

TEST(SupervisorTest, BackoffScheduleFollowsThePolicyExactly) {
  FaultInjector faults(FaultPlan{}.FireAlways(FaultSite::kBootInitcall));
  SupervisorPolicy policy;
  policy.backoff_jitter = 0;  // Exact doubling, no randomness.
  policy.crash_loop_failures = 6;
  Supervisor supervisor(policy);
  supervisor.AddMember("hello", Factory("hello-world", &faults));
  EXPECT_EQ(supervisor.Run(), 1u);

  // Failure n schedules restart n at failure_time + min(30s, 100ms * 2^(n-1)).
  std::vector<Nanos> failures, boots;
  for (const Incident& incident : supervisor.timeline()) {
    if (incident.kind == "boot-failed") {
      failures.push_back(incident.at);
    } else if (incident.kind == "boot") {
      boots.push_back(incident.at);
    }
  }
  ASSERT_EQ(boots.size(), 6u);
  ASSERT_EQ(failures.size(), 6u);
  const std::vector<Nanos> expected = {Millis(100), Millis(200), Millis(400), Millis(800),
                                       Millis(1600)};
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(boots[i + 1] - failures[i], expected[i]) << "restart " << i;
  }
}

TEST(SupervisorTest, PolicyCountersWatchGiveupsAndCappedBackoffs) {
  FaultInjector faults(FaultPlan{}.FireAlways(FaultSite::kBootInitcall));
  SupervisorPolicy policy;
  policy.backoff_jitter = 0;
  policy.crash_loop_failures = 12;
  telemetry::MetricRegistry registry;
  Supervisor supervisor(policy);
  supervisor.set_metrics(&registry);
  supervisor.AddMember("hello", Factory("hello-world", &faults));
  EXPECT_EQ(supervisor.Run(), 1u);

  // 12 failures => 11 scheduled restarts (the 12th failure degrades
  // instead), all inside the 300 s window; backoffs 0.1 s doubling to 25.6 s,
  // then 30 s (capped) twice.
  EXPECT_EQ(registry.GetCounter("supervisor.giveup_total").value(), 1u);
  EXPECT_EQ(registry.GetCounter("supervisor.backoff_capped_total").value(), 2u);
}

TEST(SupervisorTest, JitterDecorrelatesButStaysWithinBounds) {
  auto restart_gaps = [](uint64_t seed) {
    FaultInjector faults(FaultPlan{}.FireAlways(FaultSite::kBootInitcall));
    SupervisorPolicy policy;
    policy.backoff_jitter = 0.1;
    policy.crash_loop_failures = 4;
    policy.seed = seed;
    Supervisor supervisor(policy);
    supervisor.AddMember("hello", Factory("hello-world", &faults));
    EXPECT_EQ(supervisor.Run(), 1u);
    std::vector<Nanos> gaps;
    Nanos failed_at = -1;
    for (const Incident& incident : supervisor.timeline()) {
      if (incident.kind == "boot-failed") {
        failed_at = incident.at;
      } else if (incident.kind == "boot" && failed_at >= 0) {
        gaps.push_back(incident.at - failed_at);
      }
    }
    return gaps;
  };
  auto gaps = restart_gaps(1);
  ASSERT_EQ(gaps.size(), 3u);
  for (size_t i = 0; i < gaps.size(); ++i) {
    const double base = static_cast<double>(Millis(100)) * (1 << i);
    EXPECT_GE(gaps[i], static_cast<Nanos>(base * 0.9));
    EXPECT_LE(gaps[i], static_cast<Nanos>(base * 1.1));
  }
  // Same seed replays the gaps; a different seed draws different jitter.
  EXPECT_EQ(gaps, restart_gaps(1));
  EXPECT_NE(gaps, restart_gaps(99));
}

TEST(SupervisorTest, SameSeedProducesByteIdenticalTimeline) {
  auto timeline = [] {
    FaultInjector crash_once(FaultPlan{}.FireOnce(FaultSite::kAppFault, 10));
    FaultInjector crash_loop(FaultPlan{}.FireAlways(FaultSite::kBootInitcall));
    SupervisorPolicy policy;
    policy.crash_loop_failures = 3;
    Supervisor supervisor(policy);
    supervisor.AddMember("flaky", Factory("redis", &crash_once),
                         "Ready to accept connections");
    supervisor.AddMember("looper", Factory("hello-world", &crash_loop));
    supervisor.AddMember("steady", Factory("hello-world", nullptr));
    (void)supervisor.Run();
    return supervisor.TimelineText();
  };
  const std::string first = timeline();
  EXPECT_EQ(first, timeline());
  EXPECT_NE(first.find("panic"), std::string::npos);
  EXPECT_NE(first.find("degraded"), std::string::npos);
}

TEST(SupervisorTest, HaltedPanicIsOnlyDetectedAtTheNextHealthProbe) {
  // The KernelCache default bakes PANIC_TIMEOUT=-1 (reboot, immediate
  // detection). A halting build (PANIC_TIMEOUT=0) waits for the probe grid.
  auto detection = [](int panic_timeout) {
    core::BuildOptions options;
    options.panic_timeout = panic_timeout;
    core::KernelCache cache(options);
    auto artifact = cache.GetOrBuild("hello-world");
    EXPECT_TRUE(artifact.ok());
    core::KernelCache::ArtifactPtr ptr = *artifact;
    FaultInjector injector(FaultPlan{}.FireOnce(FaultSite::kAppFault, 2));
    Supervisor supervisor;
    supervisor.AddMember("hello",
                         [ptr, &injector] { return ptr->Launch(256 * kMiB, &injector); });
    (void)supervisor.Run();
    Nanos panic_at = -1, detected_at = -1;
    for (const Incident& incident : supervisor.timeline()) {
      if (incident.kind == "panic" && panic_at < 0) {
        panic_at = incident.at;
      }
      if (incident.kind == "crash" && detected_at < 0) {
        detected_at = incident.at;
      }
    }
    EXPECT_GE(panic_at, 0);
    EXPECT_GE(detected_at, panic_at);
    return detected_at - panic_at;
  };
  EXPECT_EQ(detection(-1), 0) << "rebooting guest notifies the monitor at once";
  const Nanos halted = detection(0);
  EXPECT_GT(halted, 0) << "halted guest sits dead until the next probe";
  EXPECT_LE(halted, Millis(50));  // The health-probe interval.
}

TEST(MinMemoryProbeFaultTest, InjectedEnomemDefeatsEveryMemorySize) {
  auto artifact = Cache().GetOrBuild("hello-world");
  ASSERT_TRUE(artifact.ok());
  core::KernelCache::ArtifactPtr ptr = *artifact;

  auto try_run = [ptr](Bytes memory, FaultInjector* faults) {
    auto vm = ptr->Launch(memory, faults);
    auto result = vm->BootAndRun();
    return result.status.ok() && result.exit_code == 0;
  };

  const Bytes baseline =
      MinMemoryProbe(kMiB, 256 * kMiB, [&](Bytes m) { return try_run(m, nullptr); });
  EXPECT_GT(baseline, 0u);

  // ENOMEM injected on every allocation: no amount of RAM can help, the
  // probe must report that nothing worked rather than a bogus threshold.
  FaultInjector faults(FaultPlan{}.FireAlways(FaultSite::kMemAlloc));
  EXPECT_EQ(MinMemoryProbe(kMiB, 256 * kMiB, [&](Bytes m) { return try_run(m, &faults); }),
            0u);

  // And a null injector reproduces the baseline exactly (determinism).
  EXPECT_EQ(MinMemoryProbe(kMiB, 256 * kMiB, [&](Bytes m) { return try_run(m, nullptr); }),
            baseline);
}

}  // namespace
}  // namespace lupine::vmm
