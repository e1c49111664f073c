// WorkStealingScheduler: deque policy, DAG gating, locality and the
// determinism of the virtual-time replay. Most tests drive Simulate directly
// — the replay is the product (every reported fleet figure comes from it);
// host execution is covered by the SchedulerStorm suite, which is
// Boot()-free.
#include "src/util/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/util/units.h"

namespace lupine {
namespace {

using Report = WorkStealingScheduler::Report;
using SimTask = WorkStealingScheduler::SimTask;

Report Sim(size_t workers, bool stealing, const std::vector<SimTask>& tasks) {
  return WorkStealingScheduler::Simulate({workers, stealing}, tasks);
}

TEST(SchedulerTest, OneWorkerRunsTheLegacySerialOrder) {
  // At W=1 the deque policy must degenerate to exactly the old static
  // shard's schedule: tasks in ascending submission order, back to back.
  std::vector<SimTask> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back({.home = 0, .cost = Nanos{10 * (i + 1)}});
  }
  Report report = Sim(1, /*stealing=*/true, tasks);
  EXPECT_EQ(report.makespan, Nanos{100});
  EXPECT_EQ(report.steals, 0u);
  Nanos expected_start = 0;
  for (size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(report.tasks[i].start, expected_start) << "task " << i;
    expected_start += tasks[i].cost;
  }
  ASSERT_EQ(report.worker_queue_peak.size(), 1u);
  EXPECT_EQ(report.worker_queue_peak[0], 4u);  // All four queued at once.
}

TEST(SchedulerTest, StealTakesTheOldestTaskFromTheVictimsFront) {
  // Four tasks homed on worker 0; worker 0 grabs task 0 (back of its deque
  // = lowest id), so an idle worker 1 must steal from the front: the
  // highest-id entries, oldest-pushed first — 3, then 2, then 1.
  std::vector<SimTask> tasks = {
      {.home = 0, .cost = Nanos{100}},
      {.home = 0, .cost = Nanos{10}},
      {.home = 0, .cost = Nanos{10}},
      {.home = 0, .cost = Nanos{10}},
  };
  Report report = Sim(2, /*stealing=*/true, tasks);
  EXPECT_EQ(report.makespan, Nanos{100});  // Worker 0's one big task.
  EXPECT_EQ(report.steals, 3u);
  EXPECT_EQ(report.tasks[0].worker, 0);
  EXPECT_FALSE(report.tasks[0].stolen);
  for (size_t id : {3u, 2u, 1u}) {
    EXPECT_EQ(report.tasks[id].worker, 1) << "task " << id;
    EXPECT_TRUE(report.tasks[id].stolen) << "task " << id;
  }
  // FIFO steal order: front-most (task 3) first.
  EXPECT_EQ(report.tasks[3].start, Nanos{0});
  EXPECT_EQ(report.tasks[2].start, Nanos{10});
  EXPECT_EQ(report.tasks[1].start, Nanos{20});
}

TEST(SchedulerTest, StealingOffIsTheStaticShard) {
  // Same shape, stealing disabled: worker 1 idles and worker 0 pays the
  // whole shard serially — the legacy baseline as a degenerate policy.
  std::vector<SimTask> tasks = {
      {.home = 0, .cost = Nanos{100}},
      {.home = 0, .cost = Nanos{10}},
      {.home = 0, .cost = Nanos{10}},
      {.home = 0, .cost = Nanos{10}},
  };
  Report report = Sim(2, /*stealing=*/false, tasks);
  EXPECT_EQ(report.makespan, Nanos{130});
  EXPECT_EQ(report.steals, 0u);
  EXPECT_EQ(report.worker_busy[0], Nanos{130});
  EXPECT_EQ(report.worker_busy[1], Nanos{0});
}

TEST(SchedulerTest, DependentStagesOverlapAcrossWorkers) {
  // The fleet's pipelined shape in miniature: one provisioning task gates
  // two boots. Both boots become ready the instant it completes, and the
  // idle worker steals one — the two dependents run concurrently.
  std::vector<SimTask> tasks = {
      {.home = 0, .cost = Nanos{50}, .label = "build"},
      {.home = 0, .cost = Nanos{10}, .deps = {0}, .label = "boot-a"},
      {.home = 1, .cost = Nanos{10}, .deps = {0}, .label = "boot-b"},
  };
  Report report = Sim(2, /*stealing=*/true, tasks);
  EXPECT_EQ(report.tasks[1].start, Nanos{50});  // Neither dispatched before
  EXPECT_EQ(report.tasks[2].start, Nanos{50});  // the dependency resolved.
  EXPECT_EQ(report.makespan, Nanos{60});
  EXPECT_EQ(report.steals, 1u);
}

TEST(SchedulerTest, EmptyTaskSetTerminates) {
  Report report = Sim(4, /*stealing=*/true, {});
  EXPECT_EQ(report.makespan, Nanos{0});
  EXPECT_EQ(report.steals, 0u);
  ASSERT_EQ(report.worker_busy.size(), 4u);
  EXPECT_EQ(report.worker_busy[0], Nanos{0});

  WorkStealingScheduler empty({.workers = 4});
  Report host = empty.Run();  // Host path must also terminate with no work.
  EXPECT_EQ(host.makespan, Nanos{0});
}

TEST(SchedulerTest, ReplayIsDeterministic) {
  // An uneven DAG replayed twice must produce identical reports field by
  // field — the property every fleet figure rests on.
  std::vector<SimTask> tasks;
  for (size_t i = 0; i < 40; ++i) {
    SimTask task;
    task.home = static_cast<int>(i % 3);
    task.cost = Nanos{static_cast<Nanos>((i * 37) % 90 + 5)};
    if (i >= 10) {
      task.deps.push_back(i - 10);
    }
    tasks.push_back(task);
  }
  Report a = Sim(3, /*stealing=*/true, tasks);
  Report b = Sim(3, /*stealing=*/true, tasks);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.steals, b.steals);
  EXPECT_EQ(a.worker_busy, b.worker_busy);
  EXPECT_EQ(a.worker_queue_peak, b.worker_queue_peak);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].worker, b.tasks[i].worker) << i;
    EXPECT_EQ(a.tasks[i].start, b.tasks[i].start) << i;
    EXPECT_EQ(a.tasks[i].end, b.tasks[i].end) << i;
    EXPECT_EQ(a.tasks[i].stolen, b.tasks[i].stolen) << i;
  }
}

TEST(SchedulerStorm, HostExecutionRunsEveryBodyOnceAndReplaysIdentically) {
  // 200 bodies over 4 host threads: every body runs exactly once, and the
  // report equals a direct Simulate of the same spec — host thread timing
  // must never leak into the replay figures.
  constexpr size_t kTasks = 200;
  std::atomic<size_t> executed{0};
  WorkStealingScheduler scheduler({.workers = 4});
  std::vector<SimTask> mirror;
  for (size_t i = 0; i < kTasks; ++i) {
    const Nanos cost = Nanos{static_cast<Nanos>((i * 13) % 70 + 1)};
    WorkStealingScheduler::TaskSpec spec;
    spec.body = [&executed, cost] {
      executed.fetch_add(1, std::memory_order_relaxed);
      return cost;
    };
    spec.home = static_cast<int>(i % 4);
    if (i >= 8) {
      spec.deps.push_back(i - 8);
    }
    mirror.push_back({spec.home, cost, spec.deps, spec.label});
    scheduler.Submit(std::move(spec));
  }
  Report host = scheduler.Run();
  EXPECT_EQ(executed.load(), kTasks);

  Report replay = Sim(4, /*stealing=*/true, mirror);
  EXPECT_EQ(host.makespan, replay.makespan);
  EXPECT_EQ(host.steals, replay.steals);
  EXPECT_EQ(host.worker_busy, replay.worker_busy);
  ASSERT_EQ(host.tasks.size(), replay.tasks.size());
  for (size_t i = 0; i < host.tasks.size(); ++i) {
    EXPECT_EQ(host.tasks[i].worker, replay.tasks[i].worker) << i;
    EXPECT_EQ(host.tasks[i].end, replay.tasks[i].end) << i;
  }
}

TEST(SchedulerStorm, DependentRunsOnTheHostThreadThatCompletedItsDependency) {
  // Locality, the rule kStaticShards rests on: with stealing off, a task
  // that becomes ready when its dependency completes enters the completing
  // worker's deque, not its home deque. Task 0 (50 ns) is homed on worker 1,
  // task 1 (100 ns) keeps worker 0 busy, and task 2 depends on task 0 but is
  // homed on worker 0: it must run on task 0's thread, at t=50 on worker 1.
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::thread::id> ran_on(3);
    const Nanos costs[] = {Nanos{50}, Nanos{100}, Nanos{10}};
    WorkStealingScheduler scheduler({.workers = 2, .stealing = false});
    for (size_t i = 0; i < 3; ++i) {
      WorkStealingScheduler::TaskSpec spec;
      spec.body = [&ran_on, &costs, i] {
        ran_on[i] = std::this_thread::get_id();
        return costs[i];
      };
      spec.home = i == 0 ? 1 : 0;
      if (i == 2) {
        spec.deps = {0};
      }
      scheduler.Submit(std::move(spec));
    }
    Report report = scheduler.Run();
    EXPECT_EQ(ran_on[2], ran_on[0]) << "trial " << trial;
    EXPECT_NE(ran_on[2], ran_on[1]) << "trial " << trial;
    EXPECT_EQ(report.tasks[0].worker, 1);
    EXPECT_EQ(report.tasks[2].worker, 1);
    EXPECT_FALSE(report.tasks[2].stolen);
    EXPECT_EQ(report.tasks[2].start, Nanos{50});
    EXPECT_EQ(report.makespan, Nanos{100});
    EXPECT_EQ(report.steals, 0u);
  }
}

TEST(SchedulerTest, ReleaseTimesGateDispatchAndIdleJump) {
  // Open-loop arrivals: a task is not dispatched before its release even
  // when the worker is idle — the replay jumps the idle worker's clock to
  // the release instant instead of busy-waiting.
  std::vector<SimTask> tasks;
  tasks.push_back({.home = 0, .cost = Nanos{10}});
  tasks.push_back({.home = 0, .cost = Nanos{10}, .release = Nanos{100}});
  Report report = Sim(1, /*stealing=*/true, tasks);
  EXPECT_EQ(report.tasks[0].start, Nanos{0});
  EXPECT_EQ(report.tasks[1].start, Nanos{100});  // Idle 10..100, then run.
  EXPECT_EQ(report.makespan, Nanos{110});
}

TEST(SchedulerTest, ReleaseComposesWithDeps) {
  // Dispatch waits for max(release, deps done): an early release does not
  // jump a dependency, and a late release holds a ready task back.
  std::vector<SimTask> tasks;
  tasks.push_back({.home = 0, .cost = Nanos{50}});
  tasks.push_back({.home = 0, .cost = Nanos{10}, .deps = {0}, .release = Nanos{5}});
  tasks.push_back({.home = 0, .cost = Nanos{10}, .deps = {0}, .release = Nanos{90}});
  Report report = Sim(1, /*stealing=*/true, tasks);
  EXPECT_EQ(report.tasks[1].start, Nanos{50});  // Dep dominates release.
  EXPECT_EQ(report.tasks[2].start, Nanos{90});  // Release dominates dep.
}

TEST(SchedulerTest, ReleasedScheduleReplaysIdenticallyAcrossWorkerCounts) {
  // The serving pattern: request tasks with arrival releases plus refill
  // chains. Total busy time (the sum of task costs) is invariant across
  // worker counts even as the schedule shape changes.
  std::vector<SimTask> tasks;
  for (size_t i = 0; i < 60; ++i) {
    SimTask task;
    task.home = static_cast<int>(i % 4);
    task.cost = Nanos{static_cast<Nanos>((i * 13) % 40 + 10)};
    task.release = Nanos{static_cast<Nanos>(i * 7)};
    if (i >= 12 && i % 3 == 0) {
      task.deps.push_back(i - 12);
    }
    tasks.push_back(task);
  }
  Report a = Sim(2, /*stealing=*/true, tasks);
  Report b = Sim(2, /*stealing=*/true, tasks);
  EXPECT_EQ(a.makespan, b.makespan);
  for (size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].start, b.tasks[i].start) << i;
    EXPECT_GE(a.tasks[i].start, tasks[i].release) << i;
  }
}

}  // namespace
}  // namespace lupine
