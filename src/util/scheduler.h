// Virtual-time-aware work-stealing scheduler for the fleet pipeline.
//
// The fleet driver used to shard statically: task i belonged to worker
// i mod W forever, so one expensive task (a fresh kernel build, a 60s
// boot-stall fault) wedged its shard while sibling workers idled. This
// scheduler replaces the shards with per-worker deques: a worker pops its
// own deque LIFO (back), and an idle worker steals FIFO (front) from the
// first victim whose deque is not empty. Tasks form a DAG — a task may
// declare dependencies on earlier-submitted tasks, which is how the fleet
// splits the per-VM chain (build -> rootfs -> boot) into independently
// schedulable stages that overlap across VMs.
//
// The split-brain design is deliberate. Run() executes every task body once
// on real host threads (that is where kernels actually build and VMs
// actually boot — fibers are thread-local, so a body runs start-to-finish
// on one thread). But none of the *reported* figures come from that
// execution: each body returns its virtual cost, and a deterministic
// sequential replay (Simulate) then re-schedules those costs under the very
// same deque policy on W virtual workers. Makespan, per-worker busy time,
// steal counts, queue depths and per-task spans are therefore properties of
// the simulation — byte-identical run after run — and never of how many
// host cores this process happened to get or which thread won a race.
//
// Policy invariants shared by host execution and replay (keep in lockstep):
//   * initial ready tasks are pushed to their home deque in descending
//     submission order, so the owner pops them back-first in ascending
//     order — at one worker the schedule is exactly the legacy serial
//     order;
//   * a completed task's newly-ready children are pushed to the completing
//     worker's deque (locality);
//   * stealing takes the front-most task of the first non-empty victim.
#ifndef SRC_UTIL_SCHEDULER_H_
#define SRC_UTIL_SCHEDULER_H_

#include <functional>
#include <string>
#include <vector>

#include "src/util/units.h"

namespace lupine {

class WorkStealingScheduler {
 public:
  struct Options {
    size_t workers = 1;
    // false: a task never leaves the deque it was pushed to (the legacy
    // static shards, expressed as a degenerate policy of the same scheduler).
    bool stealing = true;
  };

  struct TaskSpec {
    // Host-side work. Runs exactly once, entirely on one worker thread
    // (fiber-safe), and returns the task's virtual cost. Must not throw.
    std::function<Nanos()> body;
    std::string label = {};  // For per-task spans / trace export.
    int home = 0;            // Deque the task is initially pushed to.
    // Earlier-submitted task ids that must complete first.
    std::vector<size_t> deps = {};
    // Virtual release (arrival) time: the replay will not dispatch the task
    // before this instant even when a worker is idle — how a request-driven
    // serving layer injects open-loop arrivals into the schedule. Host
    // execution ignores it (host wall time is not the virtual timeline);
    // bodies must not depend on it for ordering — use deps.
    Nanos release = 0;
  };

  explicit WorkStealingScheduler(Options options);

  // Submits a task; returns its id (the submission ordinal). The task set
  // is closed: all Submit calls happen before Run.
  size_t Submit(TaskSpec spec);

  struct TaskRecord {
    size_t id = 0;
    int worker = 0;       // Virtual worker the replay assigned.
    Nanos start = 0;      // Virtual instant the worker took the task.
    Nanos end = 0;
    bool stolen = false;  // Taken from another worker's deque.
    std::string label;
  };

  struct Report {
    Nanos makespan = 0;                    // Latest virtual completion.
    std::vector<Nanos> worker_busy;        // Sum of task costs per worker.
    std::vector<size_t> worker_queue_peak; // Max deque depth per worker.
    size_t steals = 0;                     // Replay-level migrations.
    std::vector<TaskRecord> tasks;         // Indexed by task id.
  };

  // Executes every body on `workers` host threads under the deque policy,
  // then replays the recorded costs deterministically. The returned report
  // is entirely replay-derived.
  Report Run();

  // The deterministic virtual-time replay, exposed for unit tests and for
  // schedules whose costs are known up front.
  struct SimTask {
    int home = 0;
    Nanos cost = 0;
    std::vector<size_t> deps = {};
    std::string label = {};
    Nanos release = 0;  // Earliest virtual dispatch instant (see TaskSpec).
  };
  static Report Simulate(const Options& options, const std::vector<SimTask>& tasks);

 private:
  Options options_;
  std::vector<TaskSpec> specs_;
};

}  // namespace lupine

#endif  // SRC_UTIL_SCHEDULER_H_
