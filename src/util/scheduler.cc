#include "src/util/scheduler.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <queue>
#include <thread>

namespace lupine {
namespace {

// Pops a runnable task for `w` under the shared deque policy: own deque
// back-first, then (stealing on) the front-most task of the first non-empty
// victim, scanning (w+1) % W onwards. Returns the task id or SIZE_MAX; sets
// *stolen when the task came from another deque.
size_t TakeTask(std::vector<std::deque<size_t>>& deques, size_t w, bool stealing,
                bool* stolen) {
  *stolen = false;
  if (!deques[w].empty()) {
    size_t id = deques[w].back();
    deques[w].pop_back();
    return id;
  }
  if (!stealing) {
    return SIZE_MAX;
  }
  const size_t workers = deques.size();
  for (size_t step = 1; step < workers; ++step) {
    std::deque<size_t>& victim = deques[(w + step) % workers];
    if (!victim.empty()) {
      size_t id = victim.front();
      victim.pop_front();
      *stolen = true;
      return id;
    }
  }
  return SIZE_MAX;
}

}  // namespace

WorkStealingScheduler::WorkStealingScheduler(Options options) : options_(options) {
  if (options_.workers == 0) {
    options_.workers = 1;
  }
}

size_t WorkStealingScheduler::Submit(TaskSpec spec) {
  specs_.push_back(std::move(spec));
  return specs_.size() - 1;
}

WorkStealingScheduler::Report WorkStealingScheduler::Run() {
  const size_t workers = options_.workers;
  const size_t total = specs_.size();

  // --- Host execution: run every body once, harvesting virtual costs. ----
  // The deque policy here mirrors the replay so wall-clock overlap looks
  // like the reported schedule, but nothing measured here is reported.
  std::vector<Nanos> costs(total, 0);
  {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::deque<size_t>> deques(workers);
    std::vector<size_t> pending(total, 0);
    std::vector<std::vector<size_t>> children(total);
    for (size_t i = 0; i < total; ++i) {
      pending[i] = specs_[i].deps.size();
      for (size_t dep : specs_[i].deps) {
        children[dep].push_back(i);
      }
    }
    // Descending push: the owner pops back-first, i.e. in ascending order.
    for (size_t i = total; i-- > 0;) {
      if (pending[i] == 0) {
        deques[static_cast<size_t>(specs_[i].home) % workers].push_back(i);
      }
    }
    size_t completed = 0;

    auto worker_loop = [&](size_t w) {
      std::unique_lock lock(mu);
      for (;;) {
        bool stolen = false;  // Steals are counted by the replay, not here.
        size_t id = TakeTask(deques, w, options_.stealing, &stolen);
        if (id == SIZE_MAX) {
          if (completed == total) {
            return;
          }
          cv.wait(lock);
          continue;
        }
        lock.unlock();
        const Nanos cost = specs_[id].body ? specs_[id].body() : 0;
        lock.lock();
        costs[id] = cost;
        ++completed;
        // Ready children land on this worker's deque (locality); descending
        // id so the owner pops ascending.
        std::vector<size_t> ready;
        for (size_t child : children[id]) {
          if (--pending[child] == 0) {
            ready.push_back(child);
          }
        }
        std::sort(ready.begin(), ready.end(), std::greater<size_t>());
        for (size_t child : ready) {
          deques[w].push_back(child);
        }
        cv.notify_all();
      }
    };

    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      threads.emplace_back(worker_loop, w);
    }
    for (auto& thread : threads) {
      thread.join();
    }
  }

  // --- Deterministic replay over the recorded costs. ----------------------
  std::vector<SimTask> sim(total);
  for (size_t i = 0; i < total; ++i) {
    sim[i] = {specs_[i].home, costs[i], specs_[i].deps, specs_[i].label, specs_[i].release};
  }
  return Simulate(options_, sim);
}

WorkStealingScheduler::Report WorkStealingScheduler::Simulate(
    const Options& options_in, const std::vector<SimTask>& tasks) {
  Options options = options_in;
  if (options.workers == 0) {
    options.workers = 1;
  }
  const size_t workers = options.workers;
  const size_t total = tasks.size();

  Report report;
  report.worker_busy.assign(workers, 0);
  report.worker_queue_peak.assign(workers, 0);
  report.tasks.resize(total);

  std::vector<std::deque<size_t>> deques(workers);
  std::vector<size_t> pending(total, 0);
  std::vector<std::vector<size_t>> children(total);
  for (size_t i = 0; i < total; ++i) {
    pending[i] = tasks[i].deps.size();
    for (size_t dep : tasks[i].deps) {
      children[dep].push_back(i);
    }
  }

  auto note_depth = [&](size_t w) {
    report.worker_queue_peak[w] = std::max(report.worker_queue_peak[w], deques[w].size());
  };

  // Tasks whose deps are satisfied but whose release instant is still in the
  // future wait here instead of in a deque: a worker must not dispatch a
  // request before it arrives. Ordered by (release, id) so same-instant
  // arrivals enter their deques in submission order.
  struct PendingRelease {
    Nanos at = 0;
    size_t task = 0;
    bool operator>(const PendingRelease& other) const {
      return at != other.at ? at > other.at : task > other.task;
    }
  };
  std::priority_queue<PendingRelease, std::vector<PendingRelease>, std::greater<PendingRelease>>
      releases;

  auto drain_releases = [&](Nanos now) {
    while (!releases.empty() && releases.top().at <= now) {
      const size_t id = releases.top().task;
      releases.pop();
      const size_t target = static_cast<size_t>(tasks[id].home) % workers;
      deques[target].push_back(id);
      note_depth(target);
    }
  };

  for (size_t i = total; i-- > 0;) {
    if (pending[i] == 0) {
      if (tasks[i].release > 0) {
        releases.push({tasks[i].release, i});
        continue;
      }
      const size_t target = static_cast<size_t>(tasks[i].home) % workers;
      deques[target].push_back(i);
      note_depth(target);
    }
  }

  // Completion events ordered by (time, worker): the only source of
  // nondeterminism in a parallel schedule, made total here.
  struct Event {
    Nanos time = 0;
    size_t worker = 0;
    size_t task = 0;
    bool operator>(const Event& other) const {
      return time != other.time ? time > other.time : worker > other.worker;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
  std::vector<bool> busy(workers, false);

  auto dispatch_idle = [&](Nanos now) {
    // Keep handing tasks to idle workers in worker order until nothing
    // moves: a steal can expose work another idle worker then takes.
    bool progress = true;
    while (progress) {
      progress = false;
      for (size_t w = 0; w < workers; ++w) {
        if (busy[w]) {
          continue;
        }
        bool stolen = false;
        const size_t id = TakeTask(deques, w, options.stealing, &stolen);
        if (id == SIZE_MAX) {
          continue;
        }
        const Nanos end = now + tasks[id].cost;
        report.tasks[id] = {id, static_cast<int>(w), now, end, stolen, tasks[id].label};
        if (stolen) {
          ++report.steals;
        }
        report.worker_busy[w] += tasks[id].cost;
        busy[w] = true;
        events.push({end, w, id});
        progress = true;
      }
    }
  };

  dispatch_idle(0);
  while (!events.empty() || !releases.empty()) {
    // All workers idle before the next completion: jump to the next release
    // (the fleet between request arrivals).
    if (events.empty() ||
        (!releases.empty() && releases.top().at < events.top().time)) {
      const Nanos now = releases.top().at;
      drain_releases(now);
      dispatch_idle(now);
      continue;
    }
    const Event event = events.top();
    events.pop();
    busy[event.worker] = false;
    report.makespan = std::max(report.makespan, event.time);
    std::vector<size_t> ready;
    for (size_t child : children[event.task]) {
      if (--pending[child] == 0) {
        ready.push_back(child);
      }
    }
    std::sort(ready.begin(), ready.end(), std::greater<size_t>());
    for (size_t child : ready) {
      if (tasks[child].release > event.time) {
        releases.push({tasks[child].release, child});
        continue;
      }
      deques[event.worker].push_back(child);
      note_depth(event.worker);
    }
    drain_releases(event.time);
    dispatch_idle(event.time);
  }
  return report;
}

}  // namespace lupine
