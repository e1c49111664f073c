#include "calibrate.h"

#include <ucontext.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace lupine::perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A ping-pong partner for glibc swapcontext (the simulator's fibers switch
// the same way, a sigprocmask syscall per switch).
struct PingPong {
  ucontext_t caller{};
  ucontext_t callee{};
  bool stop = false;
  std::vector<char> stack = std::vector<char>(64 * 1024);
};
thread_local PingPong* current = nullptr;

void PingPongEntry() {
  PingPong* pp = current;
  while (!pp->stop) {
    swapcontext(&pp->callee, &pp->caller);
  }
}

// Context switches through glibc swapcontext, as the simulator's fibers do.
// Kept out of Kernel(): nothing live across getcontext but `pp`.
void SwitchContexts(int switches) {
  PingPong pp;
  current = &pp;
  getcontext(&pp.callee);
  pp.callee.uc_stack.ss_sp = pp.stack.data();
  pp.callee.uc_stack.ss_size = pp.stack.size();
  pp.callee.uc_link = &pp.caller;
  makecontext(&pp.callee, PingPongEntry, 0);
  for (int i = 0; i < switches; ++i) {
    swapcontext(&pp.caller, &pp.callee);
  }
  pp.stop = true;
  swapcontext(&pp.caller, &pp.callee);  // Let the entry return.
  current = nullptr;
}

// The work mix of the simulator's hot paths, on its own code: ordered-map
// lookups handing out shared_ptr copies, string building and hashing, small
// allocations and context switches.
uint64_t Kernel() {
  uint64_t acc = 0;
  std::map<int, std::shared_ptr<std::string>> table;
  for (int i = 0; i < 3000; ++i) {
    table.emplace(i * 7919 % 10007, std::make_shared<std::string>(48, 'a' + i % 26));
  }
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 3000; ++i) {
      if (auto it = table.find(i * 31 % 10007); it != table.end()) {
        std::shared_ptr<std::string> copy = it->second;
        acc += copy->size();
      }
    }
  }
  std::string text;
  for (int i = 0; i < 3000; ++i) {
    text += std::to_string(i);
  }
  acc += std::hash<std::string>{}(text);
  SwitchContexts(1500);
  return acc;
}

std::atomic<uint64_t> sink{0};  // Keeps the kernel's work observable.

}  // namespace

int64_t MeasureCalibrationNs(size_t threads) {
  auto timed_kernel = [] {
    const int64_t t0 = NowNs();
    sink.fetch_add(Kernel(), std::memory_order_relaxed);
    return NowNs() - t0;
  };
  if (threads <= 1) {
    return timed_kernel();
  }
  std::vector<int64_t> ns(threads);
  {
    std::vector<std::jthread> pool;  // Joined when it goes out of scope.
    for (size_t i = 0; i < threads; ++i) {
      pool.emplace_back([&ns, &timed_kernel, i] { ns[i] = timed_kernel(); });
    }
  }
  int64_t total = 0;
  for (int64_t n : ns) {
    total += n;
  }
  return total / static_cast<int64_t>(threads);
}

}  // namespace lupine::perfbench
