// Stackful cooperative fibers.
//
// Guest threads in src/guestos are fibers: the guest scheduler decides which
// fiber runs, and a fiber gives up the CPU only at simulated blocking points
// (syscalls, futex waits, ...). Running everything on one host thread keeps
// the simulation fully deterministic and lets experiments spawn thousands of
// guest processes (Figs. 11-12 sweep to 1024+) with small, fixed-size stacks.
//
// On x86-64 a switch saves only what the ABI makes callee-saved (rbx, rbp,
// r12-r15, rsp, MXCSR and the x87 control word) and never touches the signal
// mask; other targets fall back to ucontext. Under ThreadSanitizer every
// switch is announced with the __tsan_*_fiber annotations.
#ifndef SRC_UTIL_FIBER_H_
#define SRC_UTIL_FIBER_H_

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace lupine {

class Fiber {
 public:
  using Entry = std::function<void()>;

  // Default stack: plenty for app models; tiny versus pthread's 8 MiB.
  static constexpr size_t kDefaultStackSize = 256 * 1024;

  explicit Fiber(Entry entry, size_t stack_size = kDefaultStackSize);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  // Runs the fiber until it yields or returns. Must be called from outside
  // any fiber (the scheduler context) or from another fiber.
  void Resume();

  // Yields from inside the currently running fiber back to its resumer.
  static void Yield();

  bool finished() const { return finished_; }
  bool running() const { return running_; }

 private:
  static void Trampoline();
  // Saves this fiber's context and continues its resumer.
  void SwitchToResumer();

  Entry entry_;
  std::unique_ptr<char[]> stack_;
  size_t stack_size_;
#if defined(__x86_64__)
  void* sp_ = nullptr;          // Saved stack pointer while suspended.
  void* resumer_sp_ = nullptr;  // The resumer's, while running.
#else
  ucontext_t context_;
  ucontext_t return_context_;
#endif
#if defined(__SANITIZE_THREAD__)
  void* tsan_fiber_ = nullptr;
  void* tsan_resumer_ = nullptr;
#endif
  bool started_ = false;
  bool finished_ = false;
  bool running_ = false;
};

}  // namespace lupine

#endif  // SRC_UTIL_FIBER_H_
