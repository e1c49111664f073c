#include "src/util/fiber.h"

#include <cassert>
#include <cstdint>

#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__x86_64__)
extern "C" {
// Pushes rbp, rbx, r12-r15, MXCSR and the x87 control word on the current
// stack, stores the stack pointer in *from_sp, then pops the same from to_sp
// and returns into the context saved there.
void lupine_fiber_switch(void** from_sp, void* to_sp);
// Saves the current context as lupine_fiber_switch does, then calls entry()
// on the empty stack ending at the 16-byte aligned stack_top. entry() must
// never return.
void lupine_fiber_start(void** from_sp, void* stack_top, void (*entry)());
}

asm(R"(
  .text
  .p2align 4
  .globl lupine_fiber_switch
  .hidden lupine_fiber_switch
  .type lupine_fiber_switch, @function
lupine_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  stmxcsr 8(%rsp)
  fnstcw (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr 8(%rsp)
  fldcw (%rsp)
  addq $16, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size lupine_fiber_switch, .-lupine_fiber_switch

  .p2align 4
  .globl lupine_fiber_start
  .hidden lupine_fiber_start
  .type lupine_fiber_start, @function
lupine_fiber_start:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  stmxcsr 8(%rsp)
  fnstcw (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  xorl %ebp, %ebp
  callq *%rdx
  ud2
  .size lupine_fiber_start, .-lupine_fiber_start
)");
#endif

namespace lupine {
namespace {

// The fiber currently executing on this host thread (nullptr in scheduler
// context). Also used to hand the Fiber* into the trampoline, which takes no
// arguments.
thread_local Fiber* g_current_fiber = nullptr;

}  // namespace

Fiber::Fiber(Entry entry, size_t stack_size)
    : entry_(std::move(entry)),
      stack_(new char[stack_size]),
      stack_size_(stack_size) {
#if defined(__SANITIZE_THREAD__)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  // Destroying a suspended (started, unfinished) fiber leaks whatever its
  // stack owned; the guest kernel only destroys fibers after exit or via
  // explicit kill, where leak-free teardown is not required for simulation
  // correctness.
  assert(!running_ && "cannot destroy a running fiber");
#if defined(__SANITIZE_THREAD__)
  __tsan_destroy_fiber(tsan_fiber_);
#endif
}

void Fiber::Trampoline() {
  Fiber* self = g_current_fiber;
  assert(self != nullptr);
  self->entry_();
  self->finished_ = true;
  self->SwitchToResumer();  // Never resumed again.
}

void Fiber::Resume() {
  assert(!finished_ && "cannot resume a finished fiber");
  assert(!running_ && "fiber is already running");
  Fiber* previous = g_current_fiber;
  g_current_fiber = this;
  running_ = true;
  const bool first = !started_;
  started_ = true;
#if !defined(__x86_64__)
  if (first) {
    getcontext(&context_);
    context_.uc_stack.ss_sp = stack_.get();
    context_.uc_stack.ss_size = stack_size_;
    context_.uc_link = nullptr;
    makecontext(&context_, &Fiber::Trampoline, 0);
  }
#endif
#if defined(__SANITIZE_THREAD__)
  tsan_resumer_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#if defined(__x86_64__)
  if (first) {
    auto top = reinterpret_cast<std::uintptr_t>(stack_.get() + stack_size_) & ~std::uintptr_t{15};
    lupine_fiber_start(&resumer_sp_, reinterpret_cast<void*>(top), &Fiber::Trampoline);
  } else {
    lupine_fiber_switch(&resumer_sp_, sp_);
  }
#else
  swapcontext(&return_context_, &context_);
#endif
  running_ = false;
  g_current_fiber = previous;
}

void Fiber::SwitchToResumer() {
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(tsan_resumer_, 0);
#endif
#if defined(__x86_64__)
  lupine_fiber_switch(&sp_, resumer_sp_);
#else
  swapcontext(&context_, &return_context_);
#endif
}

void Fiber::Yield() {
  Fiber* self = g_current_fiber;
  assert(self != nullptr && "Yield called outside any fiber");
  self->SwitchToResumer();
}

}  // namespace lupine
