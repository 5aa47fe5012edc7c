#include "sim/fiber.hh"

#include <cstddef>
#include <cstdint>
#include <new>

#include "base/logging.hh"

// ThreadSanitizer must be told about fiber switches: without the
// fiber annotations it sees one OS thread's shadow stack jumping
// between unrelated stacks and reports phantom races. Worker threads
// of the sharded kernel resume cell fibers, so the TSan CI job runs
// fiber-based workloads through these hooks.
#if defined(__SANITIZE_THREAD__)
#define AP_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define AP_TSAN_FIBERS 1
#endif
#endif

#ifdef AP_TSAN_FIBERS
extern "C" {
void *__tsan_get_current_fiber(void);
void *__tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void *fiber);
void __tsan_switch_to_fiber(void *fiber, unsigned flags);
}
#endif

// AddressSanitizer likewise needs the switches announced: it keeps
// one fake stack + poison map per stack region, and an exception
// unwinding across an unannounced fiber switch unpoisons the
// wrong region — leaving stale redzones on the fiber stack that a
// later frame at the same depth trips over as a phantom
// stack-buffer-overflow.
#if defined(__SANITIZE_ADDRESS__)
#define AP_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define AP_ASAN_FIBERS 1
#endif
#endif

#ifdef AP_ASAN_FIBERS
extern "C" {
void __sanitizer_start_switch_fiber(void **fake_stack_save,
                                    const void *bottom,
                                    std::size_t size);
void __sanitizer_finish_switch_fiber(void *fake_stack_save,
                                     const void **bottom_old,
                                     std::size_t *size_old);
}
#endif

#if defined(__x86_64__)
// The x86-64 switch: save what the SysV ABI says a call preserves --
// rbx, rbp, r12-r15 and the MXCSR / x87 control words -- on the
// current stack, store the stack pointer to *save, load the other
// context's stack pointer and pop its registers. The caller-saved
// registers are dead across the call by the ABI, so nothing else
// needs saving. Unlike swapcontext there is no signal-mask system
// call (nothing in the program changes the mask per fiber), and of
// the FP environment only the control words travel with a context:
// the ABI makes the status flags caller-saved. The final `ret` enters
// a fresh stack the CPU's shadow stack has never seen, so this file
// is built without shadow-stack support (src/sim/CMakeLists.txt).
//
// Frame layout, low to high: x87 control word at +0, MXCSR at +8,
// then r15 r14 r13 r12 rbx rbp, then the return address.
extern "C" void ap_fiber_switch(void **save, void *load);
asm(R"(
    .pushsection .text
    .globl ap_fiber_switch
    .hidden ap_fiber_switch
    .type ap_fiber_switch, @function
    .p2align 4
ap_fiber_switch:
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
    .size ap_fiber_switch, .-ap_fiber_switch
    .popsection
)");
#endif

namespace ap::sim
{

namespace
{

thread_local Fiber *current_fiber = nullptr;

#if defined(__x86_64__)
/** What ap_fiber_switch pops on the first switch into a fiber. */
struct BootstrapFrame
{
    std::uint16_t fpuControl;
    alignas(8) std::uint32_t mxcsr;
    alignas(8) std::uint64_t regs[6]; // r15 r14 r13 r12 rbx rbp: zero
    void (*entry)() noexcept;
    /** The entry's return address: null ends backtraces (the entry
     *  never returns). */
    void *end;
};
static_assert(offsetof(BootstrapFrame, mxcsr) == 8 &&
              offsetof(BootstrapFrame, regs) == 16 &&
              sizeof(BootstrapFrame) == 80);

/**
 * Build the bootstrap frame at the top of [stack, stack + bytes) and
 * return it as the fiber's saved stack pointer. The return-address
 * slot sits 16-byte aligned, so @p entry starts with the stack
 * pointer at 8 mod 16, as after a call. The FP control words are
 * copied from the calling thread, as getcontext would.
 */
void *
bootstrap(unsigned char *stack, std::size_t bytes, void (*entry)() noexcept)
{
    auto top = reinterpret_cast<std::uintptr_t>(stack + bytes) &
               ~std::uintptr_t{15};
    auto *frame = new (reinterpret_cast<void *>(
        top - sizeof(BootstrapFrame))) BootstrapFrame{};
    asm("stmxcsr %0\n\tfnstcw %1"
        : "=m"(frame->mxcsr), "=m"(frame->fpuControl));
    frame->entry = entry;
    return frame;
}

// Always inlined: under TSan nothing instrumented may run between
// __tsan_switch_to_fiber and the stack switch.
[[gnu::always_inline]] inline void
switch_context(void **from, void **to)
{
    ap_fiber_switch(from, *to);
}
#else
[[gnu::always_inline]] inline void
switch_context(ucontext_t *from, ucontext_t *to)
{
    if (swapcontext(from, to) != 0)
        panic("swapcontext failed");
}
#endif

#ifdef AP_ASAN_FIBERS
/**
 * Stacks of abandoned (unfinished) fibers, kept alive forever in
 * ASan builds. A parked fiber's frames never run their destructors,
 * so objects referenced only from such a stack would be reported as
 * leaks once the stack buffer is freed — but they are abandoned by
 * design (deadlock tests park fibers on purpose). Keeping the bytes
 * reachable lets the leak scanner follow the references instead of
 * flagging them. Leaky singleton: LSan runs at exit, so this must
 * never be destroyed.
 */
std::vector<std::unique_ptr<unsigned char[]>> &
abandoned_stacks()
{
    static auto *stacks =
        new std::vector<std::unique_ptr<unsigned char[]>>;
    return *stacks;
}
#endif

} // namespace

Fiber::Fiber(std::function<void()> body, std::size_t stack_size)
    : body(std::move(body)), stackBytes(stack_size),
      stack(new unsigned char[stack_size])
{
}

Fiber::~Fiber()
{
    if (started && !done) {
        warn("destroying unfinished fiber; its stack is abandoned");
#ifdef AP_ASAN_FIBERS
        abandoned_stacks().push_back(std::move(stack));
#endif
    }
#ifdef AP_TSAN_FIBERS
    if (tsanFiber)
        __tsan_destroy_fiber(tsanFiber);
#endif
}

Fiber *
Fiber::current()
{
    return current_fiber;
}

void
Fiber::trampoline() noexcept
{
    Fiber *self = current_fiber;
#ifdef AP_ASAN_FIBERS
    // First time on this stack: no fake stack to restore (nullptr);
    // record the resumer's stack bounds for the switch back.
    __sanitizer_finish_switch_fiber(nullptr, &self->asanCallerBottom,
                                    &self->asanCallerSize);
#endif
    self->body();
    self->done = true;
    // Final switch back to the resumer; this function never returns.
    // Under TSan nothing instrumented may run between
    // __tsan_switch_to_fiber and the stack switch.
#ifdef AP_TSAN_FIBERS
    __tsan_switch_to_fiber(self->tsanCaller, 0);
#endif
#ifdef AP_ASAN_FIBERS
    // Dying fiber: a null save slot tells ASan to free its fake
    // stack rather than park it for a resume that never comes.
    __sanitizer_start_switch_fiber(nullptr, self->asanCallerBottom,
                                   self->asanCallerSize);
#endif
    switch_context(&self->context, &self->schedulerContext);
}

void
Fiber::resume()
{
    if (done)
        panic("resuming a finished fiber");
    if (current_fiber)
        panic("nested fiber resume (fibers must not resume fibers)");

    current_fiber = this;
    if (!started) {
        started = true;
#if defined(__x86_64__)
        context = bootstrap(stack.get(), stackBytes, &trampoline);
#else
        if (getcontext(&context) != 0)
            panic("getcontext failed");
        context.uc_stack.ss_sp = stack.get();
        context.uc_stack.ss_size = stackBytes;
        makecontext(&context, reinterpret_cast<void (*)()>(&trampoline),
                    0);
#endif
#ifdef AP_TSAN_FIBERS
        tsanFiber = __tsan_create_fiber(0);
#endif
    }
#ifdef AP_TSAN_FIBERS
    tsanCaller = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsanFiber, 0);
#endif
#ifdef AP_ASAN_FIBERS
    void *fake = nullptr;
    __sanitizer_start_switch_fiber(&fake, stack.get(), stackBytes);
#endif
    switch_context(&schedulerContext, &context);
#ifdef AP_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#endif
    current_fiber = nullptr;
}

void
Fiber::yield()
{
    Fiber *self = current_fiber;
    if (!self)
        panic("Fiber::yield called outside a fiber");
#ifdef AP_TSAN_FIBERS
    __tsan_switch_to_fiber(self->tsanCaller, 0);
#endif
#ifdef AP_ASAN_FIBERS
    __sanitizer_start_switch_fiber(&self->asanFake,
                                   self->asanCallerBottom,
                                   self->asanCallerSize);
#endif
    switch_context(&self->context, &self->schedulerContext);
#ifdef AP_ASAN_FIBERS
    // Back on the fiber: restore its fake stack and refresh the
    // resumer bounds — the sharded kernel may resume from a
    // different worker thread each time.
    __sanitizer_finish_switch_fiber(self->asanFake,
                                    &self->asanCallerBottom,
                                    &self->asanCallerSize);
#endif
}

} // namespace ap::sim
