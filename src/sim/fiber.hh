/**
 * @file
 * Stackful fibers (cooperative coroutines).
 *
 * Each simulated cell runs its SPMD program body on a fiber. The
 * event kernel resumes a fiber when its next action is due (a compute
 * delay elapsed, a flag reached its target, a barrier released); the
 * fiber yields back whenever it blocks. This is the classic
 * parallel-machine-simulator structure and keeps user-facing example
 * code straight-line.
 *
 * On x86-64 a switch is a user-level stack switch that saves the
 * callee-saved registers and the FP control words (fiber.cc), with
 * no system call; other architectures switch through ucontext.
 */

#ifndef AP_SIM_FIBER_HH
#define AP_SIM_FIBER_HH

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace ap::sim
{

/**
 * A cooperatively scheduled coroutine with its own stack.
 *
 * Only the scheduler may call resume(); only code running on the
 * fiber may call Fiber::yield(). A fiber whose body returned is
 * finished and must not be resumed again.
 */
class Fiber
{
  public:
    /** Default stack size; generous because app kernels recurse. */
    static constexpr std::size_t default_stack_size = 256 * 1024;

    /**
     * Create a fiber that will run @p body on first resume.
     * @param body the coroutine body
     * @param stack_size private stack size in bytes
     */
    explicit Fiber(std::function<void()> body,
                   std::size_t stack_size = default_stack_size);

    ~Fiber();

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /** Switch from the scheduler into the fiber until it yields. */
    void resume();

    /** Switch from the running fiber back to the scheduler. */
    static void yield();

    /** @return the fiber currently executing, or nullptr. */
    static Fiber *current();

    /** @return true once the body has returned. */
    bool finished() const { return done; }

  private:
    /** First code run on the fiber stack. noexcept: an exception
     *  escaping the body calls std::terminate here instead of
     *  unwinding into the frame that started the fiber. */
    static void trampoline() noexcept;

#if defined(__x86_64__)
    /** A suspended context is its saved stack pointer; the registers
     *  it needs sit on that stack (see fiber.cc). */
    using Context = void *;
#else
    using Context = ucontext_t;
#endif

    std::function<void()> body;
    /** Default-initialized (never memset): the bootstrap frame needs
     *  no zeroed stack, and value-initializing 256 KB per fiber used
     *  to dominate short SPMD runs. */
    std::size_t stackBytes;
    std::unique_ptr<unsigned char[]> stack;
    /** The fiber while it is suspended. */
    Context context{};
    /** The resumer while the fiber runs. */
    Context schedulerContext{};
    bool started = false;
    bool done = false;
    /** ThreadSanitizer fiber-context handles; null outside TSan
     *  builds (see the annotation block in fiber.cc). */
    void *tsanFiber = nullptr;
    void *tsanCaller = nullptr;
    /** AddressSanitizer fake-stack handle + resumer stack bounds;
     *  unused outside ASan builds (see fiber.cc). Without these
     *  annotations ASan leaves stale redzone poison on a fiber stack
     *  after an exception unwinds across it, and a later frame at the
     *  same depth trips a phantom stack-buffer-overflow. */
    void *asanFake = nullptr;
    const void *asanCallerBottom = nullptr;
    std::size_t asanCallerSize = 0;
};

} // namespace ap::sim

#endif // AP_SIM_FIBER_HH
