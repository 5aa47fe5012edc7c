/**
 * @file
 * Unit tests of fibers, processes and conditions.
 */

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/fiber.hh"
#include "sim/process.hh"

using namespace ap;
using namespace ap::sim;

TEST(Fiber, RunsBodyOnResume)
{
    bool ran = false;
    Fiber f([&]() { ran = true; });
    EXPECT_FALSE(ran);
    f.resume();
    EXPECT_TRUE(ran);
    EXPECT_TRUE(f.finished());
}

TEST(Fiber, YieldSuspendsAndResumes)
{
    std::vector<int> order;
    Fiber f([&]() {
        order.push_back(1);
        Fiber::yield();
        order.push_back(3);
    });
    f.resume();
    order.push_back(2);
    f.resume();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(f.finished());
}

TEST(Fiber, CurrentTracksRunningFiber)
{
    Fiber *seen = nullptr;
    Fiber f([&]() { seen = Fiber::current(); });
    EXPECT_EQ(Fiber::current(), nullptr);
    f.resume();
    EXPECT_EQ(seen, &f);
    EXPECT_EQ(Fiber::current(), nullptr);
}

// The switch contract: what a fiber may rely on across resume/yield,
// whichever context switch the platform builds with.

TEST(Fiber, FloatingPointControlStateIsPerFiber)
{
    const int outer = std::fegetround();
    ASSERT_EQ(outer, FE_TONEAREST);
    int beforeYield = -1;
    int afterResume = -1;
    Fiber f([&]() {
        std::fesetround(FE_UPWARD);
        beforeYield = std::fegetround();
        Fiber::yield();
        afterResume = std::fegetround();
        std::fesetround(FE_TONEAREST);
    });
    f.resume();
    EXPECT_EQ(beforeYield, FE_UPWARD);
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
    f.resume();
    EXPECT_EQ(afterResume, FE_UPWARD);
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
    EXPECT_TRUE(f.finished());
}

namespace
{

/** Address of a 16-byte aligned local, laundered through a volatile
 *  so the compiler cannot fold the alignment check to true. */
[[gnu::noinline]] std::uintptr_t
aligned_local_address()
{
    alignas(16) unsigned char local[16] = {};
    volatile std::uintptr_t addr = reinterpret_cast<std::uintptr_t>(local);
    return addr;
}

/** Formats on the current stack; vararg double formatting spills
 *  SSE registers with aligned stores. */
[[gnu::noinline]] std::string
format_on_stack(double x)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", x);
    return buf;
}

/** Recurses until the frames in use span @p target bytes below
 *  @p base; returns the depth reached. */
[[gnu::noinline]] int
recurse_until(std::uintptr_t base, std::size_t target, int depth)
{
    volatile unsigned char frame[512];
    frame[0] = 1;
    auto here =
        reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
    if (base - here >= target)
        return depth;
    int reached = recurse_until(base, target, depth + 1);
    frame[1] = frame[0]; // keeps this frame live: no tail call
    return reached;
}

} // namespace

TEST(Fiber, StackIsSixteenByteAligned)
{
    volatile std::uintptr_t entryAddr = 1;
    std::uintptr_t nestedAddr = 1;
    std::string formatted;
    Fiber f([&]() {
        alignas(16) unsigned char local[16] = {};
        entryAddr = reinterpret_cast<std::uintptr_t>(local);
        nestedAddr = aligned_local_address();
        formatted = format_on_stack(3.14159);
    });
    f.resume();
    EXPECT_EQ(entryAddr % 16, 0u);
    EXPECT_EQ(nestedAddr % 16, 0u);
    EXPECT_EQ(formatted, "3.142");
}

TEST(Fiber, ResumesFromAnotherThread)
{
    std::vector<Fiber *> seen;
    std::vector<std::thread::id> threads;
    Fiber f([&]() {
        for (int i = 0; i < 3; ++i) {
            seen.push_back(Fiber::current());
            threads.push_back(std::this_thread::get_id());
            if (i < 2)
                Fiber::yield();
        }
    });
    f.resume();
    Fiber *afterOnWorker = &f;
    std::thread::id worker;
    std::thread t([&]() {
        worker = std::this_thread::get_id();
        f.resume();
        afterOnWorker = Fiber::current();
    });
    t.join();
    EXPECT_EQ(Fiber::current(), nullptr);
    f.resume();
    EXPECT_EQ(Fiber::current(), nullptr);
    EXPECT_EQ(afterOnWorker, nullptr);
    ASSERT_TRUE(f.finished());
    EXPECT_EQ(seen, (std::vector<Fiber *>{&f, &f, &f}));
    const auto main = std::this_thread::get_id();
    EXPECT_EQ(threads, (std::vector<std::thread::id>{main, worker, main}));
}

TEST(Fiber, LiveLocalsSurviveInterleaving)
{
    constexpr int fibers = 1000;
    constexpr int yields = 100;
    // The same mixing as the fiber body below, run without fibers.
    auto mix = [](std::uint64_t a, std::uint64_t b, std::uint64_t c,
                  std::uint64_t d, int step) {
        return ((a * 31 + b) ^ (c << 3)) + d * 7 +
               static_cast<std::uint64_t>(step);
    };
    std::uint64_t expect = 0;
    for (int i = 0; i < fibers; ++i) {
        std::uint64_t a = i, b = i * 3 + 1, c = i ^ 0x5a5a, d = 17;
        for (int y = 0; y < yields; ++y) {
            a = mix(a, b, c, d, y);
            b += a >> 7;
            c ^= b * 13;
            d = d * 5 + (a & 0xff);
        }
        expect += a ^ b ^ c ^ d;
    }

    std::vector<std::uint64_t> results(fibers);
    std::vector<std::unique_ptr<Fiber>> fs;
    for (int i = 0; i < fibers; ++i) {
        fs.push_back(std::make_unique<Fiber>(
            [&results, &mix, i]() {
                std::uint64_t a = i, b = i * 3 + 1, c = i ^ 0x5a5a, d = 17;
                for (int y = 0; y < yields; ++y) {
                    Fiber::yield();
                    a = mix(a, b, c, d, y);
                    b += a >> 7;
                    c ^= b * 13;
                    d = d * 5 + (a & 0xff);
                }
                results[static_cast<std::size_t>(i)] = a ^ b ^ c ^ d;
            },
            64 * 1024));
    }
    for (int round = 0; round <= yields; ++round)
        for (auto &f : fs)
            f->resume();
    std::uint64_t got = 0;
    for (int i = 0; i < fibers; ++i) {
        ASSERT_TRUE(fs[static_cast<std::size_t>(i)]->finished()) << i;
        got += results[static_cast<std::size_t>(i)];
    }
    EXPECT_EQ(got, expect);
}

TEST(Fiber, DeepRecursionUsesMostOfTheStack)
{
    const std::size_t target = Fiber::default_stack_size * 3 / 4;
    int depth = 0;
    Fiber f([&]() {
        auto base =
            reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
        depth = recurse_until(base, target, 0);
    });
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_GT(depth, 0);
}

TEST(FiberDeathTest, ExceptionEscapingBodyTerminates)
{
    EXPECT_DEATH(
        {
            Fiber f([]() { throw std::runtime_error("escaped"); });
            f.resume();
        },
        "");
}

TEST(Process, DelayAdvancesSimulatedTime)
{
    Simulator sim;
    Tick seen = 0;
    Process p(sim, "p", [&](Process &self) {
        self.delay(100);
        seen = sim.now();
        self.delay(50);
    });
    p.start(0);
    sim.run();
    EXPECT_EQ(seen, 100u);
    EXPECT_EQ(sim.now(), 150u);
    EXPECT_TRUE(p.finished());
    EXPECT_EQ(p.delayed_ticks(), 150u);
}

TEST(Process, WaitBlocksUntilNotify)
{
    Simulator sim;
    Condition cond;
    bool woke = false;
    Process waiter(sim, "waiter", [&](Process &self) {
        self.wait(cond);
        woke = true;
    });
    Process notifier(sim, "notifier", [&](Process &self) {
        self.delay(500);
        cond.notify_all();
    });
    waiter.start(0);
    notifier.start(0);
    sim.run();
    EXPECT_TRUE(woke);
    EXPECT_EQ(sim.now(), 500u);
    EXPECT_EQ(waiter.blocked_ticks(), 500u);
}

TEST(Process, NotifyWakesAllWaitersInOrder)
{
    Simulator sim;
    Condition cond;
    std::vector<int> order;
    std::vector<std::unique_ptr<Process>> procs;
    for (int i = 0; i < 4; ++i) {
        procs.push_back(std::make_unique<Process>(
            sim, "w", [&, i](Process &self) {
                self.wait(cond);
                order.push_back(i);
            }));
        procs.back()->start(0);
    }
    Process kicker(sim, "k", [&](Process &self) {
        self.delay(10);
        cond.notify_all();
    });
    kicker.start(0);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Process, UnfinishedProcessDetectable)
{
    Simulator sim;
    Condition never;
    Process p(sim, "stuck", [&](Process &self) { self.wait(never); });
    p.start(0);
    sim.run();
    EXPECT_FALSE(p.finished());
    EXPECT_TRUE(p.blocked());
}

TEST(Process, TwoProcessesInterleaveDeterministically)
{
    Simulator sim;
    std::vector<std::pair<int, Tick>> log;
    Process a(sim, "a", [&](Process &self) {
        for (int i = 0; i < 3; ++i) {
            log.emplace_back(0, sim.now());
            self.delay(10);
        }
    });
    Process b(sim, "b", [&](Process &self) {
        for (int i = 0; i < 3; ++i) {
            log.emplace_back(1, sim.now());
            self.delay(15);
        }
    });
    a.start(0);
    b.start(0);
    sim.run();
    std::vector<std::pair<int, Tick>> expect = {
        {0, 0}, {1, 0}, {0, 10}, {1, 15}, {0, 20}, {1, 30},
    };
    EXPECT_EQ(log, expect);
}
