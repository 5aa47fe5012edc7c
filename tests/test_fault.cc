/**
 * @file
 * Unit tests of the fault-injection subsystem.
 *
 * Covers the FaultPlan presets, the injector's determinism and
 * per-mechanism RNG stream isolation, the inertness guarantee of a
 * zero plan (machine-level: a default plan must not change a run at
 * all), and the Process::wait_until timeout primitive that the
 * runtime hardening is built on, with its one-chain-per-process
 * watchdog events.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/ap1000p.hh"
#include "sim/fault.hh"
#include "sim/process.hh"

using namespace ap;
using namespace ap::sim;

namespace
{

/** Record @p n drop decisions from @p inj. */
std::vector<bool>
drop_stream(FaultInjector &inj, int n)
{
    std::vector<bool> out;
    for (int i = 0; i < n; ++i)
        out.push_back(inj.drop_message());
    return out;
}

} // namespace

TEST(FaultPlan, ZeroPlanIsInert)
{
    FaultPlan zero;
    EXPECT_FALSE(zero.any());
    EXPECT_EQ(zero.describe(), "none");

    FaultInjector inj(zero);
    EXPECT_FALSE(inj.active());
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(inj.drop_message());
        EXPECT_FALSE(inj.duplicate_message());
        EXPECT_FALSE(inj.reorder_message());
        EXPECT_FALSE(inj.force_overflow());
        EXPECT_FALSE(inj.inject_page_fault());
        EXPECT_EQ(inj.jitter(), 0u);
    }
    EXPECT_EQ(inj.stats().total(), 0u);
    EXPECT_EQ(inj.stats().jitteredEvents, 0u);
}

TEST(FaultPlan, PresetsEnableExactlyOneMechanism)
{
    EXPECT_GT(FaultPlan::drops(1).dropProb, 0.0);
    EXPECT_GT(FaultPlan::duplicates(1).dupProb, 0.0);
    EXPECT_GT(FaultPlan::reorders(1).reorderProb, 0.0);
    EXPECT_GT(FaultPlan::overflows(1).overflowProb, 0.0);
    EXPECT_GT(FaultPlan::pageFaults(1).pageFaultProb, 0.0);
    EXPECT_GT(FaultPlan::jitter(1).jitterMaxUs, 0.0);
    for (const FaultPlan &p :
         {FaultPlan::drops(7), FaultPlan::duplicates(7),
          FaultPlan::reorders(7), FaultPlan::overflows(7),
          FaultPlan::pageFaults(7), FaultPlan::jitter(7),
          FaultPlan::chaos(7)}) {
        EXPECT_TRUE(p.any()) << p.describe();
        EXPECT_EQ(p.seed, 7u);
        EXPECT_NE(p.describe(), "none");
    }
    FaultPlan c = FaultPlan::chaos(3);
    EXPECT_GT(c.dropProb, 0.0);
    EXPECT_GT(c.dupProb, 0.0);
    EXPECT_GT(c.reorderProb, 0.0);
    EXPECT_GT(c.overflowProb, 0.0);
    EXPECT_GT(c.pageFaultProb, 0.0);
    EXPECT_GT(c.jitterMaxUs, 0.0);
}

TEST(FaultInjector, SameSeedSameDecisionStream)
{
    FaultInjector a(FaultPlan::chaos(99));
    FaultInjector b(FaultPlan::chaos(99));
    for (int i = 0; i < 500; ++i) {
        EXPECT_EQ(a.drop_message(), b.drop_message());
        EXPECT_EQ(a.duplicate_message(), b.duplicate_message());
        EXPECT_EQ(a.force_overflow(), b.force_overflow());
        EXPECT_EQ(a.inject_page_fault(), b.inject_page_fault());
        EXPECT_EQ(a.jitter(), b.jitter());
    }
    EXPECT_EQ(a.stats().total(), b.stats().total());
    EXPECT_GT(a.stats().total(), 0u);
}

TEST(FaultInjector, DisabledMechanismsDoNotConsumeRng)
{
    // Decision points of disabled mechanisms must not shift the
    // stream of enabled ones, so enabling e.g. page faults leaves a
    // drop-only plan's drop pattern untouched.
    FaultInjector pure(FaultPlan::drops(42, 0.3));
    std::vector<bool> expect = drop_stream(pure, 200);

    FaultInjector mixed(FaultPlan::drops(42, 0.3));
    std::vector<bool> got;
    for (int i = 0; i < 200; ++i) {
        // Disabled in this plan: must be free of RNG side effects.
        EXPECT_FALSE(mixed.duplicate_message());
        EXPECT_FALSE(mixed.force_overflow());
        EXPECT_FALSE(mixed.inject_page_fault());
        EXPECT_EQ(mixed.jitter(), 0u);
        got.push_back(mixed.drop_message());
    }
    EXPECT_EQ(got, expect);
}

TEST(FaultInjector, ResetRestartsTheStream)
{
    FaultInjector inj(FaultPlan::drops(5, 0.5));
    std::vector<bool> first = drop_stream(inj, 100);
    inj.reset(FaultPlan::drops(5, 0.5));
    EXPECT_EQ(inj.stats().total(), 0u);
    EXPECT_EQ(drop_stream(inj, 100), first);
}

TEST(FaultInjector, JitterIsBounded)
{
    FaultPlan p = FaultPlan::jitter(11, 20.0);
    FaultInjector inj(p);
    Tick bound = us_to_ticks(p.jitterMaxUs);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LE(inj.jitter(), bound);
    EXPECT_GT(inj.stats().jitteredEvents, 0u);
    EXPECT_GT(inj.stats().jitterTicks, 0u);
}

TEST(FaultMachine, DefaultPlanDoesNotPerturbARun)
{
    // Machine-level inertness: a zero plan (any seed) leaves the run
    // byte-identical — same finish tick, same data, zero injections.
    auto run_once = [](std::uint64_t plan_seed) {
        hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(4);
        cfg.memBytesPerCell = 1 << 20;
        cfg.faults = sim::FaultPlan{};
        cfg.faults.seed = plan_seed;
        hw::Machine m(cfg);
        int errors = 0;
        auto result = core::run_spmd(m, [&](core::Context &ctx) {
            Addr data = ctx.alloc(4096);
            Addr flag = ctx.alloc_flag();
            int me = ctx.id();
            int p = ctx.nprocs();
            for (int round = 0; round < 4; ++round) {
                ctx.poke_u32(data, static_cast<std::uint32_t>(
                                       me * 100 + round));
                ctx.put((me + 1) % p, data + 512, data, 256, no_flag,
                        flag);
                ctx.wait_flag(flag, static_cast<std::uint32_t>(
                                        round + 1));
                std::uint32_t want = static_cast<std::uint32_t>(
                    ((me - 1 + p) % p) * 100 + round);
                if (ctx.peek_u32(data + 512) != want)
                    ++errors;
                ctx.barrier();
            }
        });
        EXPECT_FALSE(result.deadlock);
        EXPECT_EQ(errors, 0);
        EXPECT_EQ(m.faults().stats().total(), 0u);
        return result.finishTick;
    };
    Tick a = run_once(1);
    Tick b = run_once(987654321);
    EXPECT_EQ(a, b) << "zero plan must be inert regardless of seed";
}

TEST(WaitUntil, TimesOutWhenNeverNotified)
{
    Simulator sim;
    Condition cond;
    bool notified = true;
    Process p(sim, "p", [&](Process &self) {
        notified = self.wait_until(cond, 100);
    });
    p.start(0);
    sim.run();
    EXPECT_TRUE(p.finished());
    EXPECT_FALSE(notified);
    EXPECT_EQ(sim.now(), 100u);
}

TEST(WaitUntil, NotificationBeforeDeadlineWins)
{
    Simulator sim;
    Condition cond;
    bool notified = false;
    Tick woke_at = 0;
    Process waiter(sim, "w", [&](Process &self) {
        notified = self.wait_until(cond, 100);
        woke_at = sim.now();
    });
    Process notifier(sim, "n", [&](Process &self) {
        self.delay(50);
        cond.notify_all();
    });
    waiter.start(0);
    notifier.start(0);
    sim.run();
    EXPECT_TRUE(notified);
    EXPECT_EQ(woke_at, 50u);
}

TEST(WaitUntil, NotificationAfterDeadlineIsATimeout)
{
    Simulator sim;
    Condition cond;
    bool notified = true;
    Tick woke_at = 0;
    Process waiter(sim, "w", [&](Process &self) {
        notified = self.wait_until(cond, 100);
        woke_at = sim.now();
    });
    Process notifier(sim, "n", [&](Process &self) {
        self.delay(150);
        cond.notify_all();
    });
    waiter.start(0);
    notifier.start(0);
    sim.run();
    EXPECT_FALSE(notified);
    EXPECT_EQ(woke_at, 100u);
}

TEST(WaitUntil, StaleTimeoutDoesNotWakeALaterWait)
{
    // First wait is notified before its deadline; its pending timeout
    // event (tick 100) must not spuriously resume the second wait.
    Simulator sim;
    Condition cond;
    std::vector<std::pair<bool, Tick>> waits;
    Process waiter(sim, "w", [&](Process &self) {
        bool a = self.wait_until(cond, 100);
        waits.emplace_back(a, sim.now());
        bool b = self.wait_until(cond, 500);
        waits.emplace_back(b, sim.now());
    });
    Process notifier(sim, "n", [&](Process &self) {
        self.delay(50);
        cond.notify_all();
        self.delay(350); // to 400, past the stale 100-tick deadline
        cond.notify_all();
    });
    waiter.start(0);
    notifier.start(0);
    sim.run();
    ASSERT_EQ(waits.size(), 2u);
    EXPECT_TRUE(waits[0].first);
    EXPECT_EQ(waits[0].second, 50u);
    EXPECT_TRUE(waits[1].first);
    EXPECT_EQ(waits[1].second, 400u);
}

TEST(WaitUntil, PlainWaitStillWorksAfterTimedWaits)
{
    Simulator sim;
    Condition cond;
    std::vector<Tick> wakes;
    Process waiter(sim, "w", [&](Process &self) {
        self.wait_until(cond, 10); // times out at 10
        self.wait(cond);           // untimed park
        wakes.push_back(sim.now());
    });
    Process notifier(sim, "n", [&](Process &self) {
        self.delay(80);
        cond.notify_all();
    });
    waiter.start(0);
    notifier.start(0);
    sim.run();
    ASSERT_EQ(wakes.size(), 1u);
    EXPECT_EQ(wakes[0], 80u);
}

TEST(WaitUntil, DeadlineTieGoesToTheEarlierScheduledEvent)
{
    // A timeout fires at the (tick, sequence) key an event scheduled
    // when the wait began would get: a notification at the deadline
    // tick wins if it was scheduled before the wait, and loses (the
    // wait times out, the notification finds no waiter) if after.
    auto run = [](bool notify_scheduled_first) {
        Simulator sim;
        Condition cond;
        bool notified = false;
        auto notify = [&cond]() { cond.notify_all(); };
        if (notify_scheduled_first)
            sim.schedule(100, notify);
        Process waiter(sim, "w", [&](Process &self) {
            notified = self.wait_until(cond, 100);
            EXPECT_EQ(sim.now(), 100u);
        });
        waiter.start(0);
        if (!notify_scheduled_first) // runs once the waiter parked
            sim.schedule(0, [&]() { sim.schedule(100, notify); });
        sim.run();
        EXPECT_TRUE(waiter.finished());
        return notified;
    };
    EXPECT_TRUE(run(true));
    EXPECT_FALSE(run(false));
}

TEST(WaitUntil, RelinkedDeadlineKeepsItsReservedKey)
{
    // The second wait's deadline (600) is reached through the first
    // wait's watchdog, which fires dead at 500 and relinks. A
    // notification scheduled for 600 after the second wait began
    // must still lose the tie.
    Simulator sim;
    Condition cond;
    std::vector<bool> got;
    Process waiter(sim, "w", [&](Process &self) {
        got.push_back(self.wait_until(cond, 500)); // notified at 50
        got.push_back(self.wait_until(cond, 600)); // begins at 50
    });
    waiter.start(0);
    sim.schedule(50, [&]() { cond.notify_all(); });
    sim.schedule(60, [&]() {
        sim.schedule(600, [&]() { cond.notify_all(); });
    });
    sim.run();
    EXPECT_EQ(got, (std::vector<bool>{true, false}));
}

TEST(WaitUntil, EarlierDeadlineThanAnArmedOneTimesOutOnTime)
{
    // The first wait arms tick 500 and is notified at 50; the next
    // waits' deadlines (200, then 300) come before that still-queued
    // watchdog and must time out at their own ticks.
    Simulator sim;
    Condition cond;
    std::vector<std::pair<bool, Tick>> waits;
    Process waiter(sim, "w", [&](Process &self) {
        for (Tick deadline : {Tick{500}, Tick{200}, Tick{300}}) {
            bool ok = self.wait_until(cond, deadline);
            waits.emplace_back(ok, sim.now());
        }
    });
    Process notifier(sim, "n", [&](Process &self) {
        self.delay(50);
        cond.notify_all();
    });
    waiter.start(0);
    notifier.start(0);
    EXPECT_EQ(sim.run(), 500u) << "drains at the latest armed deadline";
    ASSERT_EQ(waits.size(), 3u);
    EXPECT_EQ(waits[0], std::make_pair(true, Tick{50}));
    EXPECT_EQ(waits[1], std::make_pair(false, Tick{200}));
    EXPECT_EQ(waits[2], std::make_pair(false, Tick{300}));
}

TEST(WaitUntil, ProcessDestroyedWithAQueuedWatchdog)
{
    // Finished processes are reaped mid-run (the serve layer does);
    // their queued watchdog must neither touch the freed process nor
    // stop short: run() still ends at the latest armed deadline.
    Simulator sim;
    Condition cond;
    auto done = std::make_unique<Process>(
        sim, "done", [&](Process &self) {
            EXPECT_TRUE(self.wait_until(cond, 1000));
            EXPECT_TRUE(self.wait_until(cond, 700));
        });
    // Destroyed while parked in a timed wait, never resumed.
    Condition never;
    auto parked = std::make_unique<Process>(
        sim, "parked", [&](Process &self) { self.wait_until(never, 400); });
    done->start(0);
    parked->start(0);
    sim.schedule(10, [&]() { cond.notify_all(); });
    sim.schedule(20, [&]() { cond.notify_all(); });
    sim.schedule(30, [&]() {
        EXPECT_TRUE(done->finished());
        done.reset();
        parked.reset();
    });
    EXPECT_EQ(sim.run(), 1000u);

    // A kernel destroyed with chain events still queued frees them.
    Simulator early;
    auto p = std::make_unique<Process>(
        early, "p", [&](Process &self) { self.wait_until(never, 900); });
    p->start(0);
    early.run_until(100);
    EXPECT_FALSE(early.empty());
    p.reset();
}

TEST(WaitUntil, PromptlyNotifiedWaitsShareOneWatchdogEvent)
{
    // 1000 timed waits, each notified a tick after it begins. The
    // watchdog adds at most two events to the run of the same
    // program with untimed waits: the first deadline and the last.
    static constexpr int waits = 1000;
    auto events = [](bool timed) {
        Simulator sim;
        Condition cond;
        int notified = 0;
        Process waiter(sim, "w", [&](Process &self) {
            for (int i = 0; i < waits; ++i) {
                if (!timed)
                    self.wait(cond);
                else if (self.wait_until(cond, sim.now() + 3000))
                    ++notified;
            }
        });
        Process notifier(sim, "n", [&](Process &self) {
            for (int i = 0; i < waits; ++i) {
                self.delay(1);
                cond.notify_all();
            }
        });
        waiter.start(0);
        notifier.start(0);
        Tick end = sim.run();
        EXPECT_TRUE(waiter.finished());
        if (timed) {
            EXPECT_EQ(notified, waits);
            EXPECT_EQ(end, Tick{waits - 1 + 3000});
        }
        return sim.executed();
    };
    std::uint64_t untimed = events(false);
    std::uint64_t timed = events(true);
    EXPECT_LE(timed - untimed, 2u);
}

namespace
{

/** What each of four cells saw from its timed waits. */
struct ShardedWaits
{
    std::vector<std::vector<std::pair<bool, Tick>>> seen;
    std::string digest;
};

/**
 * Four processes, one per affinity, each running 30 timed waits with
 * varying deadlines (some earlier than one already armed). After
 * every wait a process notifies its right neighbour one lookahead
 * later, so some waits are notified across shards and some time out.
 */
ShardedWaits
run_sharded_waits(ShardConfig cfg)
{
    constexpr int cells = 4;
    constexpr Tick lookahead = 16;
    cfg.lookahead = lookahead;
    Simulator sim(cfg);
    TickHistory hist;
    sim.set_history(&hist);
    std::vector<Condition> conds(cells);
    ShardedWaits out;
    out.seen.resize(cells);
    std::vector<std::unique_ptr<Process>> procs;
    for (int c = 0; c < cells; ++c) {
        procs.push_back(std::make_unique<Process>(
            sim, "cell" + std::to_string(c), [&, c](Process &self) {
                int right = (c + 1) % cells;
                for (int k = 0; k < 30; ++k) {
                    Tick span =
                        20 + 13 * static_cast<Tick>((c + 3 * k) % 7);
                    bool ok = self.wait_until(
                        conds[static_cast<std::size_t>(c)],
                        sim.now() + span);
                    out.seen[static_cast<std::size_t>(c)].emplace_back(
                        ok, sim.now());
                    sim.schedule_for(
                        right, sim.now() + lookahead, [&, right]() {
                            conds[static_cast<std::size_t>(right)]
                                .notify_all();
                        });
                }
            }));
        procs.back()->set_affinity(c);
        procs.back()->start(static_cast<Tick>(c));
    }
    sim.run();
    for (const auto &p : procs)
        EXPECT_TRUE(p->finished());
    out.digest = hist.digest();
    return out;
}

} // namespace

TEST(WaitUntil, ShardedKernelGivesTheSameTimeoutsInEveryMode)
{
    ShardConfig one;
    ShardConfig det;
    det.shards = 4;
    det.deterministic = true;
    ShardConfig par;
    par.shards = 4;
    ShardedWaits a = run_sharded_waits(one);
    ShardedWaits b = run_sharded_waits(det);
    ShardedWaits c = run_sharded_waits(par);

    int timeouts = 0;
    int notified = 0;
    for (const auto &cell : a.seen)
        for (const auto &[ok, at] : cell)
            ++(ok ? notified : timeouts);
    EXPECT_GT(timeouts, 0);
    EXPECT_GT(notified, 0);

    EXPECT_EQ(a.seen, b.seen);
    EXPECT_EQ(a.digest, b.digest) << "one shard vs deterministic";
    EXPECT_EQ(b.seen, c.seen) << "deterministic vs parallel";
}
