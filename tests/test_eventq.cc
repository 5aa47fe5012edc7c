/**
 * @file
 * Unit tests of the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

#include "sim/eventq.hh"

using namespace ap;
using namespace ap::sim;

// One concrete kernel class: every now()/schedule*() call is a direct
// call, and the machine holds the kernel by value.
static_assert(!std::is_polymorphic_v<Simulator>);

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    Simulator sim;
    EXPECT_EQ(sim.now(), 0u);
    EXPECT_TRUE(sim.empty());
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_FALSE(sim.step());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(30, [&]() { order.push_back(3); });
    sim.schedule(10, [&]() { order.push_back(1); });
    sim.schedule(20, [&]() { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), 30u);
}

TEST(EventQueue, SameTickFifo)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 100; ++i)
        sim.schedule(5, [&, i]() { order.push_back(i); });
    sim.run();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, HandlersMayScheduleMoreEvents)
{
    Simulator sim;
    int fired = 0;
    std::function<void()> chain = [&]() {
        ++fired;
        if (fired < 5)
            sim.schedule(sim.now() + 10, chain);
    };
    sim.schedule(0, chain);
    sim.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(sim.now(), 40u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(10, [&]() { ++fired; });
    sim.schedule(20, [&]() { ++fired; });
    sim.schedule(30, [&]() { ++fired; });
    sim.run_until(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.pending(), 1u);
    sim.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, ZeroDelayEventRunsAtCurrentTick)
{
    Simulator sim;
    Tick seen = max_tick;
    sim.schedule(15, [&]() {
        sim.schedule_after(0, [&]() { seen = sim.now(); });
    });
    sim.run();
    EXPECT_EQ(seen, 15u);
}

TEST(EventQueue, ExecutedCounterCounts)
{
    Simulator sim;
    for (int i = 0; i < 7; ++i)
        sim.schedule(static_cast<Tick>(i), []() {});
    sim.run();
    EXPECT_EQ(sim.executed(), 7u);
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    Simulator sim;
    sim.schedule(10, []() {});
    sim.run();
    EXPECT_DEATH(sim.schedule(5, []() {}), "past");
}

TEST(EventQueueDeath, SchedulingBehindRunUntilClockPanics)
{
    // run_until() leaves the clock at the last executed event; the
    // past-check must hold against that clock, not the limit.
    Simulator sim;
    sim.schedule(40, []() {});
    sim.run_until(100);
    EXPECT_EQ(sim.now(), 40u);
    EXPECT_DEATH(sim.schedule(39, []() {}), "past");
}

TEST(EventQueue, KeyedEventRunsAtItsReservedPosition)
{
    // A key reserved before a same-tick event was scheduled runs
    // ahead of it even when its event is pushed later.
    for (int shards : {1, 4}) {
        ShardConfig cfg;
        cfg.shards = shards;
        cfg.deterministic = true;
        Simulator sim(cfg);
        std::vector<int> order;
        EventKey k = sim.reserve_key(0, 50);
        sim.schedule_for(0, 50, [&]() { order.push_back(2); });
        sim.schedule_for(0, 10, [&]() {
            sim.schedule_at_key(0, k, [&]() { order.push_back(1); });
        });
        sim.run();
        EXPECT_EQ(order, (std::vector<int>{1, 2})) << shards;
    }
}

TEST(EventQueueDeath, KeyedEventOnAForeignShardPanics)
{
    // Keyed events skip the handoff outboxes, so inside a run they
    // must stay on the executing shard.
    ShardConfig cfg;
    cfg.shards = 2;
    cfg.deterministic = true;
    Simulator sim(cfg);
    sim.schedule_for(0, 10, [&]() { sim.reserve_key(1, 20); });
    EXPECT_DEATH(sim.run(), "executing shard");
}

TEST(EventQueue, JitterHookStretchesRelativeDelaysOnly)
{
    Simulator sim;
    sim.set_delay_jitter([](Tick) { return Tick{7}; });
    Tick relative = 0;
    Tick absolute = 0;
    sim.schedule_after(10, [&]() { relative = sim.now(); });
    // Absolute-time scheduling manages its own serialization
    // timeline and must never be jittered.
    sim.schedule(10, [&]() { absolute = sim.now(); });
    sim.run();
    EXPECT_EQ(relative, 17u);
    EXPECT_EQ(absolute, 10u);
}

TEST(EventQueue, JitterHookSeesTheOriginalDelta)
{
    Simulator sim;
    std::vector<Tick> seen;
    sim.set_delay_jitter([&](Tick dt) {
        seen.push_back(dt);
        return Tick{0};
    });
    sim.schedule_after(10, []() {});
    sim.schedule_after_for(3, 20, []() {});
    sim.run();
    EXPECT_EQ(seen, (std::vector<Tick>{10, 20}));
}

TEST(EventQueue, ClearingJitterHookRestoresExactDelays)
{
    Simulator sim;
    sim.set_delay_jitter([](Tick) { return Tick{1000}; });
    sim.set_delay_jitter(nullptr);
    Tick fired = 0;
    sim.schedule_after(10, [&]() { fired = sim.now(); });
    sim.run();
    EXPECT_EQ(fired, 10u);
}

TEST(EventQueue, JitteredZeroDelayStillRespectsFifoWithinTick)
{
    // A jitter hook returning zero keeps schedule_after(0) at the
    // current tick, and the event still queues behind same-tick
    // events scheduled earlier.
    Simulator sim;
    sim.set_delay_jitter([](Tick) { return Tick{0}; });
    std::vector<int> order;
    sim.schedule(5, [&]() {
        order.push_back(1);
        sim.schedule_after(0, [&]() { order.push_back(3); });
    });
    sim.schedule(5, [&]() { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, LargeSameTickBatchDrainsInInsertionOrder)
{
    // Drain-order stability at scale: the heap tie-breaks same-tick
    // entries by sequence number, so even a batch far larger than any
    // real burst must come out exactly in insertion order.
    Simulator sim;
    constexpr int n = 10000;
    std::vector<int> order;
    order.reserve(n);
    for (int i = 0; i < n; ++i)
        sim.schedule(42, [&, i]() { order.push_back(i); });
    sim.run();
    ASSERT_EQ(order.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        ASSERT_EQ(order[static_cast<std::size_t>(i)], i) << "at " << i;
}

TEST(EventQueue, HandlerInsertionsQueueBehindExistingSameTickEvents)
{
    // Events a handler schedules at the *current* tick run after
    // everything already queued for that tick (seq order), never
    // before — the property same-tick delivery chains rely on.
    Simulator sim;
    std::vector<int> order;
    sim.schedule(9, [&]() {
        order.push_back(0);
        sim.schedule(9, [&]() { order.push_back(2); });
    });
    sim.schedule(9, [&]() { order.push_back(1); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, ScheduleForRecordsAffinityInHistory)
{
    Simulator sim;
    TickHistory hist;
    hist.set_keep_log(16);
    sim.set_history(&hist);
    sim.schedule_for(4, 10, []() {});
    sim.schedule_for(-1, 20, []() {});
    sim.run();
    ASSERT_EQ(hist.log().size(), 2u);
    EXPECT_EQ(hist.log()[0], (std::pair<Tick, int>{10, 4}));
    EXPECT_EQ(hist.log()[1], (std::pair<Tick, int>{20, -1}));
}

TEST(EventQueue, ScheduleInheritsCurrentEventAffinity)
{
    // Follow-up work a handler schedules without annotation stays on
    // the handler's own timeline; history shows the inherited id.
    Simulator sim;
    TickHistory hist;
    hist.set_keep_log(16);
    sim.set_history(&hist);
    int insideAffinity = -99;
    sim.schedule_for(7, 10, [&]() {
        insideAffinity = sim.current_affinity();
        sim.schedule(20, []() {});
        sim.schedule_after(15, []() {});
    });
    sim.run();
    EXPECT_EQ(insideAffinity, 7);
    ASSERT_EQ(hist.log().size(), 3u);
    EXPECT_EQ(hist.log()[1], (std::pair<Tick, int>{20, 7}));
    EXPECT_EQ(hist.log()[2], (std::pair<Tick, int>{25, 7}));
}

TEST(EventQueue, HistoryDigestMatchesAcrossIdenticalRuns)
{
    auto run_one = []() {
        Simulator sim;
        TickHistory hist;
        sim.set_history(&hist);
        for (int i = 0; i < 50; ++i)
            sim.schedule_for(i % 5, static_cast<Tick>(10 * i),
                             []() {});
        sim.run();
        return hist;
    };
    TickHistory a = run_one();
    TickHistory b = run_one();
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_EQ(a.events(), 50u);
}

TEST(TickConversion, MicrosecondRoundTrip)
{
    EXPECT_EQ(us_to_ticks(1.0), 1000u);
    EXPECT_EQ(us_to_ticks(0.16), 160u);
    EXPECT_EQ(us_to_ticks(0.0), 0u);
    EXPECT_DOUBLE_EQ(ticks_to_us(2500), 2.5);
}
