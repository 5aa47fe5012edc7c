/**
 * @file
 * MSC+ command queue tests: 64-word capacity, DRAM spill, OS refill
 * (Section 4.1, "Queues and queue overflows").
 */

#include <gtest/gtest.h>

#include <deque>
#include <random>

#include "base/fifo.hh"
#include "hw/queues.hh"

using namespace ap;
using namespace ap::hw;

namespace
{

Command
cmd(int i)
{
    Command c;
    c.kind = CommandKind::put;
    c.dst = i;
    return c;
}

} // namespace

TEST(CommandQueue, HoldsEightCommandsInHardware)
{
    CommandQueue q; // 64 words / 8 words each
    for (int i = 0; i < 8; ++i)
        EXPECT_FALSE(q.push(cmd(i))) << i;
    EXPECT_EQ(q.hw_depth(), 8);
    EXPECT_EQ(q.spill_depth(), 0);
}

TEST(CommandQueue, NinthCommandSpills)
{
    CommandQueue q;
    for (int i = 0; i < 8; ++i)
        q.push(cmd(i));
    EXPECT_TRUE(q.push(cmd(8)));
    EXPECT_EQ(q.spill_depth(), 1);
    EXPECT_EQ(q.stats().spills, 1u);
}

TEST(CommandQueue, SpilledOrderingIsFifoAcrossRefill)
{
    CommandQueue q;
    for (int i = 0; i < 20; ++i)
        q.push(cmd(i));

    std::vector<int> order;
    while (!q.empty()) {
        if (q.needs_refill())
            q.refill();
        order.push_back(q.pop().dst);
    }
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(CommandQueue, LaterPushesKeepSpillingWhileDrainBacklogExists)
{
    CommandQueue q;
    for (int i = 0; i < 9; ++i)
        q.push(cmd(i)); // 8 hw + 1 spill
    q.pop();            // hw has room again...
    EXPECT_TRUE(q.push(cmd(9))); // ...but FIFO forces a spill
    EXPECT_EQ(q.spill_depth(), 2);
}

TEST(CommandQueue, RefillMovesUpToCapacity)
{
    CommandQueue q;
    for (int i = 0; i < 30; ++i)
        q.push(cmd(i));
    while (q.hw_depth() > 0)
        q.pop();
    ASSERT_TRUE(q.needs_refill());
    int moved = q.refill();
    EXPECT_EQ(moved, 8);
    EXPECT_EQ(q.hw_depth(), 8);
    EXPECT_EQ(q.spill_depth(), 30 - 8 - 8);
    EXPECT_EQ(q.stats().refillInterrupts, 1u);
}

TEST(CommandQueue, RefillWithoutNeedIsNoop)
{
    CommandQueue q;
    q.push(cmd(0));
    EXPECT_EQ(q.refill(), 0);
    EXPECT_EQ(q.stats().refillInterrupts, 0u);
}

TEST(CommandQueue, MaxSpillDepthTracked)
{
    CommandQueue q;
    for (int i = 0; i < 50; ++i)
        q.push(cmd(i));
    EXPECT_EQ(q.stats().maxSpillDepth, 42u);
}

TEST(CommandQueue, MaxHwDepthIsAHighWaterMark)
{
    CommandQueue q;
    EXPECT_EQ(q.stats().maxHwDepth, 0u);
    q.push(cmd(0));
    q.push(cmd(1));
    EXPECT_EQ(q.stats().maxHwDepth, 2u);
    q.pop();
    q.pop();
    EXPECT_EQ(q.stats().maxHwDepth, 2u); // does not fall with drain
    for (int i = 0; i < 20; ++i)
        q.push(cmd(i));
    EXPECT_EQ(q.stats().maxHwDepth, 8u); // capped by RAM capacity
}

TEST(CommandQueue, RefillRaisesMaxHwDepth)
{
    // Forced spills leave the RAM queue untouched; the high-water
    // mark must still see the commands when the OS moves them back.
    CommandQueue q;
    q.push(cmd(0), /*force_spill=*/true);
    q.push(cmd(1), /*force_spill=*/true);
    EXPECT_EQ(q.stats().maxHwDepth, 0u);
    ASSERT_TRUE(q.needs_refill());
    q.refill();
    EXPECT_EQ(q.stats().maxHwDepth, 2u);
}

TEST(CommandQueue, ForcedOverflowRecordsSpillDepth)
{
    CommandQueue q;
    for (int i = 0; i < 4; ++i)
        q.push(cmd(i), /*force_spill=*/true);
    EXPECT_GT(q.stats().maxSpillDepth, 0u);
    EXPECT_EQ(q.stats().maxSpillDepth, 4u);
    while (!q.empty()) {
        if (q.needs_refill())
            q.refill();
        q.pop();
    }
    EXPECT_EQ(q.stats().maxSpillDepth, 4u); // sticky after drain
}

TEST(CommandQueue, CustomCapacity)
{
    CommandQueue q(16); // two commands
    EXPECT_FALSE(q.push(cmd(0)));
    EXPECT_FALSE(q.push(cmd(1)));
    EXPECT_TRUE(q.push(cmd(2)));
}

TEST(CommandQueue, ForcedPushSpillsEvenWithRoom)
{
    // The fault injector's hook: a forced push takes the DRAM spill
    // path although the hardware queue is empty.
    CommandQueue q;
    EXPECT_TRUE(q.push(cmd(0), /*force_spill=*/true));
    EXPECT_EQ(q.hw_depth(), 0);
    EXPECT_EQ(q.spill_depth(), 1);
    EXPECT_EQ(q.stats().spills, 1u);
    ASSERT_TRUE(q.needs_refill());
    EXPECT_EQ(q.refill(), 1);
    EXPECT_EQ(q.pop().dst, 0);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.stats().refillInterrupts, 1u);
}

TEST(CommandQueue, ForcedSpillsPreserveFifoAmongNormalPushes)
{
    CommandQueue q;
    for (int i = 0; i < 12; ++i)
        q.push(cmd(i), /*force_spill=*/(i % 3 == 0));
    std::vector<int> order;
    while (!q.empty()) {
        if (q.needs_refill())
            q.refill();
        order.push_back(q.pop().dst);
    }
    ASSERT_EQ(order.size(), 12u);
    for (int i = 0; i < 12; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Fifo, MatchesDequeAcrossWrapGrowthAndMiddleTakes)
{
    // Random pushes, pops and takes from either half, checked against
    // std::deque, with the ring wrapped and grown many times over.
    std::mt19937 rng(5);
    Fifo<int> f;
    std::deque<int> ref;
    int next = 0;
    std::size_t capacity = 0;
    for (int op = 0; op < 20000; ++op) {
        unsigned r = rng() % 8;
        if (ref.empty() || r < 4) {
            f.push_back(next);
            ref.push_back(next++);
        } else if (r < 6) {
            ASSERT_EQ(f.pop_front(), ref.front());
            ref.pop_front();
        } else {
            std::size_t i = rng() % ref.size();
            ASSERT_EQ(f.take(i), ref[i]);
            ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
        }
        ASSERT_EQ(f.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); i += 7)
            ASSERT_EQ(f[i], ref[i]);
        // Capacity only ever grows, by doubling.
        ASSERT_GE(f.capacity(), capacity);
        capacity = f.capacity();
    }
    EXPECT_GT(capacity, Fifo<int>::initial_capacity);
}

TEST(CommandQueueDeath, TooSmallCapacityIsFatal)
{
    EXPECT_DEATH(CommandQueue(4), "cannot hold");
}

TEST(CommandQueueDeath, PopOnEmptyHardwarePanics)
{
    CommandQueue q;
    EXPECT_DEATH(q.pop(), "empty");
}
