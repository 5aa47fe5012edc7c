/**
 * @file
 * Property tests of the ladder event queue and the allocation
 * machinery behind the hot path (event pool, payload pool,
 * truncation-aware tick history).
 *
 * The central property is the ordering contract: LadderQueue must
 * pop nodes in exactly ascending (when, seq) — bit-for-bit the order
 * of the binary heap it replaced — under random schedules, same-tick
 * bursts, far-future outliers, interleaved push/pop, a hold model
 * that slides the window, width changes at rebase and the tick
 * horizon. Everything that makes the ladder fast (sliding buckets,
 * rebasing, adaptive width) is invisible as long as these tests pass.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "base/random.hh"
#include "hw/bufpool.hh"
#include "sim/eventq.hh"
#include "sim/ladderq.hh"

using namespace ap;
using namespace ap::sim;

namespace
{

/** Drain @p q completely, returning the (when, seq) pop order. */
std::vector<std::pair<Tick, std::uint64_t>>
drain(LadderQueue &q)
{
    std::vector<std::pair<Tick, std::uint64_t>> out;
    while (!q.empty()) {
        EventNode *n = q.pop();
        out.emplace_back(n->when, n->seq);
        q.release(n);
    }
    return out;
}

} // namespace

TEST(LadderQueue, RandomSchedulesMatchReferenceOrder)
{
    // Random (when, seq) schedules must drain in exactly the order a
    // reference sort by (when, seq) produces — the determinism
    // contract both kernels inherit.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Random rng(seed);
        LadderQueue q;
        std::vector<std::pair<Tick, std::uint64_t>> ref;
        std::uint64_t seq = 0;
        for (int i = 0; i < 5000; ++i) {
            // Mixed distances: mostly near-now, some mid, a thin
            // far tail — the machine's real tick distribution.
            Tick when;
            std::uint64_t pick = rng.below(100);
            if (pick < 70)
                when = rng.below(1 << 10);
            else if (pick < 95)
                when = rng.below(1 << 20);
            else
                when = rng.below(std::uint64_t{1} << 40);
            ref.emplace_back(when, seq);
            q.push(when, seq++, 0, []() {});
        }
        std::stable_sort(ref.begin(), ref.end());
        EXPECT_EQ(q.size(), ref.size());
        EXPECT_EQ(drain(q), ref) << "seed " << seed;
    }
}

TEST(LadderQueue, SameTickBatchPopsInSeqOrder)
{
    LadderQueue q;
    for (std::uint64_t s = 0; s < 4096; ++s)
        q.push(77, s, 0, []() {});
    auto order = drain(q);
    ASSERT_EQ(order.size(), 4096u);
    for (std::uint64_t s = 0; s < order.size(); ++s) {
        EXPECT_EQ(order[s].first, 77u);
        EXPECT_EQ(order[s].second, s);
    }
}

TEST(LadderQueue, FarFutureEventsLandInOverflowAndStillOrder)
{
    // Watchdog-style outliers land in the overflow rung; rebasing
    // must carve them back into the ring in order, interleaved with
    // nearer events pushed later.
    LadderQueue q;
    std::uint64_t seq = 0;
    std::vector<std::pair<Tick, std::uint64_t>> ref;
    for (int i = 0; i < 16; ++i) {
        Tick far = std::uint64_t{1} << (30 + i % 8);
        ref.emplace_back(far, seq);
        q.push(far, seq++, 0, []() {});
    }
    for (Tick t = 0; t < 64; ++t) {
        ref.emplace_back(t, seq);
        q.push(t, seq++, 0, []() {});
    }
    std::stable_sort(ref.begin(), ref.end());
    EXPECT_EQ(drain(q), ref);
}

TEST(LadderQueue, InterleavedPushPopKeepsGlobalOrder)
{
    // Pops interleaved with pushes of later events — the pattern a
    // running simulation produces — must never emit a tick smaller
    // than one already popped.
    Random rng(99);
    LadderQueue q;
    std::uint64_t seq = 0;
    Tick clock = 0;
    for (int i = 0; i < 200; ++i)
        q.push(rng.below(1000), seq++, 0, []() {});
    int popped = 0;
    while (!q.empty()) {
        EventNode *n = q.pop();
        EXPECT_GE(n->when, clock);
        clock = n->when;
        q.release(n);
        if (++popped % 3 == 0) {
            // Handlers schedule strictly at-or-after the clock.
            q.push(clock + rng.below(2000), seq++, 0, []() {});
            if (popped < 600)
                q.push(clock, seq++, 0, []() {});
        }
    }
    EXPECT_GT(popped, 200);
}

TEST(LadderQueue, HoldModelAcrossTheWindowMatchesReferenceOrder)
{
    // The classic hold model: every pop pushes one event at now + d,
    // with d spread over 0.5-4x the ring window, so the window slides
    // under a steady stream of pushes that land in the ring, in the
    // overflow rung and back again. Same-tick bursts and a far tail
    // ride along. Each pop must match a reference (when, seq) set.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Random rng(seed);
        LadderQueue q;
        std::set<std::pair<Tick, std::uint64_t>> ref;
        std::uint64_t seq = 0;
        auto push = [&](Tick when) {
            ref.emplace(when, seq);
            q.push(when, seq++, 0, []() {});
        };
        for (int i = 0; i < 2000; ++i)
            push(rng.below(1 << 16));
        for (int i = 0; i < 20; ++i)
            push((std::uint64_t{1} << 40) + rng.below(1 << 20));
        Tick now = 0;
        for (int step = 0; step < 60000; ++step) {
            ASSERT_FALSE(ref.empty());
            EventNode *n = q.pop();
            ASSERT_EQ(std::make_pair(n->when, n->seq), *ref.begin())
                << "seed " << seed << " step " << step;
            ref.erase(ref.begin());
            now = n->when;
            q.release(n);
            // The window in ticks at the current width.
            Tick window = static_cast<Tick>(LadderQueue::num_buckets)
                          << q.bucket_shift();
            Tick d = window / 2 + rng.below(window * 7 / 2);
            push(now + d);
            if (step % 97 == 0)
                for (int k = 0; k < 12; ++k)
                    push(now + d); // same-tick burst, FIFO by seq
            if (step % 1000 == 0)
                push(now); // a zero-delay event at the clock
        }
        while (!q.empty()) {
            EventNode *n = q.pop();
            ASSERT_EQ(std::make_pair(n->when, n->seq), *ref.begin());
            ref.erase(ref.begin());
            q.release(n);
        }
        EXPECT_TRUE(ref.empty());
    }
}

TEST(LadderQueue, RebaseChangesWidthWithOnlyOverflowPending)
{
    // A dense burst drained completely, then a sparse cluster far past
    // the window: when the ring runs dry only the overflow holds
    // events (the front heap is empty), and the rebase that follows
    // re-derives the bucket width from the density seen so far.
    LadderQueue q;
    std::vector<std::pair<Tick, std::uint64_t>> ref;
    std::uint64_t seq = 0;
    for (Tick t = 0; t < 512; ++t) {
        ref.emplace_back(t, seq);
        q.push(t, seq++, 0, []() {});
    }
    Tick far = std::uint64_t{1} << 36;
    for (Tick i = 0; i < 300; ++i) {
        ref.emplace_back(far + i * 100000, seq);
        q.push(far + i * 100000, seq++, 0, []() {});
    }
    unsigned before = q.bucket_shift();
    std::vector<std::pair<Tick, std::uint64_t>> got;
    for (int i = 0; i < 512; ++i) {
        EventNode *n = q.pop();
        got.emplace_back(n->when, n->seq);
        q.release(n);
    }
    EXPECT_EQ(q.bucket_shift(), before); // no rebase yet
    EXPECT_EQ(q.size(), 300u);           // all in the overflow rung
    EXPECT_EQ(q.min_when(), far);        // this call rebases
    EXPECT_NE(q.bucket_shift(), before);
    // The cluster's own density then sets the next width.
    for (Tick i = 0; i < 100; ++i) {
        ref.emplace_back((far << 2) + i, seq);
        q.push((far << 2) + i, seq++, 0, []() {});
    }
    for (auto &p : drain(q))
        got.push_back(p);
    std::stable_sort(ref.begin(), ref.end());
    EXPECT_EQ(got, ref);
}

TEST(LadderQueue, EventsAtTheHorizonEdgeUnderSeveralWidths)
{
    // max_tick - 1 and max_tick - 2 sit in the last absolute bucket
    // of any width, where cur << wShift would wrap. A dense cluster
    // drained at distance D below the edge sets the density the
    // edge's rebase derives its width from, so several D values meet
    // the edge under several bucket widths (small D: no rebase).
    const Tick top = max_tick;
    std::set<unsigned> widths;
    for (Tick dist : {Tick{1} << 10, Tick{98304}, Tick{1} << 17,
                      Tick{1} << 20}) {
        LadderQueue q;
        std::vector<std::pair<Tick, std::uint64_t>> ref;
        std::uint64_t seq = 0;
        auto push = [&](Tick when) {
            ref.emplace_back(when, seq);
            q.push(when, seq++, 0, []() {});
        };
        Tick cluster = top - 2 - dist;
        push(cluster - (std::uint64_t{1} << 32));
        for (Tick i = 0; i < 100; ++i)
            push(cluster + i);
        push(top - 1);
        push(top - 2);
        push(top - 2);
        std::vector<std::pair<Tick, std::uint64_t>> got;
        bool pushedAtEdge = false;
        while (!q.empty()) {
            EventNode *n = q.pop();
            got.emplace_back(n->when, n->seq);
            q.release(n);
            if (got.back().first == top - 2 && !pushedAtEdge) {
                // The horizon bucket is draining and the window has
                // wrapped past the last bucket: pushes at the clock
                // and at the edge still order.
                pushedAtEdge = true;
                widths.insert(q.bucket_shift());
                push(top - 2);
                push(top - 1);
            }
        }
        EXPECT_TRUE(pushedAtEdge);
        std::stable_sort(ref.begin(), ref.end());
        EXPECT_EQ(got, ref) << "distance " << dist;
    }
    EXPECT_GE(widths.size(), 3u);
}

TEST(LadderQueue, ClearThenReuseStartsFresh)
{
    LadderQueue q;
    std::uint64_t seq = 0;
    Random rng(7);
    for (int i = 0; i < 3000; ++i)
        q.push(rng.below(std::uint64_t{1} << 30), seq++, 0, []() {});
    for (int i = 0; i < 1000; ++i)
        q.release(q.pop());
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.min_when(), max_tick);

    // Reuse at ticks far below where the old schedule stood.
    std::vector<std::pair<Tick, std::uint64_t>> ref;
    for (int i = 0; i < 3000; ++i) {
        Tick when = rng.below(1 << 20);
        ref.emplace_back(when, seq);
        q.push(when, seq++, 0, []() {});
    }
    std::stable_sort(ref.begin(), ref.end());
    EXPECT_EQ(drain(q), ref);
}

TEST(LadderQueue, PeekMatchesNextPopAndMinWhen)
{
    LadderQueue q;
    q.push(30, 0, 0, []() {});
    q.push(10, 1, 0, []() {});
    q.push(20, 2, 0, []() {});
    EXPECT_EQ(q.min_when(), 10u);
    const EventNode *p = q.peek();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->when, 10u);
    EventNode *n = q.pop();
    EXPECT_EQ(n->when, 10u);
    q.release(n);
    EXPECT_EQ(q.min_when(), 20u);
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.min_when(), max_tick);
    EXPECT_EQ(q.peek(), nullptr);
}

TEST(LadderQueue, PoolGrowsOnceThenRecyclesForever)
{
    LadderQueue q;
    std::uint64_t seq = 0;
    // First wave: deeper than one pool block, so the pool must grow.
    for (int i = 0; i < 1000; ++i)
        q.push(static_cast<Tick>(i), seq++, 0, []() {});
    drain(q);
    EventPoolStats st1 = q.pool_stats();
    EXPECT_GE(st1.blocks, 1000 / EventPool::block_nodes);
    EXPECT_EQ(st1.misses, 1000u);

    // Steady state: the same depth again must be served entirely
    // from the freelist — zero new blocks, zero misses.
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 1000; ++i)
            q.push(static_cast<Tick>(i), seq++, 0, []() {});
        drain(q);
    }
    EventPoolStats st2 = q.pool_stats();
    EXPECT_EQ(st2.misses, st1.misses);
    EXPECT_EQ(st2.blocks, st1.blocks);
    EXPECT_EQ(st2.hits, st1.hits + 5u * 1000u);
}

TEST(LadderQueue, SimulatorSteadyStateAllocatesNothing)
{
    // The kernel-level zero-allocation contract: after a warmup
    // round, scheduling and draining identical work must not carve
    // new nodes or spill closures to the heap.
    Simulator sim;
    auto wave = [&]() {
        for (int i = 0; i < 500; ++i)
            sim.schedule_after(static_cast<Tick>(i % 7), []() {});
        sim.run();
    };
    wave();
    SimAllocStats warm = sim.alloc_stats();
    wave();
    wave();
    SimAllocStats steady = sim.alloc_stats();
    EXPECT_EQ(steady.poolMisses, warm.poolMisses);
    EXPECT_EQ(steady.poolBlocks, warm.poolBlocks);
    EXPECT_EQ(steady.fnHeap, warm.fnHeap);
    EXPECT_GT(steady.poolHits, warm.poolHits);
}

TEST(LadderQueue, ScheduleDuringRunUntilLandsInOrder)
{
    // Events scheduled by handlers inside a bounded run_until() — at
    // the limit, past it, and at the current tick — execute in the
    // same global order a full run() would produce.
    Simulator sim;
    std::vector<int> order;
    sim.schedule(10, [&]() {
        order.push_back(1);
        sim.schedule(15, [&]() { order.push_back(3); });
        sim.schedule(40, [&]() { order.push_back(5); });
        sim.schedule_after(0, [&]() { order.push_back(2); });
    });
    sim.schedule(20, [&]() { order.push_back(4); });
    sim.run_until(20);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(sim.pending(), 1u);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(LadderQueueDeath, PushingMaxTickPanics)
{
    // max_tick is the "empty" sentinel; scheduling there would make
    // the queue lie about being drained.
    LadderQueue q;
    EXPECT_DEATH(q.push(max_tick, 0, 0, []() {}), "tick horizon");
}

TEST(TickHistory, TruncationIsSurfacedNotSilent)
{
    Simulator sim;
    TickHistory hist;
    hist.set_keep_log(4);
    sim.set_history(&hist);
    for (int i = 0; i < 10; ++i)
        sim.schedule(static_cast<Tick>(i), []() {});
    sim.run();
    EXPECT_TRUE(hist.truncated());
    EXPECT_EQ(hist.log().size(), 4u);
    EXPECT_EQ(hist.events(), 10u);
    EXPECT_NE(hist.digest().find("truncated"), std::string::npos);

    TickHistory full;
    full.set_keep_log(64);
    Simulator sim2;
    sim2.set_history(&full);
    for (int i = 0; i < 10; ++i)
        sim2.schedule(static_cast<Tick>(i), []() {});
    sim2.run();
    EXPECT_FALSE(full.truncated());
    EXPECT_EQ(full.digest().find("truncated"), std::string::npos);
}

TEST(BufferPool, RecyclesCapacityAndCountsTraffic)
{
    hw::BufferPool pool;
    std::vector<std::uint8_t> buf = pool.acquire(4096);
    EXPECT_TRUE(buf.empty());
    EXPECT_GE(buf.capacity(), 4096u);
    EXPECT_EQ(pool.stats().misses, 1u);

    buf.resize(4096);
    const std::uint8_t *raw = buf.data();
    pool.release(std::move(buf));
    EXPECT_EQ(pool.stats().releases, 1u);

    std::vector<std::uint8_t> again = pool.acquire(4000);
    EXPECT_TRUE(again.empty());
    EXPECT_GE(again.capacity(), 4096u);
    EXPECT_EQ(again.data(), raw); // the same allocation came back
    EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPool, MissesReserveTheirSizeClass)
{
    hw::BufferPool pool;
    // A 100-byte miss reserves 128, so the buffer serves the class
    // of (64, 128]-byte requests when it comes back.
    std::vector<std::uint8_t> b = pool.acquire(100);
    EXPECT_EQ(b.capacity(), 128u);
    const std::uint8_t *raw = b.data();
    pool.release(std::move(b));
    std::vector<std::uint8_t> c = pool.acquire(128);
    EXPECT_EQ(c.data(), raw);
    EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPool, NeverHandsOutATooSmallBuffer)
{
    hw::BufferPool pool;
    std::vector<std::uint8_t> small = pool.acquire(8);
    pool.release(std::move(small));
    std::vector<std::uint8_t> big = pool.acquire(16 * 1024);
    EXPECT_GE(big.capacity(), 16u * 1024);
    EXPECT_EQ(pool.stats().hits, 0u);
    EXPECT_EQ(pool.stats().misses, 2u);
}

TEST(BufferPool, RetainsOnlyWhatWasOutstanding)
{
    hw::BufferPool pool;
    // Capacity-zero releases are ignored entirely.
    pool.release({});
    EXPECT_EQ(pool.stats().releases, 0u);

    // A buffer past the retained-capacity cap is freed, not parked.
    std::vector<std::uint8_t> huge(hw::BufferPool::max_retained_capacity +
                                   1);
    pool.release(std::move(huge));
    EXPECT_EQ(pool.stats().discards, 1u);

    // Foreign buffers of a class that never served an acquire are
    // freed: nothing could ever hand them out again.
    for (int i = 0; i < 8; ++i)
        pool.release(std::vector<std::uint8_t>(8));
    EXPECT_EQ(pool.stats().discards, 1u + 8u);

    // Four 64-byte buffers out at once: the class keeps at most four.
    std::vector<std::vector<std::uint8_t>> out;
    for (int i = 0; i < 4; ++i)
        out.push_back(pool.acquire(64));
    for (auto &b : out)
        pool.release(std::move(b));
    for (int i = 0; i < 6; ++i)
        pool.release(std::vector<std::uint8_t>(64));
    EXPECT_EQ(pool.stats().discards, 1u + 8u + 6u);
    for (int i = 0; i < 4; ++i)
        out[static_cast<std::size_t>(i)] = pool.acquire(64);
    EXPECT_EQ(pool.stats().hits, 4u);
    EXPECT_EQ(pool.stats().misses, 4u);
}
