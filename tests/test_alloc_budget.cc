/**
 * @file
 * Allocation budgets of machine construction and of the message hot
 * paths.
 *
 * This binary replaces the global operator new with a counting one,
 * so it stands alone: every heap allocation any library makes while
 * a test runs is counted. Two contracts are pinned:
 *
 *  - building a machine costs a constant number of allocations per
 *    cell (page tables, registry paths and queues allocate nothing
 *    per page, per path or per queued command);
 *  - after warm-up, SEND/RECEIVE and PUT traffic allocates nothing,
 *    even with far more payloads in flight than a handful.
 */

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include <gtest/gtest.h>

#include "core/context.hh"
#include "core/program.hh"
#include "hw/machine.hh"

namespace
{

std::atomic<std::uint64_t> allocCount{0};

void *
counted_alloc(std::size_t n)
{
    allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
counted_alloc_aligned(std::size_t n, std::align_val_t al)
{
    allocCount.fetch_add(1, std::memory_order_relaxed);
    auto a = static_cast<std::size_t>(al);
    if (void *p = std::aligned_alloc(a, (n + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return counted_alloc(n); }
void *operator new[](std::size_t n) { return counted_alloc(n); }
void *
operator new(std::size_t n, std::align_val_t al)
{
    return counted_alloc_aligned(n, al);
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return counted_alloc_aligned(n, al);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace ap
{
namespace
{

std::uint64_t
allocs()
{
    return allocCount.load(std::memory_order_relaxed);
}

/** Allocations made while building one machine of @p cells. */
std::uint64_t
construction_allocs(int cells)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(cells);
    std::uint64_t before = allocs();
    auto m = std::make_unique<hw::Machine>(cfg);
    return allocs() - before;
}

TEST(AllocBudget, MachineConstructionIsConstantPerCell)
{
    const int cells = 256;
    std::uint64_t n = construction_allocs(cells);
    std::printf("256-cell machine: %llu allocations (%.1f per cell)\n",
                static_cast<unsigned long long>(n),
                static_cast<double>(n) / cells);
    EXPECT_LE(n, 32u * cells);
    // Per cell, not per page or per path: a machine four times larger
    // costs about four times as many allocations.
    std::uint64_t small = construction_allocs(64);
    EXPECT_LE(n, 4 * small + 64);
}

/** What steady_state_allocs() measured. */
struct Steady
{
    std::uint64_t allocs = 0;       ///< heap allocations, second run
    std::uint64_t payloadsMade = 0; ///< payload buffers ever allocated
};

/**
 * Runs @p phase twice on every cell of a 64-cell machine and counts
 * the allocations of the second run. The cells meet at cell 0 before
 * and after each run through PUT flags, which the contract covers
 * too (a barrier would count its own bookkeeping); cell 0 reads the
 * counter while every other cell waits. The simulation runs on this
 * one thread.
 */
template <typename Phase>
Steady
steady_state_allocs(Phase phase)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(64);
    hw::Machine m(cfg);
    std::uint64_t start = 0, end = 0;
    core::SpmdResult res = core::run_spmd(m, [&](core::Context &ctx) {
        const int p = ctx.nprocs();
        Addr word = ctx.alloc(8);
        Addr arrived = ctx.alloc_flag();
        Addr go = ctx.alloc_flag();
        std::uint32_t meetings = 0;
        auto meet = [&](std::uint64_t &count) {
            ++meetings;
            if (ctx.id() != 0) {
                ctx.put(0, word, word, 8, no_flag, arrived);
                ctx.wait_flag(go, meetings);
                return;
            }
            ctx.wait_flag(arrived,
                          meetings * static_cast<std::uint32_t>(p - 1));
            count = allocs();
            for (CellId c = 1; c < p; ++c)
                ctx.put(c, word, word, 8, no_flag, go);
        };
        for (int pass = 0; pass < 2; ++pass) {
            meet(start);
            phase(ctx);
            meet(end);
        }
    });
    EXPECT_FALSE(res.deadlock);
    EXPECT_TRUE(res.errors.empty());
    return {end - start,
            m.stats_registry().value("sim.alloc.payload_miss")};
}

TEST(AllocBudget, SendReceiveAllToAllAllocatesNothingWhenWarm)
{
    constexpr std::uint32_t bytes = 64;
    Steady n = steady_state_allocs([&](core::Context &ctx) {
        const int p = ctx.nprocs();
        const CellId me = ctx.id();
        Addr base = ctx.alloc(static_cast<std::size_t>(p) * bytes);
        Addr in = ctx.alloc(bytes);
        for (int k = 1; k < p; ++k) {
            CellId dst = (me + k) % p;
            ctx.send(dst, 0, base + static_cast<Addr>(dst) * bytes,
                     bytes);
        }
        for (int k = 1; k < p; ++k)
            ctx.recv(hw::any_source, 0, in, bytes);
    });
    // A size class allocates a buffer only when every one it made is
    // out, and the meetings' 8-byte PUTs make at most two per cell, so
    // far more than 64 SEND payloads were in flight at once.
    EXPECT_GT(n.payloadsMade, 256u);
    EXPECT_EQ(n.allocs, 0u);
}

TEST(AllocBudget, PutLoopAllocatesNothingWhenWarm)
{
    constexpr std::uint32_t bytes = 16 * 1024;
    Steady n = steady_state_allocs([&](core::Context &ctx) {
        const int p = ctx.nprocs();
        const CellId me = ctx.id();
        Addr src = ctx.alloc(bytes);
        Addr dst = ctx.alloc(bytes);
        Addr flag = ctx.alloc_flag();
        for (int i = 0; i < 8; ++i) {
            ctx.put((me + 1) % p, dst, src, bytes, no_flag, flag);
            ctx.wait_flag(flag, static_cast<std::uint32_t>(i + 1));
        }
    });
    EXPECT_EQ(n.allocs, 0u);
}

} // namespace
} // namespace ap
