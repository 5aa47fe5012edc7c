/**
 * @file
 * Machine-level integration tests: network statistics, determinism
 * across runs, back-to-back SPMD programs on one machine, the
 * link-contention extension, and end-to-end functional-vs-MLSim
 * consistency for a mixed workload.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "base/logging.hh"
#include "core/ap1000p.hh"
#include "mlsim/params.hh"
#include "mlsim/replay.hh"
#include "mlsim/trace_file.hh"
#include "obs/json.hh"

using namespace ap;
using namespace ap::core;

namespace
{

hw::MachineConfig
small(int cells)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(cells);
    cfg.memBytesPerCell = 1 << 20;
    return cfg;
}

/** A mixed ring workload used by several tests. */
void
ring_program(Context &ctx, int iters)
{
    Addr buf = ctx.alloc(2048);
    Addr rf = ctx.alloc_flag();
    CellId right = (ctx.id() + 1) % ctx.nprocs();
    for (int it = 0; it < iters; ++it) {
        ctx.compute_us(20.0 + ctx.id() % 3);
        ctx.put(right, buf, buf, 1024, no_flag, rf, true);
        ctx.wait_all_acks();
        ctx.wait_flag(rf, static_cast<std::uint32_t>(it + 1));
        ctx.barrier();
    }
    ctx.allreduce(1.0, ReduceOp::sum);
}

} // namespace

TEST(Machine, TnetStatsMatchWorkload)
{
    hw::Machine m(small(4));
    run_spmd(m, [](Context &ctx) { ring_program(ctx, 3); });
    // 3 iterations x 4 cells x (1 put + 1 probe + 1 reply) plus
    // collective traffic: at least the puts are visible.
    EXPECT_GE(m.tnet().stats().messages, 36u);
    EXPECT_GE(m.tnet().stats().payloadBytes, 3u * 4u * 1024u);
    EXPECT_GT(m.tnet().stats().distance.scalar().mean(), 0.0);
}

TEST(Machine, RunsAreDeterministic)
{
    Tick finish[2];
    std::uint64_t events[2];
    for (int run = 0; run < 2; ++run) {
        hw::Machine m(small(8));
        auto r = run_spmd(m,
                          [](Context &ctx) { ring_program(ctx, 5); });
        ASSERT_FALSE(r.deadlock);
        finish[run] = r.finishTick;
        events[run] = m.sim().executed();
    }
    EXPECT_EQ(finish[0], finish[1]);
    EXPECT_EQ(events[0], events[1]);
}

TEST(Machine, BackToBackProgramsShareOneMachine)
{
    hw::Machine m(small(4));
    auto r1 = run_spmd(m, [](Context &ctx) { ring_program(ctx, 2); });
    ASSERT_FALSE(r1.deadlock);
    Tick t1 = r1.finishTick;
    auto r2 = run_spmd(m, [](Context &ctx) { ring_program(ctx, 2); });
    ASSERT_FALSE(r2.deadlock);
    // Time keeps advancing; the second run starts where the first
    // ended.
    EXPECT_GT(r2.finishTick, t1);
}

TEST(Machine, LinkContentionSlowsSharedIntermediateLinks)
{
    // On the 2x4 torus of an 8-cell machine, dimension-order routes
    // 4 -> 1 and 6 -> 3 both traverse the directed link 5 -> 3 while
    // ending at *different* receivers (so receive-DMA serialization
    // cannot mask the effect). With link contention the second
    // message waits out the first's body on the shared link.
    ASSERT_EQ(net::Torus::squarest(8).width(), 2);
    auto run_with = [](bool contention) {
        hw::MachineConfig cfg = small(8);
        cfg.linkContention = contention;
        hw::Machine m(cfg);
        auto r = run_spmd(m, [](Context &ctx) {
            constexpr std::uint32_t bytes = 1 << 16;
            Addr buf = ctx.alloc(bytes);
            Addr rf = ctx.alloc_flag();
            ctx.barrier();
            if (ctx.id() == 4)
                ctx.put(1, buf, buf, bytes, no_flag, rf);
            if (ctx.id() == 6)
                ctx.put(3, buf, buf, bytes, no_flag, rf);
            if (ctx.id() == 1 || ctx.id() == 3)
                ctx.wait_flag(rf, 1);
            ctx.barrier();
        });
        EXPECT_FALSE(r.deadlock);
        return r.finishTick;
    };
    Tick plain = run_with(false);
    Tick contended = run_with(true);
    EXPECT_GT(contended, plain);
    // Roughly one extra message body on the shared link.
    EXPECT_GT(contended - plain, us_to_ticks(0.04 * (1 << 16) / 2));
}

TEST(Machine, TlbSeesTrafficDuringDma)
{
    hw::Machine m(small(2));
    run_spmd(m, [](Context &ctx) {
        Addr buf = ctx.alloc(64 << 10); // crosses 16 pages
        Addr rf = ctx.alloc_flag();
        if (ctx.id() == 0)
            ctx.put(1, buf, buf, 64 << 10, no_flag, rf);
        if (ctx.id() == 1)
            ctx.wait_flag(rf, 1);
        ctx.barrier();
    });
    const auto &tlb0 = m.cell(0).mc().mmu().stats();
    const auto &tlb1 = m.cell(1).mc().mmu().stats();
    // Gather on 0 and scatter on 1 both walked multiple pages.
    EXPECT_GE(tlb0.hits + tlb0.misses, 16u);
    EXPECT_GE(tlb1.hits + tlb1.misses, 16u);
    EXPECT_EQ(tlb0.faults, 0u);
}

TEST(Machine, FunctionalTraceFileReplayPipeline)
{
    // The full workflow of Section 5: run on the "real machine",
    // dump the trace to its file format, read it back, replay under
    // both models, and check the hardware model wins.
    hw::Machine m(small(8));
    Trace trace;
    auto r = run_spmd(
        m, [](Context &ctx) { ring_program(ctx, 10); }, &trace);
    ASSERT_FALSE(r.deadlock);

    std::string text = mlsim::trace_to_text(trace);
    Trace loaded = mlsim::trace_from_text(text);
    ASSERT_EQ(loaded.total_events(), trace.total_events());

    double base =
        mlsim::Replay(loaded, mlsim::Params::ap1000()).run().totalUs;
    double plus =
        mlsim::Replay(loaded, mlsim::Params::ap1000_plus())
            .run()
            .totalUs;
    EXPECT_LT(plus, base);
}

TEST(Machine, StatsJsonRoundTripsWithPerCellCounters)
{
    hw::Machine m(small(4));
    run_spmd(m, [](Context &ctx) { ring_program(ctx, 3); });

    std::string err;
    EXPECT_TRUE(obs::json_valid(m.stats_json(), &err)) << err;
    EXPECT_TRUE(obs::json_valid(m.stats_json(false), &err)) << err;

    const obs::StatsRegistry &r = m.stats_registry();
    for (int c = 0; c < 4; ++c) {
        std::string p = strprintf("cell%d.", c);
        EXPECT_GT(r.value(p + "msc.puts_sent"), 0u) << c;
        EXPECT_NE(r.find(p + "msc.user_queue.pushes"), nullptr);
        EXPECT_NE(r.find(p + "msc.user_queue.max_hw_depth"),
                  nullptr);
        EXPECT_NE(r.find(p + "mc.flag_increments"), nullptr);
        EXPECT_NE(r.find(p + "commreg.stores"), nullptr);
        EXPECT_NE(r.find(p + "mmu.tlb_hits"), nullptr);
        EXPECT_NE(r.find(p + "ring.deposits"), nullptr);
    }
    // 3 iterations x 4 cells, one data PUT each.
    EXPECT_EQ(r.sum("*.msc.puts_sent"), 12u);

    // The on-disk dump is the same validated document.
    std::string path = testing::TempDir() + "ap_stats_rt.json";
    ASSERT_TRUE(m.dump_stats(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_TRUE(obs::json_valid(ss.str(), &err)) << err;
    std::remove(path.c_str());
}

TEST(Machine, ThreadsSetKernelShardsAndLeaveMachineStatsAlone)
{
    // threads=1 is a one-shard kernel with no shard or window
    // telemetry; threads=4 (deterministic) shards it four ways. What
    // the machine did — every stat outside the kernel's "sim."
    // self-telemetry — must not depend on the shard count.
    auto run = [](int threads) {
        hw::MachineConfig cfg = small(8);
        cfg.threads = threads;
        cfg.deterministic = true;
        auto m = std::make_unique<hw::Machine>(cfg);
        run_spmd(*m, [](Context &ctx) { ring_program(ctx, 3); });
        return m;
    };
    std::unique_ptr<hw::Machine> one = run(1);
    std::unique_ptr<hw::Machine> four = run(4);
    EXPECT_EQ(one->sim().shards(), 1);
    EXPECT_EQ(four->sim().shards(), 4);

    const obs::StatsRegistry &r1 = one->stats_registry();
    EXPECT_NE(r1.find("sim.executed_events"), nullptr);
    EXPECT_EQ(r1.find("sim.kernel.shards"), nullptr);
    EXPECT_EQ(r1.find("sim.window.count"), nullptr);
    EXPECT_EQ(r1.find("sim.shard.0.executed"), nullptr);
    EXPECT_EQ(four->stats_registry().value("sim.kernel.shards"), 4u);

    EXPECT_EQ(r1.dump_json(false, "sim."),
              four->stats_registry().dump_json(false, "sim."));
}

TEST(Machine, FaultHookCoversEveryCell)
{
    hw::Machine m(small(4));
    int faults = 0;
    m.set_fault_hook([&](CellId, Addr, bool) { ++faults; });
    set_quiet(true);
    run_spmd(m, [](Context &ctx) {
        if (ctx.id() == 2)
            ctx.cell().mc().mmu().unmap(0x40000);
        ctx.barrier();
        Addr buf = ctx.alloc(32);
        if (ctx.id() != 2)
            ctx.put(2, 0x40000, buf, 32, no_flag, no_flag);
        ctx.barrier();
    });
    set_quiet(false);
    EXPECT_EQ(faults, 3);
    EXPECT_EQ(m.cell(2).msc().stats().remoteFaults, 3u);
}

namespace
{

/**
 * One program that pays every cost the emulator charges: SEND and
 * RECEIVE (ring deposit, search, per-byte copy), PUT with send and
 * receive flags (enqueue, send DMA setup and stream, T-net transit,
 * receive DMA, flag updates), GET, remote load/store issue, a
 * communication-register allreduce, an S-net barrier, a B-net
 * broadcast, a vector allreduce and flop-rated compute, and a burst
 * that spills the user queue into DRAM so the MSC+ takes refill
 * interrupts.
 */
void
every_cost_program(Context &ctx)
{
    const int n = ctx.nprocs();
    const CellId me = ctx.id();
    const CellId right = (me + 1) % n;
    const CellId left = (me + n - 1) % n;
    Addr buf = ctx.alloc(4096);
    Addr in = ctx.alloc(4096);
    Addr vec = ctx.alloc(64 * sizeof(double));
    Addr sf = ctx.alloc_flag();
    Addr rf = ctx.alloc_flag();
    Addr gf = ctx.alloc_flag();
    Addr bf = ctx.alloc_flag();

    ctx.send(right, 7, buf, 256);
    ctx.recv(left, 7, in, 4096);

    ctx.put(right, in, buf, 1024, sf, rf, true);
    ctx.wait_flag(sf, 1);
    ctx.wait_flag(rf, 1);
    ctx.wait_all_acks();

    ctx.get(left, in, buf, 512, no_flag, gf);
    ctx.wait_flag(gf, 1);

    ctx.remote_store_u32(right, in, me);
    ctx.remote_load_u32(left, in);

    ctx.allreduce(static_cast<double>(me), ReduceOp::sum);
    ctx.barrier();

    ctx.broadcast(3, buf, 2048, bf);
    if (me != 3)
        ctx.wait_flag(bf, 1);

    for (int i = 0; i < 64; ++i)
        ctx.poke_f64(vec + i * sizeof(double), me + i);
    ctx.allreduce_vector(vec, 64, ReduceOp::sum);
    ctx.compute_flops(1234.0 + me);

    // 24 PUTs against the 8-command hardware queue.
    if (me == 0)
        for (int i = 0; i < 24; ++i)
            ctx.put(5, in, buf, 64, no_flag, rf);
    if (me == 5)
        ctx.wait_flag(rf, 25);
    ctx.barrier();
}

} // namespace

TEST(Machine, EveryCostKeyPinnedTicks)
{
    // Pins simulated time for a program that reads every cost the
    // emulator charges: a change to any charge, or to the order in
    // which they are summed, moves the finish tick or the digest.
    hw::Machine m(small(16));
    sim::TickHistory hist;
    m.sim().set_history(&hist);
    auto r = run_spmd(m, every_cost_program);
    ASSERT_FALSE(r.deadlock);
    EXPECT_TRUE(r.errors.empty());
    EXPECT_GT(m.cell(0).msc().user_queue().stats().refillInterrupts,
              0u);
    EXPECT_GT(m.bnet().count(), 0u);
    EXPECT_EQ(r.finishTick, Tick{1505500});
    EXPECT_EQ(hist.digest(), "events=3512 hash=0x3215bc8b76f8e983");
}

TEST(Machine, EmulatorChargesFromTheCostTable)
{
    // The machine's cost table is what the emulator charges: doubling
    // network_delay_time lengthens a one-hop PUT by exactly one more
    // hop delay.
    auto landed = [](double delayUs) {
        hw::MachineConfig cfg = small(2);
        cfg.cost.network_delay_time = delayUs;
        hw::Machine m(cfg);
        Tick at = 0;
        auto r = run_spmd(m, [&](Context &ctx) {
            Addr buf = ctx.alloc(1024);
            Addr rf = ctx.alloc_flag();
            if (ctx.id() == 0) {
                ctx.put(1, buf, buf, 1024, no_flag, rf);
            } else {
                ctx.wait_flag(rf, 1);
                at = ctx.now();
            }
        });
        EXPECT_FALSE(r.deadlock);
        return at;
    };
    ASSERT_EQ(net::Torus::squarest(2).distance(0, 1), 1);
    const double d = mlsim::Params::ap1000_plus().network_delay_time;
    Tick base = landed(d);
    EXPECT_GT(base, us_to_ticks(d));
    EXPECT_EQ(landed(2 * d) - base, us_to_ticks(d));
}
