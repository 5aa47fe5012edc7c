/**
 * @file
 * Parallel-kernel scaling sweep: events/second of the sharded event
 * kernel on a PHOLD-style torus workload, over machine sizes
 * {8x8, 16x16, 32x32, 64x64} cells and {1, 2, 4, 8} worker threads.
 *
 * The workload drives the kernel directly (no functional machine):
 * every cell carries one logical event in flight; executing it mixes
 * the cell's state and schedules a successor either on the cell
 * itself (short delay, same shard) or on a torus neighbour (delay >=
 * the lookahead, usually a cross-shard handoff). That is the
 * communication shape of the functional machine — mostly-local
 * traffic with conservative-window handoffs — reduced to pure kernel
 * overhead, so the sweep isolates what sharding buys.
 *
 * threads=1 runs one shard (the sequential loop the machine uses);
 * rows report events/sec and the speedup over the one-shard row of
 * the same size.
 *
 * --window-batch appends a small-torus sweep that prices the
 * conservative-window barrier: events per window, wall microseconds
 * per window, and the per-window overhead versus the sequential
 * kernel's event rate. Small machines close only a handful of events
 * per window, so the two barriers bounding each window dominate —
 * the numbers pin the starting point for window batching / wakeup
 * elision (ROADMAP item 1's remaining headroom).
 *
 *   bench_scale [--quick] [--window-batch] [--json-out[=FILE]]
 */

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/table.hh"
#include "obs/cli.hh"
#include "sim/eventq.hh"

using namespace ap;
using namespace ap::sim;
using obs::Better;
using obs::MetricClass;

namespace
{

/** Cross-shard lower bound, in the T-net one-hop ballpark. */
constexpr Tick lookahead = 320;

struct CaseResult
{
    std::uint64_t events = 0;
    double seconds = 0.0;
    std::uint64_t windows = 0;
};

std::uint64_t
mix(std::uint64_t x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/**
 * One sweep point: @p side x @p side cells, @p threads workers,
 * events until @p horizon model ticks.
 */
CaseResult
run_case(int side, int threads, Tick horizon)
{
    const int cells = side * side;

    ShardConfig sc;
    sc.shards = threads;
    sc.lookahead = lookahead;
    sc.affinityMap = [cells, threads](int a) {
        if (a < 0)
            return 0;
        if (a >= cells)
            return threads - 1;
        return static_cast<int>(static_cast<long long>(a) * threads /
                                cells);
    };
    Simulator sim(sc);

    std::vector<std::uint64_t> state(
        static_cast<std::size_t>(cells));
    for (int c = 0; c < cells; ++c)
        state[static_cast<std::size_t>(c)] =
            0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(c);

    // One event in flight per cell (classic PHOLD population).
    std::function<void(int, Tick)> fire = [&](int cell, Tick when) {
        sim.schedule_for(cell, when, [&, cell]() {
            std::uint64_t &s =
                state[static_cast<std::size_t>(cell)];
            s = mix(s);
            // 3 of 4 successors stay local; the rest hop to a torus
            // neighbour and pay at least the lookahead.
            int next = cell;
            Tick delay = 40 + static_cast<Tick>(s % 64);
            if ((s & 3) == 0) {
                int x = cell % side;
                int y = cell / side;
                switch ((s >> 2) & 3) {
                  case 0: x = (x + 1) % side; break;
                  case 1: x = (x + side - 1) % side; break;
                  case 2: y = (y + 1) % side; break;
                  default: y = (y + side - 1) % side; break;
                }
                next = y * side + x;
                delay = lookahead + static_cast<Tick>(s % 256);
            }
            Tick when2 = sim.now() + delay;
            if (when2 < horizon)
                fire(next, when2);
        });
    };
    for (int c = 0; c < cells; ++c)
        fire(c, static_cast<Tick>(
                    state[static_cast<std::size_t>(c)] % 128));

    auto t0 = std::chrono::steady_clock::now();
    sim.run();
    auto t1 = std::chrono::steady_clock::now();

    CaseResult r;
    r.events = sim.executed();
    r.seconds = std::chrono::duration<double>(t1 - t0).count();
    r.windows = sim.windows();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    obs::BenchReport report("bench_scale");
    bool quick = false;
    bool windowBatch = false;
    for (int i = 1; i < argc; ++i) {
        if (report.consume_arg(argv[i]))
            continue;
        if (std::string(argv[i]) == "--quick")
            quick = true;
        else if (std::string(argv[i]) == "--window-batch")
            windowBatch = true;
        else
            fatal("unknown argument '%s' (only --quick, "
                  "--window-batch, --json-out[=FILE])",
                  argv[i]);
    }

    const std::vector<int> sides =
        quick ? std::vector<int>{8, 16}
              : std::vector<int>{8, 16, 32, 64};
    const std::vector<int> threadCounts =
        quick ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
    const Tick horizon = quick ? 20000 : 200000;

    std::printf("Parallel-kernel scaling: PHOLD torus, lookahead "
                "%llu ticks, horizon %llu ticks\n\n",
                static_cast<unsigned long long>(lookahead),
                static_cast<unsigned long long>(horizon));

    Table t({"Cells", "Threads", "Events", "Wall s", "Events/s",
             "Speedup", "Windows"});

    for (int side : sides) {
        double baseEps = 0.0;
        for (int threads : threadCounts) {
            CaseResult r = run_case(side, threads, horizon);
            double eps =
                r.seconds > 0.0
                    ? static_cast<double>(r.events) / r.seconds
                    : 0.0;
            if (threads == 1)
                baseEps = eps;
            double speedup = baseEps > 0.0 ? eps / baseEps : 0.0;
            t.add_row({strprintf("%dx%d", side, side),
                       strprintf("%d", threads),
                       strprintf("%llu",
                                 static_cast<unsigned long long>(
                                     r.events)),
                       strprintf("%.3f", r.seconds),
                       strprintf("%.0f", eps),
                       strprintf("%.2f", speedup),
                       strprintf("%llu",
                                 static_cast<unsigned long long>(
                                     r.windows))});

            std::string k = strprintf("s%dx%d.t%d", side, side,
                                      threads);
            report.set(k + ".events", r.events, "count",
                       MetricClass::count, Better::lower);
            report.set(k + ".wall_s", r.seconds, "s", MetricClass::host,
                       Better::lower);
            report.set(k + ".events_per_sec", eps, "event/s",
                       MetricClass::host, Better::higher);
            report.set(k + ".speedup_vs_t1", speedup, "x",
                       MetricClass::host, Better::higher);
        }
    }

    t.print();

    // The barrier-headroom note: on small tori each conservative
    // window closes only a few events, so the two barriers bounding
    // it dominate the wall clock. Price that per window by comparing
    // the sharded wall time against the time the same events would
    // take at the sequential kernel's rate spread over the workers —
    // everything left is window overhead (barriers, wakeups, merge).
    if (windowBatch) {
        std::printf("\nWindow-batch headroom (small tori): per-"
                    "window cost to recover by batching windows\n\n");
        Table wt({"Cells", "Threads", "Events/win", "Wall us/win",
                  "Overhead us/win", "Overhead %"});
        for (int side : {8, 16}) {
            CaseResult seq = run_case(side, 1, horizon);
            double seqEps =
                seq.seconds > 0.0
                    ? static_cast<double>(seq.events) / seq.seconds
                    : 0.0;
            for (int threads : {2, 4}) {
                CaseResult r = run_case(side, threads, horizon);
                if (r.windows == 0 || seqEps <= 0.0)
                    continue;
                double wallUsPerWin =
                    r.seconds * 1e6 /
                    static_cast<double>(r.windows);
                double idealS = static_cast<double>(r.events) /
                                (seqEps * threads);
                double overheadUsPerWin =
                    (r.seconds - idealS) * 1e6 /
                    static_cast<double>(r.windows);
                double eventsPerWin =
                    static_cast<double>(r.events) /
                    static_cast<double>(r.windows);
                wt.add_row(
                    {strprintf("%dx%d", side, side),
                     strprintf("%d", threads),
                     strprintf("%.1f", eventsPerWin),
                     strprintf("%.2f", wallUsPerWin),
                     strprintf("%.2f", overheadUsPerWin),
                     strprintf("%.0f", 100.0 * overheadUsPerWin /
                                           wallUsPerWin)});
                std::string k = strprintf("window_batch.s%dx%d.t%d",
                                          side, side, threads);
                report.set(k + ".events_per_window", eventsPerWin,
                           "count", MetricClass::count, Better::higher);
                report.set(k + ".wall_us_per_window", wallUsPerWin,
                           "us", MetricClass::host, Better::lower);
                report.set(k + ".overhead_us_per_window",
                           overheadUsPerWin, "us", MetricClass::host,
                           Better::lower);
            }
        }
        wt.print();
        std::printf(
            "\nnote: Overhead us/win is the wall time a window costs "
            "beyond executing its\nevents at the sequential rate "
            "across the workers. Batching k windows per\nbarrier (or "
            "eliding wakeups of idle shards) can recover up to that "
            "times\n(k-1)/k — the pinned target for the next kernel "
            "PR.\n");
    }

    if (!report.write())
        fatal("cannot write %s", report.path().c_str());
    return 0;
}
