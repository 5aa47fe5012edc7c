/**
 * @file
 * Span-layer overhead guard.
 *
 * The flight recorder is designed to stay on in production runs, so
 * its cost has a budget: the host wall-clock of the simulator driving
 * a PUT-heavy workload with span mode `flight` must stay within 5% of
 * mode `off`. This bench measures all three modes (off / flight /
 * full) with min-of-repeats wall timing, checks that the *simulated*
 * result is bit-identical across modes (recording must never perturb
 * the machine), prints a comparison table, and emits
 * BENCH_trace_overhead.json via --json-out.
 *
 *   bench_trace_overhead [--repeats=N] [--puts=N] [--bytes=N]
 *                        [--check] [--json-out[=FILE]]
 *
 * --check turns the 5% flight-vs-off budget into the exit status
 * (CI mode); without it the ratios are informational.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "base/logging.hh"
#include "core/ap1000p.hh"
#include "obs/cli.hh"
#include "obs/span.hh"

using namespace ap;
using namespace ap::core;
using obs::Better;
using obs::MetricClass;

namespace
{

struct ModeResult
{
    double wallMs = 0;           ///< best-of-repeats host time
    Tick finish = 0;             ///< simulated finish tick
    std::uint64_t recorded = 0;  ///< span events recorded
};

struct Workload
{
    int puts = 512;
    std::uint32_t bytes = 4096;
    int repeats = 5;
};

ModeResult
run_mode(obs::SpanMode mode, const Workload &w)
{
    ModeResult best;
    for (int r = 0; r < w.repeats; ++r) {
        hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
        cfg.memBytesPerCell = 8 << 20;
        cfg.spanMode = mode;
        hw::Machine m(cfg);

        auto t0 = std::chrono::steady_clock::now();
        SpmdResult res = run_spmd(m, [&](Context &ctx) {
            Addr buf = ctx.alloc(w.bytes);
            Addr rf = ctx.alloc_flag();
            ctx.barrier();
            if (ctx.id() == 0)
                for (int i = 0; i < w.puts; ++i)
                    ctx.put(1, buf, buf, w.bytes, no_flag, rf);
            if (ctx.id() == 1)
                ctx.wait_flag(
                    rf, static_cast<std::uint64_t>(w.puts));
            ctx.barrier();
        });
        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        if (res.failed())
            fatal("trace-overhead workload failed in mode %s",
                  to_string(mode));

        if (r == 0 || ms < best.wallMs)
            best.wallMs = ms;
        Tick finish = res.finishTick;
        if (r > 0 && finish != best.finish)
            fatal("mode %s: repeat %d finished at tick %llu, "
                  "expected %llu (nondeterministic run?)",
                  to_string(mode), r,
                  static_cast<unsigned long long>(finish),
                  static_cast<unsigned long long>(best.finish));
        best.finish = finish;
        best.recorded = m.spans().recorded();
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    Workload w;
    bool check = false;
    obs::BenchReport report("trace_overhead");
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strncmp(a, "--repeats=", 10) == 0)
            w.repeats = std::atoi(a + 10);
        else if (std::strncmp(a, "--puts=", 7) == 0)
            w.puts = std::atoi(a + 7);
        else if (std::strncmp(a, "--bytes=", 8) == 0)
            w.bytes =
                static_cast<std::uint32_t>(std::atoi(a + 8));
        else if (std::strcmp(a, "--check") == 0)
            check = true;
        else if (report.consume_arg(a))
            ;
        else {
            std::fprintf(
                stderr,
                "usage: bench_trace_overhead [--repeats=N] "
                "[--puts=N] [--bytes=N] [--check] "
                "[--json-out[=FILE]]\n");
            return 2;
        }
    }

    ModeResult off = run_mode(obs::SpanMode::off, w);
    ModeResult flight = run_mode(obs::SpanMode::flight, w);
    ModeResult full = run_mode(obs::SpanMode::full, w);

    // Recording must be pure observation: same simulated history.
    if (flight.finish != off.finish || full.finish != off.finish)
        fatal("span recording perturbed the simulation: finish "
              "ticks off=%llu flight=%llu full=%llu",
              static_cast<unsigned long long>(off.finish),
              static_cast<unsigned long long>(flight.finish),
              static_cast<unsigned long long>(full.finish));

    double flightRatio = flight.wallMs / off.wallMs;
    double fullRatio = full.wallMs / off.wallMs;
    double simUs = ticks_to_us(off.finish);
    std::printf(
        "trace overhead: %d x %u B PUT, best of %d repeats, "
        "sim time %.1f us\n"
        "  mode     wall(ms)   vs off   events\n"
        "  off      %8.2f       --   %8llu\n"
        "  flight   %8.2f   %+5.1f%%   %8llu\n"
        "  full     %8.2f   %+5.1f%%   %8llu\n",
        w.puts, w.bytes, w.repeats, simUs, off.wallMs,
        static_cast<unsigned long long>(off.recorded),
        flight.wallMs, (flightRatio - 1.0) * 100.0,
        static_cast<unsigned long long>(flight.recorded),
        full.wallMs, (fullRatio - 1.0) * 100.0,
        static_cast<unsigned long long>(full.recorded));

    report.set("workload.puts", static_cast<std::uint64_t>(w.puts),
               "count", MetricClass::count, Better::lower);
    report.set("workload.bytes", static_cast<std::uint64_t>(w.bytes),
               "B", MetricClass::count, Better::lower);
    report.set("workload.sim_us", simUs, "us", MetricClass::sim,
               Better::lower);
    report.set("off.wall_ms", off.wallMs, "ms", MetricClass::host,
               Better::lower);
    report.set("flight.wall_ms", flight.wallMs, "ms", MetricClass::host,
               Better::lower);
    report.set("flight.ratio", flightRatio, "x", MetricClass::host,
               Better::lower);
    report.set("flight.events", flight.recorded, "count",
               MetricClass::count, Better::lower);
    report.set("full.wall_ms", full.wallMs, "ms", MetricClass::host,
               Better::lower);
    report.set("full.ratio", fullRatio, "x", MetricClass::host,
               Better::lower);
    report.set("full.events", full.recorded, "count",
               MetricClass::count, Better::lower);
    report.write();

    if (check && flightRatio > 1.05) {
        std::fprintf(stderr,
                     "FAIL: flight-recorder overhead %.1f%% exceeds "
                     "the 5%% budget\n",
                     (flightRatio - 1.0) * 100.0);
        return 1;
    }
    return 0;
}
