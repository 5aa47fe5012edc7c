/**
 * @file
 * Queue-overflow ablation (Section 4.1 / 5.4).
 *
 * The paper's MLSim "does not include a queue overflow model ...
 * MLSim assumes that queues are long enough." The functional machine
 * models the full mechanism — spill to DRAM, OS refill interrupt —
 * so this bench quantifies what the paper could not: how completion
 * time and interrupt count vary with the MSC+ queue capacity under a
 * PUT burst.
 */

#include <cstdio>

#include "base/logging.hh"
#include "base/table.hh"
#include "core/ap1000p.hh"
#include "obs/cli.hh"

using namespace ap;
using namespace ap::core;
using obs::Better;
using obs::MetricClass;

namespace
{

struct Result
{
    double simUs;
    std::uint64_t spills;
    std::uint64_t refills;
    std::uint64_t maxBacklog;
};

Result
burst(int queue_words, int puts, std::uint32_t bytes)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.memBytesPerCell = 8 << 20;
    cfg.queueCapacityWords = queue_words;
    hw::Machine m(cfg);

    Result r{};
    run_spmd(m, [&](Context &ctx) {
        Addr buf = ctx.alloc(bytes);
        Addr rf = ctx.alloc_flag();
        ctx.barrier();
        Tick t0 = ctx.now();
        if (ctx.id() == 0)
            for (int i = 0; i < puts; ++i)
                ctx.put(1, buf, buf, bytes, no_flag, rf);
        if (ctx.id() == 1) {
            ctx.wait_flag(rf, static_cast<std::uint32_t>(puts));
            r.simUs = ticks_to_us(ctx.now() - t0);
        }
    });
    const auto &qs = m.cell(0).msc().user_queue().stats();
    r.spills = qs.spills;
    r.refills = qs.refillInterrupts;
    r.maxBacklog = qs.maxSpillDepth;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    obs::BenchReport report("ablation_queue");
    for (int i = 1; i < argc; ++i)
        if (!report.consume_arg(argv[i]))
            fatal("unknown argument '%s' (only --json-out[=FILE])",
                  argv[i]);

    std::printf("Queue-overflow ablation: 256 PUTs of 256 bytes, "
                "MSC+ queue capacity sweep\n\n");

    Table t({"Queue words", "Commands held", "Sim us", "Spills",
             "Refill intrs", "Max DRAM backlog"});
    for (int words : {8, 16, 32, 64, 128, 256, 1024, 4096}) {
        Result r = burst(words, 256, 256);
        t.add_row({strprintf("%d", words),
                   strprintf("%d", words / 8),
                   Table::num(r.simUs, 1),
                   strprintf("%llu",
                             static_cast<unsigned long long>(
                                 r.spills)),
                   strprintf("%llu",
                             static_cast<unsigned long long>(
                                 r.refills)),
                   strprintf("%llu",
                             static_cast<unsigned long long>(
                                 r.maxBacklog))});

        std::string k = strprintf("words%d", words);
        report.set(k + ".sim_us", r.simUs, "us", MetricClass::sim,
                   Better::lower);
        report.set(k + ".spills", r.spills, "count", MetricClass::count,
                   Better::lower);
        report.set(k + ".refill_interrupts", r.refills, "count",
                   MetricClass::count, Better::lower);
        report.set(k + ".max_dram_backlog", r.maxBacklog, "count",
                   MetricClass::count, Better::lower);
    }
    t.print();

    std::printf("\nThe paper's hardware point (64 words = 8 "
                "commands) sits near the knee:\nsmaller queues "
                "multiply OS refill interrupts; past the burst size "
                "the\noverflow machinery never engages and time "
                "flattens at the DMA-pipeline bound.\n");
    return report.write() ? 0 : 1;
}
