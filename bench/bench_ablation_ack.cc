/**
 * @file
 * Acknowledgement-policy ablation (Section 5.4).
 *
 * "Current implementation of the VPP Fortran run-time system
 * requires an acknowledgment for every put() and put_stride() ...
 * Since no PUT operations except the last PUT for every destination
 * cell need acknowledgment, the number of get() operations can be
 * decreased dramatically. The VPP Fortran run-time system is now
 * under improvement for this purpose."
 *
 * This bench runs that improvement: a TOMCATV-style aggregated
 * OVERLAP FIX over several arrays (multiple PUTs per neighbour per
 * completion round) under ack-every-PUT versus
 * ack-last-PUT-per-destination, on the functional machine.
 */

#include <cstdio>

#include "base/logging.hh"
#include "base/table.hh"
#include "core/ap1000p.hh"
#include "obs/cli.hh"
#include "runtime/rts.hh"

using namespace ap;
using namespace ap::core;
using namespace ap::rt;
using obs::Better;
using obs::MetricClass;

namespace
{

struct Result
{
    double simUs = 0;
    std::uint64_t probes = 0;       ///< ack probes, whole machine
    std::uint64_t messages = 0;     ///< all T-net messages
};

/** @p arrays overlap areas exchanged together, @p rounds times. */
Result
halo_workload(AckPolicy policy, int cells, int arrays, int rounds)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(cells);
    cfg.memBytesPerCell = 4 << 20;
    hw::Machine m(cfg);

    Result out{};
    std::vector<std::uint64_t> probes(
        static_cast<std::size_t>(cells), 0);
    run_spmd(m, [&](Context &ctx) {
        std::vector<std::unique_ptr<GArray2D>> as;
        std::vector<GArray2D *> ptrs;
        for (int a = 0; a < arrays; ++a) {
            as.push_back(std::make_unique<GArray2D>(
                ctx, 64, 32, SplitDim::rows, 1));
            ptrs.push_back(as.back().get());
        }
        Runtime rts(ctx, policy);
        for (GArray2D *a : ptrs) {
            int lo = a->lo(ctx.id()), cnt = a->count(ctx.id());
            for (int r = lo; r < lo + cnt; ++r)
                for (int c = 0; c < 32; ++c)
                    a->set_local(r, c, r + c);
        }
        ctx.barrier();
        Tick t0 = ctx.now();
        for (int r = 0; r < rounds; ++r)
            rts.overlap_fix_many(ptrs);
        if (ctx.id() == 0)
            out.simUs = ticks_to_us(ctx.now() - t0);
        probes[static_cast<std::size_t>(ctx.id())] =
            ctx.stats().acksRequested;
    });
    for (std::uint64_t p : probes)
        out.probes += p;
    out.messages = m.tnet().stats().messages;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    obs::BenchReport report("ablation_ack");
    for (int i = 1; i < argc; ++i)
        if (!report.consume_arg(argv[i]))
            fatal("unknown argument '%s' (only --json-out[=FILE])",
                  argv[i]);

    std::printf("Acknowledge-policy ablation (Section 5.4): "
                "aggregated OVERLAP FIX over N arrays,\n10 rounds, "
                "functional machine\n\n");

    Table t({"Cells", "Arrays", "Policy", "Sim us", "Ack probes",
             "T-net msgs"});
    for (int cells : {4, 16}) {
        for (int arrays : {1, 2, 4, 8}) {
            for (AckPolicy pol : {AckPolicy::every_put,
                                  AckPolicy::last_put_per_dest}) {
                Result r = halo_workload(pol, cells, arrays, 10);
                std::string k = strprintf(
                    "cells%d.arrays%d.%s", cells, arrays,
                    pol == AckPolicy::every_put ? "every_put"
                                                : "last_put");
                report.set(k + ".sim_us", r.simUs, "us",
                           MetricClass::sim, Better::lower);
                report.set(k + ".ack_probes", r.probes, "count",
                           MetricClass::count, Better::lower);
                report.set(k + ".tnet_messages", r.messages, "count",
                           MetricClass::count, Better::lower);
                t.add_row(
                    {strprintf("%d", cells),
                     strprintf("%d", arrays),
                     pol == AckPolicy::every_put ? "every PUT"
                                                 : "last PUT/dest",
                     Table::num(r.simUs, 1),
                     strprintf("%llu",
                               static_cast<unsigned long long>(
                                   r.probes)),
                     strprintf("%llu",
                               static_cast<unsigned long long>(
                                   r.messages))});
            }
        }
    }
    t.print();
    std::printf("\nWith N arrays per completion round, every-PUT "
                "issues N probes per neighbour\nwhile last-PUT "
                "issues one: the probe count (and the GET traffic it "
                "implies)\ndrops by the aggregation factor, as "
                "Section 5.4 predicts.\n");
    return report.write() ? 0 : 1;
}
