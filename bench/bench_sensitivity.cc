/**
 * @file
 * Sensitivity analysis: how much of the AP1000+'s win each hardware
 * choice buys.
 *
 * Two sweeps on the most communication-sensitive workloads:
 *
 *  1. DMA setup cost (put_dma_set_time) swept from the MSC+'s 0.5 us
 *     up to the AP1000's software 15 us, on TOMCATV-without-stride —
 *     thousands of 8-byte transfers make the per-command pipeline
 *     cost the binding constraint.
 *  2. Processor improvement (1/computation_factor) swept at fixed
 *     communication hardware, on SCG — the Amdahl wall: as the CPU
 *     gets faster the software model's speedup saturates while the
 *     hardware model keeps tracking the processor.
 */

#include <cstdio>

#include "apps/app.hh"
#include "base/logging.hh"
#include "base/table.hh"
#include "mlsim/params.hh"
#include "mlsim/replay.hh"
#include "obs/cli.hh"

using namespace ap;
using namespace ap::apps;
using namespace ap::mlsim;
using obs::Better;
using obs::MetricClass;

int
main(int argc, char **argv)
{
    obs::BenchReport report("sensitivity");
    for (int i = 1; i < argc; ++i)
        if (!report.consume_arg(argv[i]))
            fatal("unknown argument '%s' (only --json-out[=FILE])",
                  argv[i]);

    // ---- sweep 1: DMA setup cost --------------------------------------
    std::printf("Sweep 1: MSC+ DMA setup cost vs TOMCATV-no-stride "
                "speedup over the AP1000\n\n");

    core::Trace tc = make_app("TC no st")->generate();
    double t_base = Replay(tc, Params::ap1000()).run().totalUs;

    Table t1({"put_dma_set_time (us)", "Speedup over AP1000",
              "Fraction of paper's 11.55"});
    for (double dma : {0.5, 1.0, 2.0, 4.0, 8.0, 15.0}) {
        Params p = Params::ap1000_plus();
        p.put_dma_set_time = dma;
        double t = Replay(tc, p).run().totalUs;
        double s = t_base / t;
        t1.add_row({Table::num(dma, 1), Table::num(s, 2),
                    Table::num(s / 11.55, 2)});

        // Tenths of a us keep the segment free of '.' separators.
        std::string k = strprintf("dma_sweep.dma_us_x10_%d",
                                  static_cast<int>(dma * 10 + 0.5));
        report.set(k + ".speedup", s, "x", MetricClass::sim,
                   Better::higher);
        report.set(k + ".fraction_of_paper", s / 11.55, "x",
                   MetricClass::sim, Better::higher);
    }
    t1.print();
    std::printf("\nAt the paper's 0.5 us the hardware keeps its full "
                "advantage; at the software\nmodel's 15 us the "
                "per-command pipeline eats most of it — the knob the "
                "MSC+'s\nRAM-resident queues exist to keep small.\n");

    // ---- sweep 2: processor improvement --------------------------------
    std::printf("\nSweep 2: processor improvement vs SCG speedup "
                "(hardware vs software handling)\n\n");

    core::Trace scg = make_app("SCG")->generate();
    double scg_base = Replay(scg, Params::ap1000()).run().totalUs;

    Table t2({"CPU improvement", "AP1000+ style", "software style",
              "hw/sw ratio"});
    for (double speed : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
        Params hw = Params::ap1000_plus();
        hw.computation_factor = 1.0 / speed;
        Params sw = Params::ap1000();
        sw.name = "AP1000 sw";
        sw.computation_factor = 1.0 / speed;

        double t_hw = Replay(scg, hw).run().totalUs;
        double t_sw = Replay(scg, sw).run().totalUs;
        t2.add_row({strprintf("%.0fx", speed),
                    Table::num(scg_base / t_hw, 2),
                    Table::num(scg_base / t_sw, 2),
                    Table::num(t_sw / t_hw, 2)});

        std::string k = strprintf("cpu_sweep.x%.0f", speed);
        report.set(k + ".hw_speedup", scg_base / t_hw, "x",
                   MetricClass::sim, Better::higher);
        report.set(k + ".sw_speedup", scg_base / t_sw, "x",
                   MetricClass::sim, Better::higher);
        report.set(k + ".hw_over_sw", t_sw / t_hw, "x",
                   MetricClass::sim, Better::higher);
    }
    t2.print();
    std::printf("\nSoftware handling saturates (Amdahl on the fixed "
                "~100 us/message software\npath) while the hardware "
                "interface keeps scaling with the processor — the "
                "paper's\ncore argument, extrapolated beyond the "
                "SuperSPARC.\n");
    return report.write() ? 0 : 1;
}
