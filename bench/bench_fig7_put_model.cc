/**
 * @file
 * Reproduces Figure 7: the PUT communication model.
 *
 * Prints the paper's two closed-form overheads —
 *
 *   Send overhead = put_prolog + put_enqueue
 *                 + put_msg_post x msg_size + put_dma_set + put_epilog
 *   Interrupt reception overhead = intr_rtc
 *                 + recv_msg_invalid x msg_size + recv_dma_set
 *
 * — for both machines over a message-size sweep, then validates the
 * hardware numbers against the functional machine: a real PUT is
 * driven through the MSC+ and the issuing processor's busy time and
 * the end-to-end flag-to-flag latency are measured.
 */

#include <cstdio>

#include "base/logging.hh"
#include "base/table.hh"
#include "core/ap1000p.hh"
#include "mlsim/costmodel.hh"
#include "obs/cli.hh"

using namespace ap;
using namespace ap::core;
using namespace ap::mlsim;
using obs::Better;
using obs::MetricClass;

namespace
{

/** Measure issue cost and delivery latency of one PUT functionally. */
struct Measured
{
    double issueUs;
    double deliveredUs;
};

Measured
measure_put(std::uint32_t bytes)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.memBytesPerCell = 8 << 20;
    hw::Machine m(cfg);
    Measured out{0, 0};

    run_spmd(m, [&](Context &ctx) {
        Addr buf = ctx.alloc(bytes ? bytes : 4);
        Addr rf = ctx.alloc_flag();
        ctx.barrier();
        Tick t0 = ctx.now();
        if (ctx.id() == 0) {
            ctx.put(1, buf, buf, bytes, no_flag, rf);
            out.issueUs = ticks_to_us(ctx.now() - t0);
        }
        if (ctx.id() == 1) {
            ctx.wait_flag(rf, 1);
            out.deliveredUs = ticks_to_us(ctx.now() - t0);
        }
        ctx.barrier();
    });
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    obs::BenchReport report("fig7_put_model");
    for (int i = 1; i < argc; ++i)
        if (!report.consume_arg(argv[i]))
            fatal("unknown argument '%s' (only --json-out[=FILE])",
                  argv[i]);

    std::printf("Figure 7: PUT communication model — overheads by "
                "message size (us)\n\n");

    CostModel sw(Params::ap1000());
    CostModel hw(Params::ap1000_plus());

    Table t({"Msg bytes", "AP1000 send ovh", "AP1000 recv intr",
             "AP1000+ send ovh", "AP1000+ recv intr",
             "AP1000+ measured issue", "AP1000+ measured deliver"});

    for (std::uint32_t bytes :
         {16u, 256u, 1024u, 4096u, 16384u, 65536u}) {
        Measured m = measure_put(bytes);
        t.add_row({strprintf("%u", bytes),
                   Table::num(sw.put_send_overhead(bytes)),
                   Table::num(sw.recv_interrupt_overhead(bytes)),
                   Table::num(hw.put_send_overhead(bytes)),
                   Table::num(hw.recv_interrupt_overhead(bytes)),
                   Table::num(m.issueUs), Table::num(m.deliveredUs)});

        std::string k = strprintf("bytes%u", bytes);
        report.set(k + ".sw_send_us", sw.put_send_overhead(bytes), "us",
                   MetricClass::sim, Better::lower);
        report.set(k + ".sw_recv_us", sw.recv_interrupt_overhead(bytes),
                   "us", MetricClass::sim, Better::lower);
        report.set(k + ".hw_send_us", hw.put_send_overhead(bytes), "us",
                   MetricClass::sim, Better::lower);
        report.set(k + ".hw_recv_us", hw.recv_interrupt_overhead(bytes),
                   "us", MetricClass::sim, Better::lower);
        report.set(k + ".measured_issue_us", m.issueUs, "us",
                   MetricClass::sim, Better::lower);
        report.set(k + ".measured_deliver_us", m.deliveredUs, "us",
                   MetricClass::sim, Better::lower);
    }
    t.print();

    std::printf(
        "\nThe paper's claims, checked against the model:\n"
        "  - software send overhead at 0 bytes = %.2f us "
        "(prolog 20 + enqueue 0.16 + dma_set 15 + epilog 15)\n"
        "  - hardware send overhead is size-independent: %.2f us "
        "(the 8 parameter stores)\n"
        "  - hardware reception steals zero processor time.\n",
        sw.put_send_overhead(0), hw.put_send_overhead(65536));
    return report.write() ? 0 : 1;
}
