/**
 * @file
 * Reliable-delivery overhead bench.
 *
 * PUT latency and streaming bandwidth with the reliable protocol
 * layer on versus off, on a clean wire and under 2% message loss.
 * The clean-wire rows price the envelope (seq/ack/checksum header,
 * delayed acks); the lossy rows compare protocol-level recovery
 * (go-back-N retransmission) against the application-level fallback
 * the unreliable wire forces: the hardened write_remote path with
 * software timeouts, retries and read-back verification.
 */

#include <cstdio>

#include "base/logging.hh"
#include "base/table.hh"
#include "core/program.hh"
#include "hw/config.hh"
#include "hw/machine.hh"
#include "obs/cli.hh"
#include "sim/fault.hh"

using namespace ap;
using namespace ap::core;
using obs::Better;
using obs::MetricClass;

namespace
{

struct Result
{
    double latencyUs = 0;    ///< per acknowledged 64 B PUT
    double bandwidthMBs = 0; ///< 64 x 1 KiB stream, one ack round
    std::uint64_t retransmits = 0;
    const char *mechanism = "";
};

hw::MachineConfig
make_config(bool reliable, double dropProb)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.reliableNet = reliable;
    if (dropProb > 0.0) {
        cfg.faults.dropProb = dropProb;
        cfg.faults.seed = 1234;
    }
    // Lossy runs without the reliable layer lean on software
    // retries; a watchdog turns any residual hang into a hard error
    // instead of wedging the bench.
    if (!reliable && dropProb > 0.0) {
        cfg.retry.timeoutUs = 500.0;
        cfg.retry.maxRetries = 10;
    }
    cfg.retry.watchdogUs = 1e6;
    return cfg;
}

Result
run_case(bool reliable, double dropProb, int latencyOps,
         int streamBlocks, int blockBytes)
{
    hw::MachineConfig cfg = make_config(reliable, dropProb);
    hw::Machine m(cfg);
    const bool hardened = !reliable && dropProb > 0.0;

    Result out{};
    out.mechanism = hardened ? "sw retry" : "raw put";
    SpmdResult r = run_spmd(m, [&](Context &ctx) {
        if (ctx.id() != 0)
            return;
        Addr buf = ctx.alloc(static_cast<std::size_t>(blockBytes));

        Tick t0 = ctx.now();
        for (int i = 0; i < latencyOps; ++i) {
            if (hardened) {
                ctx.write_remote(1, 0x800, buf, 64);
            } else {
                ctx.put(1, 0x800, buf, 64, no_flag, no_flag, true);
                ctx.wait_all_acks();
            }
        }
        out.latencyUs = ticks_to_us(ctx.now() - t0) / latencyOps;

        t0 = ctx.now();
        for (int k = 0; k < streamBlocks; ++k) {
            Addr raddr = 0x800 + static_cast<Addr>(k) *
                                     static_cast<Addr>(blockBytes);
            if (hardened)
                ctx.write_remote(
                    1, raddr, buf,
                    static_cast<std::uint32_t>(blockBytes));
            else
                ctx.put(1, raddr, buf,
                        static_cast<std::uint32_t>(blockBytes),
                        no_flag, no_flag, true);
        }
        if (!hardened)
            ctx.wait_all_acks();
        double us = ticks_to_us(ctx.now() - t0);
        out.bandwidthMBs =
            static_cast<double>(streamBlocks) * blockBytes / us;
    });
    if (r.failed())
        fatal("bench run failed: %s",
              r.errors.empty() ? "deadlock" : r.errors.front().c_str());
    out.retransmits = m.stats_registry().sum("*.rnet.retransmits");
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    obs::BenchReport report("reliable_overhead");
    for (int i = 1; i < argc; ++i)
        if (!report.consume_arg(argv[i]))
            fatal("unknown argument '%s' (only --json-out[=FILE])",
                  argv[i]);

    std::printf("Reliable-delivery overhead: 200 acknowledged 64 B "
                "PUTs (latency) and a 64 x 1 KiB\nstream (bandwidth), "
                "cell 0 -> 1, reliable layer on/off, 0%% and 2%% "
                "loss\n\n");

    Table t({"Reliable", "Drop %", "Mechanism", "PUT us",
             "Stream MB/s", "Retransmits"});
    for (bool reliable : {false, true}) {
        for (double drop : {0.0, 0.02}) {
            Result r = run_case(reliable, drop, 200, 64, 1024);
            std::string k =
                strprintf("rel_%s.drop%d", reliable ? "on" : "off",
                          static_cast<int>(drop * 100));
            report.set(k + ".put_us", r.latencyUs, "us",
                       MetricClass::sim, Better::lower);
            report.set(k + ".stream_mb_s", r.bandwidthMBs, "MB/s",
                       MetricClass::sim, Better::higher);
            report.set(k + ".retransmits", r.retransmits, "count",
                       MetricClass::count, Better::lower);
            t.add_row({reliable ? "on" : "off",
                       Table::num(drop * 100, 0), r.mechanism,
                       Table::num(r.latencyUs, 2),
                       Table::num(r.bandwidthMBs, 1),
                       strprintf("%llu",
                                 static_cast<unsigned long long>(
                                     r.retransmits))});
        }
    }
    t.print();
    std::printf(
        "\nClean wire: the reliable envelope costs header bytes and "
        "ack traffic only.\nLossy wire: go-back-N recovers inside "
        "the transport at near-clean bandwidth,\nwhile the software "
        "fallback pays a timeout-and-verify round per loss.\n");
    return report.write() ? 0 : 1;
}
