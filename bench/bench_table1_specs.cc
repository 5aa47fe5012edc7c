/**
 * @file
 * Reproduces Table 1: AP1000+ specifications, printed from the
 * machine configuration the functional simulator runs.
 */

#include <cstdio>

#include "base/logging.hh"
#include "base/table.hh"
#include "hw/config.hh"
#include "hw/mmu.hh"
#include "hw/queues.hh"
#include "obs/cli.hh"

using namespace ap;
using namespace ap::hw;
using obs::Better;
using obs::MetricClass;

int
main(int argc, char **argv)
{
    obs::BenchReport report("table1_specs");
    for (int i = 1; i < argc; ++i)
        if (!report.consume_arg(argv[i]))
            fatal("unknown argument '%s' (only --json-out[=FILE])",
                  argv[i]);

    MachineConfig lo = MachineConfig::ap1000_plus(4);
    MachineConfig hi = MachineConfig::ap1000_plus(1024);

    std::printf("Table 1: AP1000+ specifications (ours / paper)\n\n");

    Table t({"Item", "Ours", "Paper"});
    t.add_row({"Processor",
               strprintf("SuperSPARC (%.0f MHz)", lo.clockMhz),
               "SuperSPARC (50 MHz)"});
    t.add_row({"Processor performance",
               strprintf("%.0f MFLOPS", lo.mflops_per_cell()),
               "50 MFLOPS"});
    t.add_row({"Memory per cell", "16, 64 megabytes (model default "
                                  "smaller)",
               "16, 64 megabytes"});
    t.add_row({"Cache per cell",
               strprintf("%zu kilobytes, write-through",
                         lo.cacheBytes / 1024),
               "36 kilobytes, write-through"});
    t.add_row({"System configuration",
               strprintf("%d - %d cells", lo.cells, hi.cells),
               "4 - 1024 cells"});
    t.add_row({"System performance",
               strprintf("%.1f - %.1f GFLOPS", lo.system_gflops(),
                         hi.system_gflops()),
               "0.2 - 51.2 GFLOPS"});
    t.print();

    std::printf("\nArchitecture constants exercised by the model:\n");
    std::printf("  MSC+ command queue        %d words "
                "(%d 8-word commands)\n",
                lo.queueCapacityWords,
                lo.queueCapacityWords / Command::queue_words);
    std::printf("  TLB                       %zu x 4 KB + %zu x "
                "256 KB entries, direct-mapped\n",
                Mmu::small_tlb_entries, Mmu::large_tlb_entries);
    std::printf("  T-net links               %.0f MB/s "
                "(%.2f us/byte), B-net %.0f MB/s\n",
                1.0 / lo.cost.network_msg_time,
                lo.cost.network_msg_time, 1.0 / lo.cost.bnet_msg_time);
    std::printf("  PUT issue                 8 stores = %.2f us\n",
                lo.cost.put_enqueue_time);

    report.set("clock_mhz", lo.clockMhz, "MHz", MetricClass::sim,
               Better::higher);
    report.set("mflops_per_cell", lo.mflops_per_cell(), "MFLOPS",
               MetricClass::sim, Better::higher);
    report.set("cache_kbytes",
               static_cast<std::uint64_t>(lo.cacheBytes / 1024), "KB",
               MetricClass::count, Better::higher);
    report.set("cells_min", static_cast<std::uint64_t>(lo.cells),
               "count", MetricClass::count, Better::higher);
    report.set("cells_max", static_cast<std::uint64_t>(hi.cells),
               "count", MetricClass::count, Better::higher);
    report.set("system_gflops_min", lo.system_gflops(), "GFLOPS",
               MetricClass::sim, Better::higher);
    report.set("system_gflops_max", hi.system_gflops(), "GFLOPS",
               MetricClass::sim, Better::higher);
    report.set("queue_capacity_words",
               static_cast<std::uint64_t>(lo.queueCapacityWords),
               "words", MetricClass::count, Better::higher);
    report.set("tnet_mbytes_per_s", 1.0 / lo.cost.network_msg_time,
               "MB/s", MetricClass::sim, Better::higher);
    report.set("bnet_mbytes_per_s", 1.0 / lo.cost.bnet_msg_time, "MB/s",
               MetricClass::sim, Better::higher);
    report.set("put_issue_us", lo.cost.put_enqueue_time, "us",
               MetricClass::sim, Better::lower);
    return report.write() ? 0 : 1;
}
