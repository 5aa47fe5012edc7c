/**
 * @file
 * Reproduces Table 3: application statistics (per-PE operation
 * counts and mean PUT/GET message size) for the eight workloads.
 *
 * Each application's generated trace is measured with
 * apps::measure_stats() and printed next to the paper's row.
 */

#include <cctype>
#include <cstdio>

#include "apps/app.hh"
#include "base/logging.hh"
#include "base/table.hh"
#include "obs/cli.hh"

using namespace ap;
using namespace ap::apps;
using obs::Better;
using obs::MetricClass;

namespace
{

std::string
pair_cell(double ours, double paper)
{
    return strprintf("%.1f / %.1f", ours, paper);
}

/** App names ("TC no st") as JSON path segments. */
std::string
key(std::string s)
{
    for (char &c : s)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    obs::BenchReport report("table3_appstats");
    for (int i = 1; i < argc; ++i)
        if (!report.consume_arg(argv[i]))
            fatal("unknown argument '%s' (only --json-out[=FILE])",
                  argv[i]);

    std::printf("Table 3: application statistics "
                "(ours / paper, per PE)\n\n");

    Table t({"App", "PE", "SEND", "Gop", "VGop", "Sync", "PUT",
             "PUTS", "GET", "GETS", "Msg size"});

    for (const auto &app : standard_suite()) {
        core::Trace trace = app->generate();
        Table3Row m = measure_stats(trace);
        Table3Row p = app->paper_stats();

        t.add_row({app->info().name, strprintf("%d", m.pe),
                   pair_cell(m.send, p.send), pair_cell(m.gop, p.gop),
                   pair_cell(m.vgop, p.vgop),
                   pair_cell(m.sync, p.sync), pair_cell(m.put, p.put),
                   pair_cell(m.puts, p.puts), pair_cell(m.get, p.get),
                   pair_cell(m.gets, p.gets),
                   pair_cell(m.msgSize, p.msgSize)});

        std::string k = key(app->info().name);
        report.set(k + ".pe", static_cast<std::uint64_t>(m.pe), "count",
                   MetricClass::count, Better::lower);
        report.set(k + ".send", m.send, "count", MetricClass::count,
                   Better::lower);
        report.set(k + ".gop", m.gop, "count", MetricClass::count,
                   Better::lower);
        report.set(k + ".vgop", m.vgop, "count", MetricClass::count,
                   Better::lower);
        report.set(k + ".sync", m.sync, "count", MetricClass::count,
                   Better::lower);
        report.set(k + ".put", m.put, "count", MetricClass::count,
                   Better::lower);
        report.set(k + ".puts", m.puts, "count", MetricClass::count,
                   Better::lower);
        report.set(k + ".get", m.get, "count", MetricClass::count,
                   Better::lower);
        report.set(k + ".gets", m.gets, "count", MetricClass::count,
                   Better::lower);
        report.set(k + ".msg_size", m.msgSize, "B", MetricClass::count,
                   Better::lower);
    }
    t.print();
    std::printf("\nSEND includes the (P-1)/P per-cell chain sends of "
                "each vector reduction;\nmessage size averages "
                "PUT/GET payloads without acknowledge probes.\n");
    return report.write() ? 0 : 1;
}
