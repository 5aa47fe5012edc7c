/**
 * @file
 * Reproduces Figure 8: "Effect of PUT/GET hardware support" — the
 * percentage of execution time, run-time system time, communication
 * overhead and idle time for every application on the AP1000+ and on
 * the AP1000-with-SuperSPARC model, normalized to the AP1000+'s
 * total (the TOMCATV pair is normalized to the stride variant's
 * AP1000+ total, as in the paper).
 */

#include <cctype>
#include <cstdio>
#include <string>

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

namespace
{

/** App names ("TC no st") as JSON path segments. */
std::string
key(std::string s)
{
    for (char &c : s)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return s;
}

std::string
bar(double pct, double scale = 0.25)
{
    int n = static_cast<int>(pct * scale + 0.5);
    if (n > 60)
        n = 60;
    return std::string(static_cast<std::size_t>(n), '#');
}

} // namespace

int
main(int argc, char **argv)
{
    obs::BenchReport report("fig8_breakdown");
    for (int i = 1; i < argc; ++i)
        if (!report.consume_arg(argv[i]))
            fatal("unknown argument '%s' (only --json-out[=FILE])",
                  argv[i]);

    std::printf("Figure 8: normalized execution time breakdown "
                "(%% of the AP1000+ total)\n\n");

    Params plus = Params::ap1000_plus();
    Params fast = Params::ap1000_fast();

    Table t({"App", "Model", "Total%", "Exec%", "RTS%", "Ovh%",
             "Idle%", ""});

    double tc_st_plus_total = 0;

    for (const auto &app : standard_suite()) {
        core::Trace trace = app->generate();
        ReplayReport rp = Replay(trace, plus).run();
        ReplayReport rf = Replay(trace, fast).run();

        // TOMCATV bars are "normalized to the AP1000+ with stride
        // data transfer model".
        double norm = rp.totalUs;
        std::string name = app->info().name;
        if (name == "TC st")
            tc_st_plus_total = rp.totalUs;
        if (name == "TC no st" && tc_st_plus_total > 0)
            norm = tc_st_plus_total;

        struct ModelRow
        {
            const char *label;  ///< table column
            const char *jsonKey; ///< '+'/'*'-free path segment
            ReplayReport &r;
        };
        for (const auto &[label, jkey, r] :
             {ModelRow{"AP1000+", "ap1000_plus", rp},
              ModelRow{"AP1000*", "ap1000_star", rf}}) {
            CellBreakdown m = r.mean();
            double total = r.totalUs / norm * 100.0;
            t.add_row({name, label, Table::num(total, 1),
                       Table::num(m.execUs / norm * 100.0, 1),
                       Table::num(m.rtsUs / norm * 100.0, 1),
                       Table::num(m.overheadUs / norm * 100.0, 1),
                       Table::num(m.idleUs / norm * 100.0, 1),
                       bar(total)});

            std::string k = key(name) + "." + jkey;
            report.set(k + ".total_pct", total, "%", MetricClass::sim,
                       Better::lower);
            report.set(k + ".exec_pct", m.execUs / norm * 100.0, "%",
                       MetricClass::sim, Better::lower);
            report.set(k + ".rts_pct", m.rtsUs / norm * 100.0, "%",
                       MetricClass::sim, Better::lower);
            report.set(k + ".overhead_pct", m.overheadUs / norm * 100.0,
                       "%", MetricClass::sim, Better::lower);
            report.set(k + ".idle_pct", m.idleUs / norm * 100.0, "%",
                       MetricClass::sim, Better::lower);
        }
    }
    t.print();

    std::printf(
        "\nPaper's reference bar heights (AP1000* totals, %% of "
        "AP1000+): CG 788 is the\ntallest; FT/SP/MatMul/SCG fall in "
        "the 125-172 range; EP is 100 on both; the\nTOMCATV pair "
        "shows stride (100/125-ish) vs no-stride (150/788-ish "
        "scale).\nExec/RTS/Ovh/Idle are per-cell means; Total is the "
        "slowest cell, so the\ncomponents sum to slightly less than "
        "Total when load is imbalanced.\n");
    return report.write() ? 0 : 1;
}
