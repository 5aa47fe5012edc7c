/**
 * @file
 * Reproduces Table 2: performance of the AP1000+ and of the AP1000
 * with its SPARC swapped for a SuperSPARC (software message
 * handling), both relative to the AP1000.
 *
 * Every application's trace replays under the three MLSim parameter
 * sets; speedup = T(AP1000) / T(model).
 */

#include <cctype>
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

} // namespace

int
main(int argc, char **argv)
{
    obs::BenchReport report("table2_speedup");
    for (int i = 1; i < argc; ++i)
        if (!report.consume_arg(argv[i]))
            fatal("unknown argument '%s' (only --json-out[=FILE])",
                  argv[i]);

    std::printf("Table 2: performance simulation relative to the "
                "AP1000 (ours / paper)\n\n");

    Params base = Params::ap1000();
    Params plus = Params::ap1000_plus();
    Params fast = Params::ap1000_fast();

    Table t({"App", "PE", "AP1000+ (ours/paper)",
             "AP1000* (ours/paper)", "T(AP1000) s"});

    for (const auto &app : standard_suite()) {
        core::Trace trace = app->generate();

        double t_base = Replay(trace, base).run().totalUs;
        double t_plus = Replay(trace, plus).run().totalUs;
        double t_fast = Replay(trace, fast).run().totalUs;

        if (t_plus <= 0 || t_fast <= 0) {
            warn("%s: degenerate replay time",
                 app->info().name.c_str());
            continue;
        }

        t.add_row({app->info().name,
                   strprintf("%d", app->info().cells),
                   strprintf("%.2f / %.2f", t_base / t_plus,
                             app->paper_speedup_plus()),
                   strprintf("%.2f / %.2f", t_base / t_fast,
                             app->paper_speedup_fast()),
                   strprintf("%.3f", t_base / 1e6)});

        std::string k = key(app->info().name);
        report.set(k + ".cells",
                   static_cast<std::uint64_t>(app->info().cells),
                   "count", MetricClass::count, Better::higher);
        report.set(k + ".speedup_plus", t_base / t_plus, "x",
                   MetricClass::sim, Better::higher);
        report.set(k + ".speedup_fast", t_base / t_fast, "x",
                   MetricClass::sim, Better::higher);
        report.set(k + ".paper_speedup_plus", app->paper_speedup_plus(),
                   "x", MetricClass::sim, Better::higher);
        report.set(k + ".paper_speedup_fast", app->paper_speedup_fast(),
                   "x", MetricClass::sim, Better::higher);
        report.set(k + ".t_ap1000_us", t_base, "us", MetricClass::sim,
                   Better::lower);
    }
    t.print();
    std::printf("\nAP1000* = AP1000 with the SPARC replaced by a "
                "SuperSPARC, message handling in software.\n");
    return report.write() ? 0 : 1;
}
