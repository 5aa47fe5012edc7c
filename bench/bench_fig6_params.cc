/**
 * @file
 * Reproduces Figure 6: the MLSim parameter files for the AP1000 and
 * AP1000+ models, emitted from the built-in presets in the same
 * name/value file format the paper shows (and that
 * mlsim::Params::from_file parses back).
 */

#include <cctype>
#include <cstdio>
#include <string>

#include "base/logging.hh"
#include "mlsim/params.hh"
#include "obs/cli.hh"

using namespace ap::mlsim;
using ap::obs::Better;
using ap::obs::MetricClass;

namespace
{

/** Model names as JSON path segments. */
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
    ap::obs::BenchReport report("fig6_params");
    for (int i = 1; i < argc; ++i)
        if (!report.consume_arg(argv[i]))
            ap::fatal("unknown argument '%s' (only "
                      "--json-out[=FILE])",
                      argv[i]);

    for (const Params &p : {Params::ap1000(), Params::ap1000_plus(),
                            Params::ap1000_fast()}) {
        std::fputs(p.to_file().c_str(), stdout);
        std::fputc('\n', stdout);

        std::string k = key(p.name);
        report.set(k + ".computation_factor", p.computation_factor, "x",
                   MetricClass::sim, Better::lower);
        report.set(k + ".put_dma_set_time", p.put_dma_set_time, "us",
                   MetricClass::sim, Better::lower);
    }

    // Round-trip self-check: each printed file parses back to a
    // model that prints the identical file.
    for (const Params &p : {Params::ap1000(), Params::ap1000_plus(),
                            Params::ap1000_fast()}) {
        std::string text = p.to_file();
        if (Params::from_file(text).to_file() != text) {
            std::fprintf(stderr, "round-trip mismatch for %s\n",
                         p.name.c_str());
            return 1;
        }
    }
    std::printf("# round-trip check passed\n");
    report.set("round_trip_ok", std::uint64_t{1}, "count",
               MetricClass::count, Better::higher);
    return report.write() ? 0 : 1;
}
