#include "obs/cli.hh"

#include <cstdlib>
#include <cstring>

#include "base/logging.hh"
#include "obs/debug.hh"

namespace ap::obs
{

bool
consume_obs_arg(const char *arg, ObsOptions &opt)
{
    if (std::strncmp(arg, "--stats-out=", 12) == 0) {
        opt.statsOut = arg + 12;
        return true;
    }
    if (std::strncmp(arg, "--trace-out=", 12) == 0) {
        opt.traceOut = arg + 12;
        return true;
    }
    if (std::strncmp(arg, "--timeline-out=", 15) == 0) {
        opt.timelineOut = arg + 15;
        return true;
    }
    if (std::strncmp(arg, "--timeline-csv=", 15) == 0) {
        opt.timelineCsv = arg + 15;
        return true;
    }
    if (std::strncmp(arg, "--timeline-period-us=", 21) == 0) {
        opt.timelinePeriodUs = std::atof(arg + 21);
        if (opt.timelinePeriodUs <= 0.0)
            fatal("--timeline-period-us needs a positive period");
        return true;
    }
    if (std::strncmp(arg, "--debug-flags=", 14) == 0) {
        std::string err;
        if (!parse_debug_flags(arg + 14, &err))
            fatal("%s", err.c_str());
        return true;
    }
    return false;
}

BenchReport::BenchReport(std::string name) : benchName(std::move(name))
{
    outPath = "BENCH_" + benchName + ".json";
    tree.set_string("bench", benchName);
}

bool
BenchReport::consume_arg(const char *arg)
{
    if (std::strcmp(arg, "--json-out") == 0) {
        jsonWanted = true;
        return true;
    }
    if (std::strncmp(arg, "--json-out=", 11) == 0) {
        jsonWanted = true;
        outPath = arg + 11;
        return true;
    }
    return false;
}

void
BenchReport::set(const std::string &path, double v,
                 const std::string &unit, MetricClass cls,
                 Better better)
{
    tree.set_raw(path, "{\"value\": " + json_number(v) + ", " +
                           meta_json({unit, cls, better}) + "}");
}

void
BenchReport::set_string(const std::string &path, const std::string &v)
{
    tree.set_string(path, v);
}

bool
BenchReport::write() const
{
    if (!jsonWanted)
        return true;
    if (!write_file(outPath, tree.render())) {
        warn("cannot write bench JSON to %s", outPath.c_str());
        return false;
    }
    inform("bench JSON written to %s", outPath.c_str());
    return true;
}

} // namespace ap::obs
