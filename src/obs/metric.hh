/**
 * @file
 * Metric metadata, declared where a metric is emitted.
 *
 * Every number a bench or sweep reports carries its unit, gate class
 * and better direction in the JSON it is written to; the gates
 * (tools/bench_compare.py, tools/model_check.py) read them from there
 * and never guess from a metric's name.
 */

#ifndef AP_OBS_METRIC_HH
#define AP_OBS_METRIC_HH

#include <string>

#include "obs/json.hh"

namespace ap::obs
{

/** Gate class of a metric. */
enum class MetricClass
{
    sim,   ///< model-time or deterministic model value: gated tightly
    host,  ///< host wall-clock time or rate over it: gated loosely
    count, ///< workload count: a change is reported, never gated
};

/** Which direction of change is an improvement. */
enum class Better
{
    lower,
    higher,
};

inline const char *
to_string(MetricClass c)
{
    return c == MetricClass::sim    ? "sim"
           : c == MetricClass::host ? "host"
                                    : "count";
}

inline const char *
to_string(Better b)
{
    return b == Better::lower ? "lower" : "higher";
}

/** The metadata every emitted metric carries. */
struct MetricMeta
{
    std::string unit;
    MetricClass cls = MetricClass::sim;
    Better better = Better::lower;
};

/** `"unit": "us", "class": "sim", "better": "lower"` (no braces). */
inline std::string
meta_json(const MetricMeta &m)
{
    return "\"unit\": \"" + json_escape(m.unit) + "\", \"class\": \"" +
           to_string(m.cls) + "\", \"better\": \"" +
           to_string(m.better) + "\"";
}

} // namespace ap::obs

#endif // AP_OBS_METRIC_HH
