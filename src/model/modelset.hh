/**
 * @file
 * Sweep datasets and fitted model sets — the documents of the
 * performance-model observatory.
 *
 * Two JSON document kinds round out the pipeline around fit.hh:
 *
 *   SweepData  ("kind": "sweep")  — what bench_sweep measured: one
 *              parameter axis, one row per parameter value with the
 *              metric values and a small registry snapshot taken at
 *              that point (provenance for later re-fits).
 *   SweepModel ("kind": "model")  — what fit_scaling selected: one
 *              fitted scaling law per metric, its quality numbers,
 *              and the divergence envelope the CI gate holds fresh
 *              measurements to (tools/model_check.py).
 *
 * Each sweep declares every metric's unit, gate class and better
 * direction once (obs/metric.hh), and both documents carry them.
 * "sim" metrics are model-time-derived and deterministic, so the
 * envelope is tight and absolute; "host" metrics are wall-clock rates
 * that vary across machines, so the gate compares only their *shape*
 * (values normalized to the smallest-parameter point); "count"
 * metrics gate like sim. The envelope itself is derived from the
 * fit's own training residuals — a model that explains its sweep to
 * 2% carries a tighter envelope than one that explains it to 10% —
 * with a floor so CI jitter on a freshly measured point cannot trip
 * the gate.
 */

#ifndef AP_MODEL_MODELSET_HH
#define AP_MODEL_MODELSET_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "model/fit.hh"
#include "obs/metric.hh"

namespace ap::model
{

/** One measured sweep row. */
struct SweepPoint
{
    double x = 0.0;
    /** metric name -> value at this parameter value. */
    std::map<std::string, double> metrics;
    /** registry snapshot subset at this point (provenance). */
    std::map<std::string, std::uint64_t> registry;
};

/** One parameterized sweep's measurements. */
struct SweepData
{
    std::string sweep;  ///< sweep name ("putlat", "cells", ...)
    std::string bench;  ///< workload that produced it
    std::string param;  ///< parameter axis name ("bytes", "cells")
    std::string unit;   ///< axis unit for humans ("B", "cells")
    std::vector<SweepPoint> points;

    /** Unit, gate class and direction of every metric the points
     *  carry, declared once per sweep. */
    std::map<std::string, obs::MetricMeta> meta;

    /** The declared metadata of @p metric; panics when the sweep
     *  measured a metric it never declared. */
    const obs::MetricMeta &meta_of(const std::string &metric) const;

    /** Points of one metric, sorted by x, skipping absent rows. */
    std::vector<Point> series(const std::string &metric) const;

    /** Every metric name present in any point, sorted. */
    std::vector<std::string> metric_names() const;

    /** The {"kind": "sweep", ...} document. */
    std::string json(bool pretty = true) const;

    /** Write json() to @p path. @return false on I/O error. */
    bool write(const std::string &path) const;
};

/** One metric's fitted scaling law plus its gate envelope. */
struct MetricModel
{
    std::string metric;
    obs::MetricClass cls = obs::MetricClass::sim;
    Fit fit;
    double xmin = 0.0; ///< fitted domain
    double xmax = 0.0;
    /** Allowed |measured - predicted| / |predicted| (fraction). */
    double envelope = 0.25;
};

/** All fitted models of one sweep. */
struct SweepModel
{
    std::string sweep;
    std::string bench;
    std::string param;
    std::string unit;
    std::vector<MetricModel> metrics;

    /** Human-readable fit report, one line per metric. */
    std::string text() const;

    /** The {"kind": "model", ...} document. */
    std::string json(bool pretty = true) const;

    /** Write json() to @p path. @return false on I/O error. */
    bool write(const std::string &path) const;
};

/**
 * Fit every metric of @p data and derive per-metric envelopes, each
 * in the class the sweep declared for it: envelope = max(class floor
 * — 10% sim/count, 35% host — and 3x the worst training relative
 * residual), so a fresh re-measurement of a training point always
 * sits inside. Metrics whose class is
 * host are still fitted on raw values; the shape normalization
 * happens in the gate, which divides both model and measurement by
 * their smallest-x value.
 */
SweepModel fit_sweep(const SweepData &data);

} // namespace ap::model

#endif // AP_MODEL_MODELSET_HH
