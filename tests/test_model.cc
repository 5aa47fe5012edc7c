/**
 * @file
 * Fitting-core tests on hand-constructed synthetic datasets: the
 * selected term, coefficient recovery within tolerance, and the
 * cross-validation guard that keeps noise from growing exponents.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "model/fit.hh"
#include "model/modelset.hh"
#include "obs/json.hh"

using namespace ap;
using namespace ap::model;
using obs::Better;
using obs::MetricClass;

namespace
{

std::vector<Point>
make_points(const std::vector<double> &xs, double (*f)(double))
{
    std::vector<Point> pts;
    for (double x : xs)
        pts.push_back({x, f(x)});
    return pts;
}

const std::vector<double> powers2 = {2, 4, 8, 16, 32, 64, 128, 256};

} // namespace

TEST(Fit, PureConstantSelectsConstant)
{
    auto pts = make_points(powers2, [](double) { return 42.0; });
    Fit f = fit_scaling(pts);
    EXPECT_TRUE(f.constant);
    EXPECT_NEAR(f.c, 42.0, 1e-9);
    EXPECT_NEAR(f.rmseRel, 0.0, 1e-12);
    EXPECT_EQ(f.points, pts.size());
}

TEST(Fit, LinearRecoversSlopeInterceptAndExponent)
{
    auto pts =
        make_points(powers2, [](double x) { return 3.0 + 2.0 * x; });
    Fit f = fit_scaling(pts);
    ASSERT_FALSE(f.constant);
    EXPECT_DOUBLE_EQ(f.term.exp, 1.0);
    EXPECT_EQ(f.term.logPow, 0);
    EXPECT_NEAR(f.a, 2.0, 1e-6);
    EXPECT_NEAR(f.c, 3.0, 1e-5);
    EXPECT_GT(f.r2, 0.9999);
}

TEST(Fit, NLogNSelectsLinearLogTerm)
{
    auto pts = make_points(
        powers2, [](double x) { return 0.5 * x * std::log2(x); });
    Fit f = fit_scaling(pts);
    ASSERT_FALSE(f.constant);
    EXPECT_DOUBLE_EQ(f.term.exp, 1.0);
    EXPECT_EQ(f.term.logPow, 1);
    EXPECT_NEAR(f.a, 0.5, 1e-6);
    EXPECT_NEAR(f.c, 0.0, 1e-6);
}

TEST(Fit, NoisyQuadraticRecoversExponentAndCoefficients)
{
    // Deterministic +-2% "noise" alternating by index.
    std::vector<Point> pts;
    int i = 0;
    for (double x : powers2) {
        double y = 5.0 + 0.1 * x * x;
        y *= (i++ % 2 == 0) ? 1.02 : 0.98;
        pts.push_back({x, y});
    }
    Fit f = fit_scaling(pts);
    ASSERT_FALSE(f.constant);
    EXPECT_DOUBLE_EQ(f.term.exp, 2.0);
    EXPECT_EQ(f.term.logPow, 0);
    EXPECT_NEAR(f.a, 0.1, 0.01);
    EXPECT_GT(f.r2, 0.99);
    EXPECT_LT(f.cvRmseRel, 0.10);
}

TEST(Fit, InverseSquareRootDecay)
{
    auto pts = make_points(
        powers2, [](double x) { return 3.1e6 / std::sqrt(x); });
    Fit f = fit_scaling(pts);
    ASSERT_FALSE(f.constant);
    EXPECT_DOUBLE_EQ(f.term.exp, -0.5);
    EXPECT_EQ(f.term.logPow, 0);
    EXPECT_NEAR(f.a / 3.1e6, 1.0, 1e-6);
}

TEST(Fit, DegenerateSinglePointIsConstantThroughIt)
{
    Fit f = fit_scaling({{16.0, 7.5}});
    EXPECT_TRUE(f.constant);
    EXPECT_DOUBLE_EQ(f.c, 7.5);
    EXPECT_DOUBLE_EQ(f.eval(1.0), 7.5);
    EXPECT_DOUBLE_EQ(f.eval(1e6), 7.5);
    EXPECT_EQ(f.points, 1u);
}

TEST(Fit, EmptyAndTwoPointInputsDoNotCrash)
{
    Fit none = fit_scaling({});
    EXPECT_TRUE(none.constant);
    EXPECT_EQ(none.points, 0u);

    // Two points: every candidate term interpolates them exactly, so
    // the scaling class is unidentifiable and the constant stands.
    Fit two = fit_scaling({{2.0, 10.0}, {8.0, 40.0}});
    EXPECT_EQ(two.points, 2u);
    EXPECT_TRUE(two.constant);
}

TEST(Fit, CrossValidationRejectsOverfitOnNoisyFlatData)
{
    // Flat data with small alternating noise: any term that chases
    // the noise fits training points better, but must lose on
    // held-out points and the constant must stand.
    std::vector<Point> pts;
    int i = 0;
    for (double x : powers2) {
        double y = 100.0 * ((i++ % 2 == 0) ? 1.01 : 0.99);
        pts.push_back({x, y});
    }
    Fit f = fit_scaling(pts);
    EXPECT_TRUE(f.constant);
    EXPECT_NEAR(f.c, 100.0, 1.5);
}

TEST(Fit, FormulaAndTextAreHumanReadable)
{
    auto pts = make_points(
        powers2, [](double x) { return 2.0e6 / std::sqrt(x); });
    Fit f = fit_scaling(pts);
    std::string s = f.text("events_per_sec", "n");
    EXPECT_NE(s.find("events_per_sec"), std::string::npos);
    EXPECT_NE(s.find("n^-0.50"), std::string::npos);
    EXPECT_NE(s.find("R2="), std::string::npos);
}

TEST(Fit, LinearFitHelperRecoversLine)
{
    std::vector<Point> pts;
    for (double x : {1.0, 2.0, 4.0, 8.0})
        pts.push_back({x, 0.5 + 0.04 * x});
    Line ln = linear_fit(pts);
    EXPECT_NEAR(ln.intercept, 0.5, 1e-9);
    EXPECT_NEAR(ln.slope, 0.04, 1e-9);
    EXPECT_GT(ln.r2, 0.999999);

    Line flat = linear_fit({{3.0, 9.0}});
    EXPECT_DOUBLE_EQ(flat.intercept, 9.0);
    EXPECT_DOUBLE_EQ(flat.slope, 0.0);
}

TEST(ModelSet, DeclaredMetadataReachesJsonAndFit)
{
    // The name says wall-clock rate; the declaration says sim, and
    // the declaration is all that counts.
    SweepData d;
    d.sweep = "serve";
    d.bench = "bench_serve";
    d.param = "arrival_us";
    d.unit = "us";
    d.meta["jobs_per_sec"] = {"job/s", MetricClass::sim,
                              Better::higher};
    for (double x : {100.0, 200.0, 400.0, 800.0})
        d.points.push_back({x, {{"jobs_per_sec", 3000.0 - x}}, {}});

    std::string js = d.json();
    std::string err;
    EXPECT_TRUE(obs::json_valid(js, &err)) << err;
    EXPECT_NE(js.find("\"jobs_per_sec\": {\"unit\": \"job/s\", "
                      "\"class\": \"sim\", \"better\": \"higher\"}"),
              std::string::npos)
        << js;

    SweepModel m = fit_sweep(d);
    ASSERT_EQ(m.metrics.size(), 1u);
    EXPECT_EQ(m.metrics[0].cls, MetricClass::sim);
    EXPECT_NE(m.json().find("\"class\": \"sim\""), std::string::npos);
}

TEST(ModelSetDeathTest, UndeclaredMetricIsRejected)
{
    SweepData d;
    d.sweep = "putlat";
    d.meta["deliver_us"] = {"us", MetricClass::sim, Better::lower};
    d.points.push_back(
        {64.0, {{"deliver_us", 21.0}, {"issue_us", 1.0}}, {}});
    EXPECT_DEATH(d.json(), "never declared");
    EXPECT_DEATH(fit_sweep(d), "never declared");
}

TEST(ModelSet, SweepJsonIsValidAndSorted)
{
    SweepData d;
    d.sweep = "putlat";
    d.bench = "micro_putget";
    d.param = "bytes";
    d.unit = "B";
    d.meta["deliver_us"] = {"us", MetricClass::sim, Better::lower};
    // Inserted out of order; json() and series() must sort by x.
    d.points.push_back({1024.0, {{"deliver_us", 60.0}}, {}});
    d.points.push_back(
        {64.0, {{"deliver_us", 21.0}}, {{"tnet.messages", 3}}});

    std::string js = d.json();
    std::string err;
    EXPECT_TRUE(obs::json_valid(js, &err)) << err;
    EXPECT_NE(js.find("\"kind\": \"sweep\""), std::string::npos);
    EXPECT_LT(js.find("\"x\": 64"), js.find("\"x\": 1024"));
    EXPECT_NE(js.find("tnet.messages"), std::string::npos);

    auto pts = d.series("deliver_us");
    ASSERT_EQ(pts.size(), 2u);
    EXPECT_DOUBLE_EQ(pts.front().x, 64.0);
}

TEST(ModelSet, FitSweepDerivesEnvelopesAndValidJson)
{
    SweepData d;
    d.sweep = "cells";
    d.bench = "phold";
    d.param = "cells";
    d.unit = "cells";
    d.meta["events"] = {"count", MetricClass::count, Better::lower};
    d.meta["events_per_sec"] = {"event/s", MetricClass::host,
                                Better::higher};
    for (double x : {64.0, 144.0, 256.0, 576.0, 1024.0}) {
        SweepPoint p;
        p.x = x;
        p.metrics["events"] = 100.0 * x;        // count, linear
        p.metrics["events_per_sec"] = 3.0e6;    // host, flat
        d.points.push_back(p);
    }
    SweepModel m = fit_sweep(d);
    ASSERT_EQ(m.metrics.size(), 2u);
    const MetricModel *events = nullptr, *eps = nullptr;
    for (const MetricModel &mm : m.metrics) {
        if (mm.metric == "events")
            events = &mm;
        if (mm.metric == "events_per_sec")
            eps = &mm;
    }
    ASSERT_NE(events, nullptr);
    ASSERT_NE(eps, nullptr);
    EXPECT_FALSE(events->fit.constant);
    EXPECT_DOUBLE_EQ(events->fit.term.exp, 1.0);
    EXPECT_EQ(events->cls, MetricClass::count);
    EXPECT_TRUE(eps->fit.constant);
    EXPECT_EQ(eps->cls, MetricClass::host);
    // Exact data: envelopes sit at the class floors.
    EXPECT_DOUBLE_EQ(events->envelope, 0.10);
    EXPECT_DOUBLE_EQ(eps->envelope, 0.35);
    EXPECT_DOUBLE_EQ(events->xmin, 64.0);
    EXPECT_DOUBLE_EQ(events->xmax, 1024.0);

    std::string js = m.json();
    std::string err;
    EXPECT_TRUE(obs::json_valid(js, &err)) << err;
    EXPECT_NE(js.find("\"kind\": \"model\""), std::string::npos);
    EXPECT_NE(js.find("\"formula\""), std::string::npos);
}
