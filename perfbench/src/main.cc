/**
 * @file
 * perfbench: run one workload for a fixed host-time budget, check its
 * outputs, and print every metric with its unit, class and direction.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--span-file PATH]
 *   perfbench --self-test
 *
 * The last line of output is one JSON object, {"report": {...}}.
 * With --trace 0 every pass is untraced. With --trace 1 the first half
 * of the budget runs untraced passes and the second half traced ones:
 * their sim/count metrics must match exactly, the per-layer numbers
 * come from the traced passes, and the host spans (plus the first
 * cells' simulated spans) go to the span file as Chrome trace JSON.
 * Exit status is 0 only when every correctness gate passed.
 */

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "obs/stats_registry.hh"
#include "workloads.hh"

using namespace pb;

namespace
{

/** Bare setups run before the timed passes. */
constexpr std::size_t bareSetups = 5;

/** The end-to-end metrics; every other metric a pass emits is a
 *  per-layer metric. */
bool
is_end_to_end(const std::string &name)
{
    static const char *const names[] = {
        "setup_s",        "ops_per_s",      "peak_rss_mb",
        "sim_us",         "sim_lat_p50_us", "sim_lat_p99_us",
        "fail_pct",       "mlsim_gap_pct",  "paper_err_pct",
    };
    for (const char *n : names)
        if (name == n)
            return true;
    return false;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spanFile;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--span-file PATH]\n"
                 "       perfbench --self-test\n",
                 why);
    std::exit(2);
}

std::string
json_str(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
json_num(double v)
{
    if (!std::isfinite(v))
        return "null";
    return ap::strprintf("%.17g", v);
}

/** Run passes until @p budget host seconds have elapsed (at least
 *  one). @p peakRssMb, when given and still 0, gets the process's
 *  peak RSS after the first pass: later passes reuse freed memory
 *  unevenly, so the peak after one pass is what a run of this
 *  workload costs, however many passes the budget allows. */
void
run_passes(const Workload &w, std::uint64_t seed, double budget,
           HostSpans *host, std::unique_ptr<SimSpans> *sim,
           std::vector<Pass> &out, int &runId,
           double *peakRssMb = nullptr)
{
    auto t0 = Clock::now();
    do {
        if (host)
            host->set_run(runId);
        ++runId;
        out.push_back(w.pass(seed, Instruments{host, sim}));
        if (peakRssMb != nullptr && *peakRssMb == 0.0)
            *peakRssMb = peak_rss_mb();
    } while (seconds_since(t0) < budget);
}

std::vector<double>
ops_rates(const std::vector<Pass> &passes)
{
    std::vector<double> r;
    for (const Pass &p : passes)
        r.push_back(p.runS > 0 ? static_cast<double>(p.ops) / p.runS : 0);
    return r;
}

/** First pass's metrics of one kind (end-to-end or per-layer), each
 *  host-class metric replaced by its median over @p passes. */
MetricSet
aggregate(const std::vector<Pass> &passes, bool endToEnd)
{
    MetricSet out;
    for (const auto &[name, m] : passes.front().metrics.all()) {
        if (is_end_to_end(name) != endToEnd)
            continue;
        double v = m.value;
        if (m.cls == Cls::host) {
            std::vector<double> vals;
            for (const Pass &p : passes)
                vals.push_back(p.metrics.value(name));
            v = median(vals);
        }
        out.set(name, v, m.unit.c_str(), m.cls, m.dir, m.samples, m.note);
    }
    return out;
}

/** Exact-repeat check of sim/count metrics against @p ref. */
void
check_repeat(const MetricSet &ref, const MetricSet &other,
             const char *what, std::vector<std::string> &errors)
{
    for (const std::string &name :
         MetricSet::deterministic_mismatch(ref, other))
        errors.push_back(ap::strprintf(
            "%s: %s differs (%.17g vs %.17g)", what, name.c_str(),
            ref.value(name), other.value(name)));
}

void
print_report(const Options &o, const MetricSet &e2e,
             const MetricSet &layers, int untraced, int traced,
             std::uint64_t attempted, std::uint64_t failed,
             const std::vector<std::string> &errors)
{
    // A readable table first, then the machine-readable line.
    std::printf("%-36s %16s %-8s %-5s %-6s %s\n", "metric", "value",
                "unit", "class", "better", "note");
    auto table = [](const char *title, const MetricSet &s) {
        std::printf("-- %s\n", title);
        for (const auto &[name, m] : s.all())
            std::printf("%-36s %16.6g %-8s %-5s %-6s %s\n", name.c_str(),
                        m.value, m.unit.c_str(), cls_name(m.cls),
                        dir_name(m.dir),
                        m.samples ? ap::strprintf("n=%" PRIu64 " %s",
                                                  m.samples,
                                                  m.note.c_str())
                                        .c_str()
                                  : m.note.c_str());
    };
    table("end to end", e2e);
    if (o.trace)
        table("per layer (traced passes)", layers);
    for (const std::string &e : errors)
        std::printf("GATE FAILED: %s\n", e.c_str());

    auto metrics_json = [](const MetricSet &s) {
        std::string j = "{";
        bool first = true;
        for (const auto &[name, m] : s.all()) {
            j += first ? "" : ",";
            first = false;
            j += json_str(name) + ":{\"value\":" + json_num(m.value) +
                 ",\"unit\":" + json_str(m.unit) +
                 ",\"class\":" + json_str(cls_name(m.cls)) +
                 ",\"better\":" + json_str(dir_name(m.dir)) +
                 ",\"samples\":" + std::to_string(m.samples) +
                 ",\"note\":" + json_str(m.note) + "}";
        }
        return j + "}";
    };
    std::string errs = "[";
    for (std::size_t i = 0; i < errors.size(); ++i)
        errs += (i ? "," : "") + json_str(errors[i]);
    errs += "]";
    std::printf("{\"report\":{\"workload\":%s,\"seed\":%" PRIu64
                ",\"trace\":%d,\"untraced_passes\":%d,"
                "\"traced_passes\":%d,\"correct\":%s,\"attempted\":%" PRIu64
                ",\"failed\":%" PRIu64 ",\"errors\":%s,"
                "\"end_to_end\":%s,\"per_layer\":%s}}\n",
                json_str(o.workload).c_str(), o.seed, o.trace ? 1 : 0,
                untraced, traced, errors.empty() ? "true" : "false",
                attempted, failed, errs.c_str(),
                metrics_json(e2e).c_str(), metrics_json(layers).c_str());
}

int
run(const Options &o)
{
    const Workload *w = find_workload(o.workload);
    if (w == nullptr)
        usage(("unknown workload '" + o.workload + "'").c_str());

    // Bare setups first: they warm the process-wide pools, so every
    // timed pass starts from the same warm state.
    std::vector<double> setups;
    for (std::size_t i = 0; i < bareSetups; ++i)
        setups.push_back(w->setupOnly(o.seed));

    std::vector<Pass> untraced, traced;
    int runId = 0;
    HostSpans host;
    std::unique_ptr<SimSpans> sim;
    auto start = Clock::now();
    double peakRss = 0.0;
    run_passes(*w, o.seed, o.trace ? o.seconds / 2 : o.seconds, nullptr,
               nullptr, untraced, runId, &peakRss);
    if (o.trace)
        run_passes(*w, o.seed, o.seconds - seconds_since(start), &host,
                   &sim, traced, runId);

    for (const Pass &p : untraced)
        setups.push_back(p.setupS);

    std::vector<std::string> errors;
    MetricSet once;
    if (w->once)
        w->once(o.seed, once, errors);

    // Gates: correctness of every pass, and exact repeats of the
    // simulated behaviour across passes, observers and modes.
    std::uint64_t attempted = 0, failed = 0;
    for (const std::vector<Pass> *set : {&untraced, &traced})
        for (const Pass &p : *set) {
            errors.insert(errors.end(), p.errors.begin(), p.errors.end());
            attempted += p.attempted;
            failed += p.failed;
        }
    const MetricSet &ref = untraced.front().metrics;
    for (std::size_t i = 1; i < untraced.size(); ++i)
        check_repeat(ref, untraced[i].metrics, "repeat", errors);
    for (const Pass &p : traced)
        check_repeat(ref, p.metrics, "traced vs untraced", errors);
    check_repeat(ref, once, "probe-trace capture", errors);

    MetricSet e2e = aggregate(untraced, true);
    // The once-per-process fidelity metric travels with the others.
    for (const auto &[name, m] : once.all())
        if (e2e.find(name) == nullptr)
            e2e.set(name, m.value, m.unit.c_str(), m.cls, m.dir,
                    m.samples, m.note);
    double untracedRate = median(ops_rates(untraced));
    e2e.set("setup_s", median(setups), "s", Cls::host, Dir::lower,
            setups.size(), "median of setups; the first is cold");
    e2e.set("ops_per_s", untracedRate, "op/s", Cls::host, Dir::higher,
            untraced.size(), "median over passes");
    e2e.set("peak_rss_mb", peakRss, "MB", Cls::host, Dir::lower, 0,
            "after the first pass");

    MetricSet layers;
    if (o.trace) {
        layers = aggregate(traced, false);
        double tracedRate = median(ops_rates(traced));
        layers.set("bench.trace_overhead_pct",
                   untracedRate > 0
                       ? (untracedRate - tracedRate) / untracedRate * 100
                       : 0.0,
                   "%", Cls::host, Dir::lower, traced.size(),
                   "traced vs untraced ops_per_s");
        if (!o.spanFile.empty() &&
            !write_chrome_trace(o.spanFile, host, sim.get(), o.workload))
            errors.push_back("cannot write span file " + o.spanFile);
    }

    print_report(o, e2e, layers, static_cast<int>(untraced.size()),
                 static_cast<int>(traced.size()), attempted, failed,
                 errors);
    return errors.empty() ? 0 : 1;
}

// -- self-test ----------------------------------------------------------

int selfTestFailures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::printf("self-test FAILED: %s\n", what);
        ++selfTestFailures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

int
self_test()
{
    // Percentile rule: nearest rank, and the highest rung with at
    // least ten samples beyond it.
    std::vector<double> v100, v1000, v20;
    for (int i = 1; i <= 100; ++i)
        v100.push_back(i);
    for (int i = 1; i <= 1000; ++i)
        v1000.push_back(i);
    for (int i = 1; i <= 20; ++i)
        v20.push_back(i);
    expect(nearest_rank(v100, 50).value == 50, "p50 of 1..100 is 50");
    expect(nearest_rank(v100, 99).value == 99, "p99 of 1..100 is 99");
    expect(nearest_rank(v100, 99).beyond == 1, "one sample beyond p99");
    expect(highest_supported(v100).pct == 90, "1..100 supports p90");
    expect(highest_supported(v1000).pct == 99, "1..1000 supports p99");
    expect(highest_supported(v1000).value == 990, "p99 of 1..1000");
    expect(highest_supported(v20).pct == 50, "20 samples support p50");
    expect(highest_supported({1, 2, 3}).pct == 0,
           "3 samples support nothing");
    expect(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5,
           "median odd/even");

    // Registry-pattern aggregation over a phase delta.
    std::uint64_t puts0 = 3, puts1 = 5, spills1 = 7, msgs = 11;
    ap::obs::StatsRegistry reg;
    reg.add_counter("cell0.msc.puts_sent", &puts0);
    reg.add_counter("cell1.msc.puts_sent", &puts1);
    reg.add_counter("cell1.msc.user_queue.spills", &spills1);
    reg.add_counter("tnet.messages", &msgs);
    auto snap = reg.snapshot();
    puts0 += 2;
    puts1 += 4;
    spills1 += 1;
    msgs += 10;
    Delta d = reg.delta_since(snap);
    expect(delta_sum(d, "*.msc.puts_sent") == 6, "sum across cells");
    expect(delta_sum(d, "*.puts_sent") == 0, "* matches one segment");
    expect(delta_sum(d, "*.msc.*.spills") == 1, "inner wildcard");
    expect(delta_sum(d, "tnet.messages") == 10, "exact path");
    expect(delta_sum(d, "nothing.*") == 0, "no match is 0");

    // Fidelity formulas.
    expect(near(gap_pct(152, 100), 52), "gap above the model");
    expect(near(gap_pct(48, 100), 52), "gap below the model");
    expect(near(mean_rel_err_pct({8, 4.5}, {8, 5}), 5),
           "mean relative error");

    // Span self time: parent [0,100] with children [10,30], [40,70].
    std::vector<HostSpan> spans(3);
    spans[0] = {"run", 0, 100, 0, -1, 0};
    spans[1] = {"a", 10, 30, 1, 0, 0};
    spans[2] = {"b", 40, 70, 2, 0, 0};
    std::vector<std::int64_t> self = self_ns(spans);
    expect(self[0] == 50 && self[1] == 20 && self[2] == 30,
           "self time = span - children");

    // Determinism check ignores host metrics, catches sim drift.
    MetricSet a, b;
    a.set("x", 1, "us", Cls::sim, Dir::lower);
    b.set("x", 1, "us", Cls::sim, Dir::lower);
    a.set("h", 1, "s", Cls::host, Dir::lower);
    b.set("h", 2, "s", Cls::host, Dir::lower);
    expect(MetricSet::deterministic_mismatch(a, b).empty(),
           "host metrics may differ");
    b.set("x", 1.5, "us", Cls::sim, Dir::lower);
    expect(MetricSet::deterministic_mismatch(a, b).size() == 1,
           "sim metrics must repeat");

    std::printf("self-test %s\n", selfTestFailures ? "FAILED" : "ok");
    return selfTestFailures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--self-test")
            return self_test();
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
            haveWorkload = true;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            o.seconds = std::atof(v.c_str());
        } else if (a == "--trace") {
            o.trace = v == "1";
        } else if (a == "--span-file") {
            o.spanFile = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    return run(o);
}
