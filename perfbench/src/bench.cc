#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "base/random.hh"

namespace pb
{

const char *
cls_name(Cls c)
{
    switch (c) {
    case Cls::host:
        return "host";
    case Cls::sim:
        return "sim";
    case Cls::count:
        return "count";
    }
    return "?";
}

const char *
dir_name(Dir d)
{
    return d == Dir::lower ? "lower" : "higher";
}

void
MetricSet::set(const std::string &name, double value, const char *unit,
               Cls cls, Dir dir, std::uint64_t samples, std::string note)
{
    Metric &m = byName[name];
    m.value = value;
    m.unit = unit;
    m.cls = cls;
    m.dir = dir;
    m.samples = samples;
    m.note = std::move(note);
}

const Metric *
MetricSet::find(const std::string &name) const
{
    auto it = byName.find(name);
    return it == byName.end() ? nullptr : &it->second;
}

double
MetricSet::value(const std::string &name) const
{
    const Metric *m = find(name);
    return m ? m->value : 0.0;
}

std::vector<std::string>
MetricSet::deterministic_mismatch(const MetricSet &a, const MetricSet &b)
{
    std::vector<std::string> bad;
    auto check = [&](const MetricSet &x, const MetricSet &y) {
        for (const auto &[name, m] : x.all()) {
            if (m.cls == Cls::host)
                continue;
            const Metric *o = y.find(name);
            // Exact comparison on purpose: these must repeat bit for
            // bit for a given seed. Metrics only one side emits (the
            // traced run's simulated spans) are not compared.
            if (o != nullptr && o->value != m.value)
                bad.push_back(name);
        }
    };
    check(a, b);
    check(b, a);
    std::sort(bad.begin(), bad.end());
    bad.erase(std::unique(bad.begin(), bad.end()), bad.end());
    return bad;
}

// -- percentiles ------------------------------------------------------

Percentile
nearest_rank(const std::vector<double> &sorted, double pct)
{
    Percentile p;
    p.pct = pct;
    p.samples = sorted.size();
    if (sorted.empty())
        return p;
    // Nearest rank: the smallest value with at least pct% of the
    // samples at or below it.
    auto rank = static_cast<std::uint64_t>(
        std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
    rank = std::clamp<std::uint64_t>(rank, 1, sorted.size());
    p.value = sorted[rank - 1];
    p.beyond = sorted.size() - rank;
    return p;
}

Percentile
highest_supported(const std::vector<double> &sorted,
                  std::uint64_t minBeyond)
{
    static constexpr double ladder[] = {50.0, 90.0, 99.0, 99.9, 99.99};
    Percentile best;
    best.samples = sorted.size();
    for (double pct : ladder) {
        Percentile p = nearest_rank(sorted, pct);
        if (p.samples == 0 || p.beyond < minBeyond)
            break;
        best = p;
    }
    return best;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t h = v.size() / 2;
    return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2.0;
}

// -- registry aggregation ---------------------------------------------

std::int64_t
delta_sum(const Delta &d, const std::string &pattern)
{
    std::int64_t s = 0;
    for (const auto &[path, v] : d)
        if (ap::obs::StatsRegistry::matches(pattern, path))
            s += v;
    return s;
}

// -- fidelity formulas ------------------------------------------------

double
gap_pct(double emulatedUs, double modelUs)
{
    return modelUs > 0.0 ? std::fabs(emulatedUs - modelUs) / modelUs *
                               100.0
                         : 0.0;
}

double
mean_rel_err_pct(const std::vector<double> &ours,
                 const std::vector<double> &paper)
{
    if (ours.empty() || ours.size() != paper.size())
        return 0.0;
    double s = 0.0;
    for (std::size_t i = 0; i < ours.size(); ++i)
        s += std::fabs(ours[i] - paper[i]) / paper[i];
    return s / static_cast<double>(ours.size()) * 100.0;
}

// -- host resources ---------------------------------------------------

CpuTimes
cpu_times()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return {sec(ru.ru_utime), sec(ru.ru_stime)};
}

double
sys_pct(const CpuTimes &before, const CpuTimes &after)
{
    double user = after.userS - before.userS;
    double sys = after.sysS - before.sysS;
    return user + sys > 0.0 ? sys / (user + sys) * 100.0 : 0.0;
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// -- spans -------------------------------------------------------------

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

HostSpans::HostSpans() : origin(Clock::now()) {}

int
HostSpans::begin(const std::string &name)
{
    HostSpan s;
    s.name = name;
    s.id = static_cast<int>(log.size());
    s.parent = open.empty() ? -1 : open.back();
    s.run = curRun;
    s.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - origin)
                    .count();
    log.push_back(std::move(s));
    open.push_back(log.back().id);
    return log.back().id;
}

void
HostSpans::end(int id)
{
    log[static_cast<std::size_t>(id)].endNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - origin)
            .count();
    open.pop_back();
}

std::vector<std::int64_t>
self_ns(const std::vector<HostSpan> &log)
{
    std::vector<std::int64_t> self(log.size());
    for (std::size_t i = 0; i < log.size(); ++i)
        self[i] = log[i].endNs - log[i].startNs;
    // Children nest inside their parent and do not overlap each
    // other (one thread), so subtracting each child's duration from
    // its parent leaves the uncovered part.
    for (const HostSpan &s : log)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.endNs - s.startNs;
    return self;
}

const char *
sim_op_name(SimOp op)
{
    switch (op) {
    case SimOp::send:
        return "send";
    case SimOp::recv:
        return "recv";
    case SimOp::put:
        return "put";
    case SimOp::wait_flag:
        return "wait_flag";
    case SimOp::barrier:
        return "barrier";
    case SimOp::allreduce:
        return "allreduce";
    case SimOp::count_:
        break;
    }
    return "?";
}

SimSpans::SimSpans(int cells) : perCell(static_cast<std::size_t>(cells))
{
}

void
SimSpans::record(ap::CellId cell, SimOp op, ap::Tick start, ap::Tick end)
{
    Cell &c = perCell[static_cast<std::size_t>(cell)];
    auto k = static_cast<std::size_t>(op);
    c.ticks[k] += end - start;
    ++c.n[k];
    if (cell < keepCells && c.kept.size() < keepPerCell)
        c.kept.push_back({op, start, end});
}

double
SimSpans::mean_us(SimOp op) const
{
    auto k = static_cast<std::size_t>(op);
    std::uint64_t ticks = 0, n = 0;
    for (const Cell &c : perCell) {
        ticks += c.ticks[k];
        n += c.n[k];
    }
    return n ? ap::ticks_to_us(ticks) / static_cast<double>(n) : 0.0;
}

std::uint64_t
SimSpans::count(SimOp op) const
{
    auto k = static_cast<std::size_t>(op);
    std::uint64_t n = 0;
    for (const Cell &c : perCell)
        n += c.n[k];
    return n;
}

const std::vector<SimSpan> &
SimSpans::kept(int cell) const
{
    return perCell[static_cast<std::size_t>(cell)].kept;
}

namespace
{

std::string
json_escape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

bool
write_chrome_trace(const std::string &path, const HostSpans &host,
                   const SimSpans *sim, const std::string &label)
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    f << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":"
         "{\"name\":\"host: "
      << json_escape(label) << "\"}}";
    std::vector<std::int64_t> self = self_ns(host.spans());
    char buf[512];
    for (std::size_t i = 0; i < host.spans().size(); ++i) {
        const HostSpan &s = host.spans()[i];
        std::snprintf(
            buf, sizeof(buf),
            ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,"
            "\"run\":%d,\"self_us\":%.3f}}",
            json_escape(s.name).c_str(), s.run,
            static_cast<double>(s.startNs) / 1e3,
            static_cast<double>(s.endNs - s.startNs) / 1e3, s.id,
            s.parent, s.run, static_cast<double>(self[i]) / 1e3);
        f << buf;
    }
    if (sim != nullptr) {
        f << ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
             "\"args\":{\"name\":\"simulated time (first cells)\"}}";
        int cells = std::min(sim->cells(), SimSpans::keepCells);
        for (int c = 0; c < cells; ++c)
            for (const SimSpan &s : sim->kept(c)) {
                std::snprintf(buf, sizeof(buf),
                              ",\n{\"name\":\"%s\",\"ph\":\"X\","
                              "\"pid\":2,\"tid\":%d,\"ts\":%.3f,"
                              "\"dur\":%.3f}",
                              sim_op_name(s.op), c,
                              ap::ticks_to_us(s.start),
                              ap::ticks_to_us(s.end - s.start));
                f << buf;
            }
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
}

std::uint64_t
mix(std::uint64_t a, std::uint64_t b, std::uint64_t c, std::uint64_t d)
{
    ap::Random r(a ^ 0x9e3779b97f4a7c15ull);
    std::uint64_t h = r.next();
    for (std::uint64_t w : {b, c, d}) {
        ap::Random step(h ^ w);
        h = step.next();
    }
    return h;
}

std::vector<int>
permutation(int n, std::uint64_t seed, int skip)
{
    std::vector<int> v;
    v.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        if (i != skip)
            v.push_back(i);
    ap::Random rng(seed);
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
    return v;
}

} // namespace pb
