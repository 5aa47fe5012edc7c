/**
 * @file
 * The end-to-end benchmark's shared vocabulary: metrics that carry
 * their own unit, class and direction; host-clock and simulated-time
 * spans; and the small pieces of arithmetic (percentile rule,
 * registry-pattern aggregation, fidelity formulas) that the
 * self-test pins on hand-computed inputs.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/types.hh"
#include "obs/stats_registry.hh"

namespace pb
{

/** What a metric measures: the host running the emulator, the
 *  simulated machine, or a count of modelled work. `sim` and `count`
 *  metrics repeat exactly for a given seed; `host` metrics carry the
 *  host's noise. */
enum class Cls : std::uint8_t
{
    host,
    sim,
    count,
};

enum class Dir : std::uint8_t
{
    lower,
    higher,
};

const char *cls_name(Cls c);
const char *dir_name(Dir d);

/** One reported number with the metadata it was emitted with. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    Cls cls = Cls::host;
    Dir dir = Dir::lower;
    /** Samples behind a percentile or mean (0 = not a statistic). */
    std::uint64_t samples = 0;
    /** Optional qualifier, e.g. which percentile the rule allowed. */
    std::string note;
};

/** Metrics keyed by name; each set() declares the metadata. */
class MetricSet
{
  public:
    void set(const std::string &name, double value, const char *unit,
             Cls cls, Dir dir, std::uint64_t samples = 0,
             std::string note = {});

    const std::map<std::string, Metric> &all() const { return byName; }
    const Metric *find(const std::string &name) const;
    double value(const std::string &name) const;

    /** Names of `sim`/`count` metrics both sets carry with
     *  different values. */
    static std::vector<std::string> deterministic_mismatch(
        const MetricSet &a, const MetricSet &b);

  private:
    std::map<std::string, Metric> byName;
};

// -- percentiles ------------------------------------------------------

/** A percentile chosen by the reporting rule. */
struct Percentile
{
    double pct = 0.0;     ///< e.g. 99.0; 0 when no rung qualifies
    double value = 0.0;   ///< nearest-rank value
    std::uint64_t samples = 0;
    std::uint64_t beyond = 0; ///< samples strictly above the rank
};

/** Nearest-rank percentile @p pct of ascending @p sorted. */
Percentile nearest_rank(const std::vector<double> &sorted, double pct);

/**
 * The highest percentile of the ladder {50, 90, 99, 99.9, 99.99}
 * that still has at least @p minBeyond samples beyond its rank.
 */
Percentile highest_supported(const std::vector<double> &sorted,
                             std::uint64_t minBeyond = 10);

/** Median of @p v (by copy); 0 when empty. */
double median(std::vector<double> v);

// -- registry aggregation ---------------------------------------------

using Delta = std::map<std::string, std::int64_t>;

/** Sum of the deltas whose path matches @p pattern (a "*" segment
 *  matches one path segment, as in StatsRegistry::sum). */
std::int64_t delta_sum(const Delta &d, const std::string &pattern);

// -- fidelity formulas ------------------------------------------------

/** |emulated - model| / model, in percent. */
double gap_pct(double emulatedUs, double modelUs);

/** Mean of |ours - paper| / paper over the pairs, in percent. */
double mean_rel_err_pct(const std::vector<double> &ours,
                        const std::vector<double> &paper);

// -- host resources ---------------------------------------------------

/** getrusage(RUSAGE_SELF) in seconds: user and system time. */
struct CpuTimes
{
    double userS = 0.0;
    double sysS = 0.0;
};
CpuTimes cpu_times();

/** System share of the CPU time between two readings, percent. */
double sys_pct(const CpuTimes &before, const CpuTimes &after);

/** Peak resident set of this process in MB. */
double peak_rss_mb();

// -- spans -------------------------------------------------------------

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

/** One host-clock span around a call into the system. */
struct HostSpan
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int id = 0;
    int parent = -1; ///< index of the enclosing span, -1 at the root
    int run = 0;     ///< one id per workload pass
};

/**
 * Host spans of one process, kept in memory. Spans nest on the
 * calling thread; every span is recorded from the main thread.
 */
class HostSpans
{
  public:
    HostSpans();

    /** Open a span nested in the innermost open one; returns its id
     *  for end(). Spans close innermost first. */
    int begin(const std::string &name);
    void end(int id);
    void set_run(int run) { curRun = run; }

    const std::vector<HostSpan> &spans() const { return log; }

  private:
    Clock::time_point origin;
    std::vector<HostSpan> log;
    std::vector<int> open;
    int curRun = 0;
};

/** Self time of every span: its duration minus the part of it its
 *  children cover, in ns, indexed like @p spans. */
std::vector<std::int64_t> self_ns(const std::vector<HostSpan> &spans);

/** RAII helper: a span when @p s is non-null, nothing otherwise. */
class Scope
{
  public:
    Scope(HostSpans *s, const std::string &name)
        : spans(s), id(s ? s->begin(name) : -1)
    {
    }
    ~Scope()
    {
        if (spans)
            spans->end(id);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    HostSpans *spans;
    int id;
};

/** Context calls timed in simulated time. */
enum class SimOp : std::uint8_t
{
    send,
    recv,
    put,
    wait_flag,
    barrier,
    allreduce,
    count_
};
constexpr std::size_t num_sim_ops =
    static_cast<std::size_t>(SimOp::count_);
const char *sim_op_name(SimOp op);

/** One simulated-time span of one cell. */
struct SimSpan
{
    SimOp op = SimOp::send;
    ap::Tick start = 0;
    ap::Tick end = 0;
};

/**
 * Simulated-time spans, one buffer per cell so cells on different
 * kernel shards never share a lock. Every cell accumulates all its
 * spans; only the first `keepPerCell` spans of the first `keepCells`
 * cells are kept whole for the span file.
 */
class SimSpans
{
  public:
    static constexpr int keepCells = 8;
    static constexpr std::size_t keepPerCell = 512;

    explicit SimSpans(int cells);

    void record(ap::CellId cell, SimOp op, ap::Tick start,
                ap::Tick end);

    /** Mean span length in us over every cell, per op. */
    double mean_us(SimOp op) const;
    std::uint64_t count(SimOp op) const;

    /** Kept spans of @p cell (empty beyond keepCells). */
    const std::vector<SimSpan> &kept(int cell) const;
    int cells() const { return static_cast<int>(perCell.size()); }

  private:
    struct Cell
    {
        std::array<std::uint64_t, num_sim_ops> ticks{};
        std::array<std::uint64_t, num_sim_ops> n{};
        std::vector<SimSpan> kept;
    };
    std::vector<Cell> perCell;
};

/** Write host and simulated spans as Chrome trace_event JSON.
 *  @return false on I/O error. */
bool write_chrome_trace(const std::string &path, const HostSpans &host,
                        const SimSpans *sim, const std::string &label);

/** Deterministic 64-bit mix of up to four words (SplitMix64). */
std::uint64_t mix(std::uint64_t a, std::uint64_t b = 0,
                  std::uint64_t c = 0, std::uint64_t d = 0);

/** Seeded permutation of [0, n) minus @p skip (skip < 0: none). */
std::vector<int> permutation(int n, std::uint64_t seed, int skip);

} // namespace pb

#endif // PERFBENCH_BENCH_HH
