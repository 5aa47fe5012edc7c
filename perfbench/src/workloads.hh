/**
 * @file
 * The benchmark's four workloads. Each drives the system only through
 * its public functions (hw::Machine, core::run_spmd/Context,
 * serve::generate_stream/GangScheduler, apps::App::generate,
 * mlsim::Replay) and measures from outside: host spans around those
 * calls, stats-registry deltas, the result structs and getrusage.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"

namespace pb
{

/** What one pass of a workload measured. */
struct Pass
{
    /** Host seconds from workload start to the first simulated
     *  event (machine build, stream generation, trace generation). */
    double setupS = 0.0;
    /** Host seconds of the run phase. */
    double runS = 0.0;
    /** Verified application operations (the ops of ops_per_s). */
    std::uint64_t ops = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Simulated, count and per-layer metrics of this pass. */
    MetricSet metrics;
    /** Correctness-gate failures (wrong bytes, bad accounting). */
    std::vector<std::string> errors;
};

/** A pass's instrumentation: null spans mean an untraced pass. */
struct Instruments
{
    HostSpans *host = nullptr;
    /** Filled by traced passes with the run's simulated spans; the
     *  caller keeps the last one for the span file. */
    std::unique_ptr<SimSpans> *sim = nullptr;
    bool traced() const { return host != nullptr; }
};

struct Workload
{
    const char *name;
    /** One full pass: setup, run, collect, verify. */
    Pass (*pass)(std::uint64_t seed, const Instruments &ins);
    /** Seconds of one bare setup (built and torn down). */
    double (*setupOnly)(std::uint64_t seed);
    /** Deterministic metrics computed once per process outside the
     *  timed passes (may be null); appends gate failures. */
    void (*once)(std::uint64_t seed, MetricSet &out,
                 std::vector<std::string> &errors);
};

/** All workloads, in BENCHMARK.json order. */
const std::vector<Workload> &workloads();

/** Look up a workload by name; nullptr when unknown. */
const Workload *find_workload(const std::string &name);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_HH
