/**
 * @file
 * Machine configuration: Table 1 specifications plus the model
 * knobs of the functional AP1000+ emulator. Every cost it charges
 * comes from one table, the Figure 6 parameter file (mlsim::Params)
 * that MLSim replays traces under.
 */

#ifndef AP_HW_CONFIG_HH
#define AP_HW_CONFIG_HH

#include <algorithm>
#include <cstddef>
#include <string>

#include "base/types.hh"
#include "mlsim/params.hh"
#include "obs/span.hh"
#include "net/reliable.hh"
#include "sim/fault.hh"

namespace ap::hw
{

/**
 * Recovery policy for blocking PUT/GET completion waits. Disabled by
 * default (timeoutUs = 0): on a fault-free machine the hardware
 * guarantees delivery and the runtime waits unboundedly, exactly as
 * the paper assumes. Under a fault plan the runtime arms timeouts,
 * reissues lost transfers, and surfaces a CommError once the retry
 * budget is spent.
 */
struct RetryPolicy
{
    /** Completion-wait timeout in microseconds; 0 disables. */
    double timeoutUs = 0.0;
    /** Reissue attempts after the first try. */
    int maxRetries = 8;
    /** Per-attempt timeout multiplier (exponential backoff);
     *  values <= 1 mean a flat timeout on every attempt. */
    double backoffFactor = 2.0;
    /** Backoff saturation cap in microseconds; 0 = 8x timeoutUs. */
    double timeoutCapUs = 0.0;
    /**
     * Flag-wait watchdog deadline in microseconds; 0 disables. A
     * blocked flag/ack wait past this deadline raises a typed
     * CommError carrying a machine-wide wait-graph dump instead of
     * hanging forever. Independent of enabled(): the watchdog is
     * useful even when retries are off.
     */
    double watchdogUs = 0.0;

    bool enabled() const { return timeoutUs > 0.0; }
    bool watchdog_enabled() const { return watchdogUs > 0.0; }

    /** Timeout of the @p attempt-th reissue (0 = first try),
     *  backed off exponentially and saturated at the cap. */
    double
    attempt_timeout_us(int attempt) const
    {
        double cap = timeoutCapUs > 0.0 ? timeoutCapUs
                                        : timeoutUs * 8.0;
        double t = timeoutUs;
        double factor = backoffFactor > 1.0 ? backoffFactor : 1.0;
        for (int i = 0; i < attempt && t < cap; ++i)
            t *= factor;
        return std::min(t, cap);
    }
};

/** Full machine configuration (Table 1 plus model knobs). */
struct MachineConfig
{
    /** Number of cells; the real machine scales 4 - 1024. */
    int cells = 64;
    /** DRAM per cell. Real machine: 16 or 64 MB; model default is
     *  smaller so tests stay light. */
    std::size_t memBytesPerCell = 4 * 1024 * 1024;
    /** Processor clock (SuperSPARC, 50 MHz). */
    double clockMhz = 50.0;
    /** Write-through cache per cell (Table 1: 36 KB). */
    std::size_t cacheBytes = 36 * 1024;
    /** MSC+ command queue capacity in words (Section 4.1: 64). */
    int queueCapacityWords = 64;
    /** Initial ring buffer capacity per cell. */
    std::size_t ringBufferBytes = 256 * 1024;

    /**
     * The cost table, in microseconds: every charge of the MSC+, MC,
     * networks and runtime library reads its Figure 6 key here (see
     * DESIGN.md, "One cost table").
     */
    mlsim::Params cost = mlsim::Params::ap1000_plus();
    /** Serialize messages over each directed T-net link
     *  (extension; off = the paper's model). */
    bool linkContention = false;

    /**
     * Host worker threads driving the event kernel (sim/eventq.hh):
     * it runs min(N, cells) shards. 1 is the sequential loop; N > 1
     * runs one shard per worker with conservative windows. Cells map
     * to shards in contiguous blocks.
     */
    int threads = 1;
    /**
     * With threads > 1: execute events serially in the one-shard
     * global order while keeping all shard routing and handoff
     * accounting — tick histories and stats dumps become
     * byte-identical to a threads=1 run. Needed because parallel
     * machine runs do not repeat run-to-run (sim/eventq.hh).
     */
    bool deterministic = false;

    /** Fault-injection plan; the default plan injects nothing and
     *  leaves every fast path untouched. */
    sim::FaultPlan faults;
    /** Retry/timeout policy for the runtime's completion waits. */
    RetryPolicy retry;

    /** Stack the reliable-delivery layer (net/reliable.hh) between
     *  the MSC+ and the T-net. Off by default: the paper's T-net is
     *  lossless, and benches measure the layer's overhead. */
    bool reliableNet = false;
    /** Reliable-layer protocol parameters (window, RTO, ...). */
    net::ReliableParams rnet;

    /** Causal span recording mode (obs/span.hh). The flight
     *  recorder is on by default: probes cost a POD ring store. */
    obs::SpanMode spanMode = obs::SpanMode::flight;
    /** Per-cell flight-recorder capacity in span events. */
    std::size_t flightEvents = obs::FlightRecorder::default_capacity;
    /** When set, CommError postmortems also dump the merged flight
     *  rings as Chrome trace JSON to this path. */
    std::string postmortemOut = "";

    /** Peak MFLOPS per cell (Table 1: 50): the cost table's flop
     *  time at its computation factor. */
    double
    mflops_per_cell() const
    {
        return 1.0 / (cost.flop_time * cost.computation_factor);
    }

    /** Peak system GFLOPS (Table 1: 0.2 - 51.2). */
    double
    system_gflops() const
    {
        return cells * mflops_per_cell() / 1000.0;
    }

    /** @return the canonical AP1000+ configuration of Table 1. */
    static MachineConfig ap1000_plus(int cells = 64);
};

} // namespace ap::hw

#endif // AP_HW_CONFIG_HH
