/**
 * @file
 * Machine configuration: Table 1 specifications plus the hardware
 * timing knobs of the functional AP1000+ model.
 */

#ifndef AP_HW_CONFIG_HH
#define AP_HW_CONFIG_HH

#include <algorithm>
#include <cstddef>
#include <string>

#include "base/types.hh"
#include "net/bnet.hh"
#include "obs/span.hh"
#include "net/reliable.hh"
#include "net/snet.hh"
#include "net/tnet.hh"
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

/**
 * MSC+/MC timing parameters in microseconds. Defaults model the
 * AP1000+ (hardware message handling): a PUT costs the processor 8
 * store instructions (8 cycles at 50 MHz = 0.16 us, Section 4.1), the
 * DMA setup is 0.5 us (Figure 6 put_dma_set_time) and data streams at
 * the 25 MB/s link rate.
 */
struct HwTimings
{
    /** processor cost to enqueue one 8-word command. */
    double enqueueUs = 0.16;
    /** send DMA setup per command. */
    double dmaSetUs = 0.50;
    /** DMA streaming per payload byte (25 MB/s). */
    double dmaPerByteUs = 0.04;
    /** receive DMA setup per message. */
    double recvDmaSetUs = 0.50;
    /** MC fetch-and-increment of one flag. */
    double flagUpdateUs = 0.04;
    /** OS interrupt servicing a queue refill or fault. */
    double interruptUs = 20.0;
    /** MSC+ bookkeeping to deposit a SEND in the ring buffer. */
    double ringDepositUs = 0.50;
    /** RECEIVE library search of the ring buffer (processor). */
    double receiveSearchUs = 1.00;
    /** RECEIVE user-area copy per byte (processor). */
    double receiveCopyPerByteUs = 0.02;
    /** processor cost of a local communication-register access. */
    double commRegAccessUs = 0.08;
    /** processor cost of issuing a remote load/store (hardware). */
    double remoteAccessIssueUs = 0.04;
    /** processor cost of one flag check (read + compare). */
    double flagCheckUs = 0.10;
    /** processor cost of entering the S-net barrier. */
    double barrierIssueUs = 0.20;
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
    /** Peak MFLOPS per cell (Table 1). */
    double mflopsPerCell = 50.0;
    /** Write-through cache per cell (Table 1: 36 KB). */
    std::size_t cacheBytes = 36 * 1024;
    /** MSC+ command queue capacity in words (Section 4.1: 64). */
    int queueCapacityWords = 64;
    /** Initial ring buffer capacity per cell. */
    std::size_t ringBufferBytes = 256 * 1024;

    net::TnetParams tnet;
    net::BnetParams bnet;
    net::SnetParams snet;
    HwTimings timings;

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
    /**
     * Conservative lookahead in microseconds. 0 (the default)
     * derives the minimum cross-cell latency from the network
     * parameters: min(T-net prolog + one hop + epilog, B-net
     * prolog, S-net release).
     */
    double lookaheadUs = 0.0;

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

    /** Peak system GFLOPS (Table 1: 0.2 - 51.2). */
    double
    system_gflops() const
    {
        return cells * mflopsPerCell / 1000.0;
    }

    /** @return the canonical AP1000+ configuration of Table 1. */
    static MachineConfig ap1000_plus(int cells = 64);
};

} // namespace ap::hw

#endif // AP_HW_CONFIG_HH
