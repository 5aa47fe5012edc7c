/**
 * @file
 * The whole machine: cells plus the three networks (Figure 4).
 */

#ifndef AP_HW_MACHINE_HH
#define AP_HW_MACHINE_HH

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/types.hh"
#include "hw/cell.hh"
#include "hw/config.hh"
#include "hw/dsm.hh"
#include "net/bnet.hh"
#include "net/reliable.hh"
#include "net/snet.hh"
#include "net/tnet.hh"
#include "net/topology.hh"
#include "obs/sampler.hh"
#include "obs/span.hh"
#include "obs/stats_registry.hh"
#include "obs/tracer.hh"
#include "sim/eventq.hh"
#include "sim/fault.hh"

namespace ap::hw
{

/** A complete AP1000+ system. */
class Machine
{
  public:
    /** Build the machine described by @p cfg. */
    explicit Machine(MachineConfig cfg);

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** The event kernel driving this machine: min(cfg.threads,
     *  cells) shards, so sim().shards() == 1 runs the sequential
     *  loop. */
    sim::Simulator &sim() { return simulator; }

    /**
     * Drain the event queue. Equivalent to sim().run(), except that
     * an enabled timeline sampler drives the run in period slices
     * (same event order — the sampler only observes). Drivers that
     * run the machine to completion should call this instead of
     * sim().run() so --timeline-out works everywhere.
     */
    void run_to_completion();

    /** Number of cells. */
    int size() const { return static_cast<int>(cells.size()); }

    /** Access one cell. */
    Cell &cell(CellId id);
    const Cell &cell(CellId id) const;

    net::Tnet &tnet() { return tnetNet; }
    net::Bnet &bnet() { return bnetNet; }
    net::Snet &snet() { return snetNet; }

    /** The reliable layer, or nullptr when cfg.reliableNet is off. */
    net::ReliableNet *reliable() { return rnetNet.get(); }
    const net::ReliableNet *reliable() const { return rnetNet.get(); }
    const net::Torus &topology() const { return tnetNet.topology(); }
    const DsmMap &dsm() const { return dsmMap; }

    const MachineConfig &config() const { return cfg; }

    /** The fault injector built from cfg.faults (inert when the plan
     *  injects nothing). */
    sim::FaultInjector &faults() { return faultInj; }
    const sim::FaultInjector &faults() const { return faultInj; }

    /** Install a PUT/GET page-fault observer on every cell. */
    void set_fault_hook(FaultHook hook);

    // -- fail-stop cells -----------------------------------------------

    /** @return true when @p id has been declared failed. */
    bool
    cell_failed(CellId id) const
    {
        return cellFailed[static_cast<std::size_t>(id)] != 0;
    }

    /** @return true when any cell has been declared failed. */
    bool any_failed() const { return cellKills.load() > 0; }

    /**
     * Declare @p id failed (fail-stop, idempotent): its traffic is
     * discarded, queued reliable-layer messages to/from it abort,
     * and barriers release without it. Scheduled automatically for
     * every FaultPlan::kills entry.
     */
    void fail_cell(CellId id);

    /**
     * Install a fail-stop observer: called at the end of every
     * effective fail_cell() with the dead cell's id (on the dying
     * cell's shard under the sharded kernel). One hook; set it while
     * the machine is quiescent, pass nullptr to detach. The serving
     * layer uses it to doom and reschedule affected gangs.
     */
    void set_kill_hook(std::function<void(CellId)> hook);

    /**
     * Count one exhausted communication retry budget. Called by the
     * hardened runtime paths just before they throw their give-up
     * CommError; surfaces as `comm.retry.giveup` in the registry.
     */
    void note_retry_giveup() { ++retryGiveups; }

    // -- watchdog wait registry ----------------------------------------

    /** What one cell is currently parked on (for wait_graph()). */
    struct WaitInfo
    {
        const char *what = nullptr; ///< "wait_flag", "ack", ...
        Addr addr = 0;
        std::uint64_t target = 0;
        Tick since = 0;
    };

    /** Record that @p id is blocked on @p what (watchdog support). */
    void
    set_wait(CellId id, const char *what, Addr addr,
             std::uint64_t target)
    {
        WaitInfo &w = waitInfos[static_cast<std::size_t>(id)];
        w.what = what;
        w.addr = addr;
        w.target = target;
        w.since = simulator.now();
    }

    /** Clear @p id 's wait record (the wait completed). */
    void
    clear_wait(CellId id)
    {
        waitInfos[static_cast<std::size_t>(id)].what = nullptr;
    }

    /**
     * Render a machine-wide wait-graph dump: every cell's current
     * blocked operation with the live value of the awaited flag/ack
     * counter, plus failed cells. Attached to watchdog CommErrors so
     * a stuck run explains itself instead of hanging.
     */
    std::string wait_graph();

    /**
     * Render a machine-wide statistics report: network traffic,
     * aggregated MSC+/MC/TLB/ring-buffer counters, and the busiest
     * cells — the post-run dashboard. Built entirely from registry
     * walks.
     */
    std::string report() const;

    // -- telemetry -----------------------------------------------------

    /**
     * Every component counter/gauge/histogram under hierarchical
     * dotted paths ("cell3.msc.user_queue.spills", "tnet.messages").
     * Populated at construction.
     */
    obs::StatsRegistry &stats_registry() { return statsReg; }
    const obs::StatsRegistry &stats_registry() const { return statsReg; }

    /** Registry rendered as nested JSON. */
    std::string stats_json(bool pretty = true) const;

    /** Registry rendered as a flat text table. */
    std::string stats_text() const;

    /**
     * Write stats_json() to @p path. @return false on I/O error.
     */
    bool dump_stats(const std::string &path) const;

    /**
     * Turn on the cycle-timeline tracer and wire it into every
     * component (networks, MSC+s, MCs, ring buffers). Idempotent;
     * @p capacity bounds the ring buffer on first call.
     */
    void enable_tracing(
        std::size_t capacity = obs::Tracer::default_capacity);

    /** The tracer, or nullptr while tracing is off. */
    obs::Tracer *tracer() { return tracerPtr.get(); }
    const obs::Tracer *tracer() const { return tracerPtr.get(); }

    /**
     * Write the tracer's Chrome trace_event JSON to @p path.
     * @return false when tracing is off or on I/O error.
     */
    bool write_trace(const std::string &path) const;

    // -- continuous perf timeline --------------------------------------

    /**
     * Turn on the timeline sampler: run_to_completion() then samples
     * the stats registry every @p periodUs of model time into a
     * bounded ring (obs/sampler.hh). Idempotent; the first call
     * fixes period and capacity.
     */
    obs::TimelineSampler &enable_timeline(
        double periodUs,
        std::size_t capacity = obs::TimelineSampler::default_capacity);

    /** The sampler, or nullptr while the timeline is off. */
    obs::TimelineSampler *timeline() { return samplerPtr.get(); }
    const obs::TimelineSampler *timeline() const
    {
        return samplerPtr.get();
    }

    /**
     * Write the sampler's timeline JSON to @p path. @return false
     * when the timeline is off or on I/O error.
     */
    bool write_timeline(const std::string &path) const;

    /**
     * Write the sampler's timeline as CSV (one row per sample, one
     * column per series) to @p path. @return false when the timeline
     * is off or on I/O error.
     */
    bool write_timeline_csv(const std::string &path) const;

    // -- causal spans / flight recorder --------------------------------

    /** The causal span layer, wired into every component at
     *  construction (mode from MachineConfig::spanMode). */
    obs::SpanLayer &spans() { return spanLayer; }
    const obs::SpanLayer &spans() const { return spanLayer; }

    /** Switch the span recording mode at runtime (off/flight/full).
     *  Use full before a run that feeds the critical-path
     *  profiler (obs/critpath.hh). */
    void set_span_mode(obs::SpanMode mode)
    {
        spanLayer.set_mode(mode);
    }

    /**
     * The black box: render the merged flight rings (last
     * @p maxPerCell events per cell) as a postmortem text block.
     * When cfg.postmortemOut is set, the full merged rings are also
     * written there as Chrome trace JSON and the path is named in
     * the text. Appended to every CommError the runtime raises.
     */
    std::string postmortem(std::size_t maxPerCell = 8);

    /**
     * Write the merged flight rings as Chrome trace_event JSON to
     * @p path. @return false on I/O error.
     */
    bool dump_flight_recorder(const std::string &path) const;

    /** One-line flight-recorder status (events retained/dropped). */
    std::string flight_report() const;

  private:
    void register_stats();
    void register_kernel_stats();
    void on_window(const sim::WindowRecord &w);

    MachineConfig cfg;
    sim::FaultInjector faultInj;
    /** Sharded by cfg.threads; everything below holds a reference. */
    sim::Simulator simulator;
    net::Tnet tnetNet;
    net::Bnet bnetNet;
    net::Snet snetNet;
    std::unique_ptr<net::ReliableNet> rnetNet;
    DsmMap dsmMap;
    /** Payload buffer pools, one per kernel shard (one machine-wide
     *  with one shard). Declared before `cells` so the
     *  MSC+ pool references outlive their users. */
    std::vector<std::unique_ptr<BufferPool>> payloadPools;
    std::vector<std::unique_ptr<Cell>> cells;
    /** Atomic: written by fail_cell() on the dying cell's shard,
     *  read by liveness checks on every sending cell's shard. */
    std::vector<std::atomic<char>> cellFailed;
    std::vector<WaitInfo> waitInfos;
    std::atomic<std::uint64_t> cellKills{0};
    std::atomic<std::uint64_t> retryGiveups{0};
    std::function<void(CellId)> killHook;
    obs::StatsRegistry statsReg;
    std::unique_ptr<obs::Tracer> tracerPtr;
    std::unique_ptr<obs::TimelineSampler> samplerPtr;
    obs::SpanLayer spanLayer;
};

} // namespace ap::hw

#endif // AP_HW_MACHINE_HH
