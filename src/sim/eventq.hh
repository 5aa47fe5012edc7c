/**
 * @file
 * The discrete-event kernel.
 *
 * Both layers of the reproduction sit on this kernel: the functional
 * AP1000+ machine (message deliveries, DMA completions, interrupt
 * service) and MLSim's trace replay. Determinism is load-bearing:
 * events at the same tick fire in insertion order, so a given
 * workload always produces the same timeline and the same trace.
 *
 * Every event carries an *affinity* — an opaque small integer (the
 * functional machine uses the destination cell id) that names which
 * logical timeline the event belongs to. The kernel shards its
 * pending events by affinity (ShardConfig::shards, default 1):
 *
 *   One shard. The sequential loop: one queue, one sequence
 *   counter, no windows, no locks, no thread-local state. Affinity
 *   is only recorded (for tick histories).
 *
 *   Conservative windows (shards > 1). Physics gives a lower bound L
 *   (the *lookahead*) on the model-time distance of any cross-shard
 *   effect: a T-net message pays at least prolog + one hop before it
 *   can touch another cell, a B-net broadcast pays the bus prolog,
 *   an S-net release pays the combine latency. Therefore, if T is
 *   the globally earliest pending event, every event strictly before
 *   T + L is already in its shard's queue — no in-flight cross-shard
 *   event can land below that horizon. Each round, every shard
 *   drains its events with when < T + L on its own host worker
 *   thread, workers barrier, cross-shard events produced during the
 *   round are exchanged, and the next window starts. A cross-shard
 *   event scheduled inside the window breaks that contract and
 *   panics.
 *
 *   Handoff. A cross-shard schedule_for() lands in the target
 *   shard's inbox (per source-shard outboxes during a parallel
 *   round, so the hot path takes no lock). At the window barrier,
 *   inboxes merge into the target queue in a canonical
 *   (tick, affinity, source shard, source sequence) order, which is
 *   independent of which worker finished first. That makes a
 *   parallel kernel run reproducible run-to-run when each handler
 *   touches only its own timeline's state
 *   (ShardQ.ParallelRunIsReproducibleRunToRun pins it). Machine runs
 *   are not: components share order-sensitive state across shards
 *   (the fault injector's RNG draw sequence, the T-net FIFO clamp),
 *   and shards reach it in host order within a window. Seed 11 of
 *   perfbench's halo_put_t4 gave a different simulated finish time
 *   on repeated parallel passes (perfbench/README.md).
 *
 *   Deterministic mode. Events carry a global sequence number and
 *   the calling thread executes them in exactly the one-shard
 *   (tick, sequence) order — same shard routing, same handoff
 *   bookkeeping, serialized execution. The differential harness
 *   (tests/harness) runs threads=1 against threads=N deterministic
 *   and asserts identical tick histories, memory images and stats
 *   dumps, which pins the sharding plumbing (routing, horizons) to
 *   the sequential semantics.
 *
 * Hot-path machinery (see DESIGN.md "Hot paths"): pending events
 * live in ladder queues (sim/ladderq.hh) of pooled nodes
 * (sim/event.hh), and handlers are EventFn small-buffer callables
 * instead of std::function, so steady-state scheduling allocates
 * nothing.
 */

#ifndef AP_SIM_EVENTQ_HH
#define AP_SIM_EVENTQ_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/types.hh"
#include "sim/event.hh"
#include "sim/ladderq.hh"

namespace ap::sim
{

/**
 * An order-sensitive digest of an executed event sequence.
 *
 * Differential determinism tests attach one of these to two kernels
 * (one shard and N shards deterministic) running the same workload
 * and compare digests: every executed event folds its (tick,
 * affinity) pair into an FNV-1a hash *in execution order*, so any
 * reordering, loss, duplication or retiming of events changes the
 * digest. Optionally the raw (tick, affinity) log is kept (bounded)
 * so a divergence can be localized instead of just detected.
 */
class TickHistory
{
  public:
    /** Fold one executed event into the digest. */
    void
    record(Tick when, int affinity)
    {
        ++numEvents;
        fold(when);
        fold(static_cast<std::uint64_t>(
            static_cast<std::int64_t>(affinity)));
        if (logCap > 0) {
            if (logBuf.size() < logCap)
                logBuf.emplace_back(when, affinity);
            else
                wasTruncated = true;
        }
    }

    /** Order-sensitive digest over every recorded event. */
    std::uint64_t hash() const { return state; }

    /** Number of events recorded. */
    std::uint64_t events() const { return numEvents; }

    /** Keep the first @p cap raw (tick, affinity) pairs. */
    void set_keep_log(std::size_t cap) { logCap = cap; }

    /** The retained raw log (first set_keep_log() entries). */
    const std::vector<std::pair<Tick, int>> &log() const
    {
        return logBuf;
    }

    /**
     * True when record() dropped entries past the log capacity —
     * the retained log is a prefix, not the whole run. Localization
     * tooling must widen the capacity rather than conclude the
     * histories converge where the log stops.
     */
    bool truncated() const { return wasTruncated; }

    /** "events=N hash=0x..." — the one-line comparable digest
     *  (suffixed with the kept/total log count when truncated). */
    std::string digest() const;

    /** Reset to the empty history (keeps the log capacity). */
    void
    reset()
    {
        state = fnv_offset;
        numEvents = 0;
        logBuf.clear();
        wasTruncated = false;
    }

    bool
    operator==(const TickHistory &o) const
    {
        return state == o.state && numEvents == o.numEvents;
    }

  private:
    static constexpr std::uint64_t fnv_offset =
        0xcbf29ce484222325ull;
    static constexpr std::uint64_t fnv_prime = 0x100000001b3ull;

    void
    fold(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            state ^= (v >> (8 * i)) & 0xff;
            state *= fnv_prime;
        }
    }

    std::uint64_t state = fnv_offset;
    std::uint64_t numEvents = 0;
    std::size_t logCap = 0;
    bool wasTruncated = false;
    std::vector<std::pair<Tick, int>> logBuf;
};

/** Construction knobs of the kernel. */
struct ShardConfig
{
    /** Shards == host worker threads. 1 runs the sequential loop. */
    int shards = 1;
    /**
     * Conservative lookahead in ticks: a strict lower bound on the
     * model-time delay of any cross-shard event. Must be >= 1 (a
     * zero lookahead admits no parallel window at all).
     */
    Tick lookahead = 1;
    /**
     * With shards > 1: execute events in the one-shard kernel's
     * global (tick, sequence) order on the calling thread (see file
     * comment).
     */
    bool deterministic = false;
    /**
     * Map an affinity value to a shard index. Defaults to
     * affinity % shards (negative affinities map to shard 0). The
     * machine installs a contiguous cell-block map instead so torus
     * neighbours tend to share a shard. Never called with one shard.
     */
    std::function<int(int)> affinityMap;
};

/** Per-shard execution statistics (shards > 1 only). */
struct ShardStats
{
    std::uint64_t executed = 0;     ///< events run on this shard
    std::uint64_t handoffsIn = 0;   ///< events merged from other shards
    std::uint64_t handoffsOut = 0;  ///< events sent to other shards
    std::uint64_t maxPending = 0;   ///< queue depth high-water mark
    /**
     * Host wall-clock nanoseconds this shard's thread spent parked
     * at the window barrier (a worker: between finishing its drain
     * and the next round's wake; the coordinator: waiting for the
     * workers). Wall-clock, so never part of determinism compares.
     */
    std::uint64_t barrierWaitNs = 0;
};

/** What one shard did inside one parallel window. */
struct WindowShard
{
    std::uint64_t events = 0; ///< events this shard executed
    Tick last = 0;            ///< its last executed tick (0 if idle)
};

/**
 * One parallel window's record: what the round cost and how evenly
 * it spread. Only the parallel path produces these — one-shard and
 * deterministic runs have no windows, which is what keeps the
 * telemetry from perturbing byte-identity checks.
 */
struct WindowRecord
{
    std::uint64_t index = 0; ///< 0-based window number
    Tick start = 0;          ///< globally earliest pending tick
    Tick end = 0;            ///< exclusive horizon (start + lookahead)
    /** Horizon advance over the previous window's start (0 for the
     *  first window). */
    Tick advance = 0;
    std::uint64_t events = 0;         ///< executed, all shards
    std::uint64_t maxShardEvents = 0; ///< busiest shard's events
    /**
     * Load-imbalance ratio max/mean events per shard, fixed-point
     * x1000 (1000 = perfectly balanced). 0 for an empty window.
     */
    std::uint64_t imbalanceX1000 = 0;
    /** Coordinator's host wall-clock wait for the workers, ns. */
    std::uint64_t barrierWaitNs = 0;
    /** Host wall-clock spent merging outboxes at the barrier, ns. */
    std::uint64_t mergeNs = 0;
    /** Per-shard breakdown, indexed by shard. */
    std::vector<WindowShard> shards;
};

/** Aggregate over every window executed so far. */
struct WindowAgg
{
    std::uint64_t windows = 0;
    std::uint64_t events = 0;
    Tick horizonAdvance = 0;       ///< sum of per-window advances
    std::uint64_t barrierWaitNs = 0; ///< coordinator waits only
    std::uint64_t mergeNs = 0;
    std::uint64_t imbalanceMaxX1000 = 0;
    std::uint64_t imbalanceSumX1000 = 0; ///< over non-empty windows
};

/**
 * The event-driven simulator. One instance per simulated machine;
 * see the file comment for the one-shard and sharded execution
 * models.
 */
class Simulator
{
  public:
    explicit Simulator(ShardConfig cfg = {});
    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** @return the current simulated time (per worker inside a
     *  parallel window). */
    Tick
    now() const
    {
        return numShards == 1 ? globalTime : sharded_now();
    }

    /**
     * Schedule @p fn to run at absolute time @p when, inheriting the
     * affinity of the event currently executing (machine components
     * scheduling follow-ups for their own cell need no annotation).
     * @param when must not be in the past.
     */
    void schedule(Tick when, EventFn fn);

    /**
     * Schedule @p fn at @p when on behalf of timeline @p affinity —
     * the cross-timeline entry point (message deliveries name the
     * destination cell, barrier releases the released cell). With
     * shards > 1 the affinity routes the event to its shard.
     * Negative affinities mean "no particular timeline".
     */
    void schedule_for(int affinity, Tick when, EventFn fn);

    /**
     * Schedule @p fn to run @p delta ticks from now. Relative delays
     * model hardware latencies, so this is the hook point for fault
     * plans that jitter event timing: when a jitter hook is
     * installed, a bounded extra delay is added to @p delta.
     */
    void
    schedule_after(Tick delta, EventFn fn)
    {
        if (jitterHook)
            delta += jitterHook(delta);
        schedule(now() + delta, std::move(fn));
    }

    /** schedule_after with an explicit timeline (see schedule_for). */
    void
    schedule_after_for(int affinity, Tick delta, EventFn fn)
    {
        if (jitterHook)
            delta += jitterHook(delta);
        schedule_for(affinity, now() + delta, std::move(fn));
    }

    /**
     * Install (or clear, with nullptr) a latency jitter hook applied
     * to every schedule_after() delay. The hook returns extra ticks
     * to add. Absolute-time schedule() calls are never jittered, so
     * callers that manage their own serialization timelines (the
     * T-net FIFO clamp, receive-DMA busy tracking, process wakeups)
     * keep their invariants.
     */
    void
    set_delay_jitter(std::function<Tick(Tick)> hook)
    {
        jitterHook = std::move(hook);
    }

    /**
     * Attach a tick-history recorder (nullptr detaches). Every
     * executed event folds (tick, affinity) into it in execution
     * order (a parallel run folds per-shard digests instead; see
     * run_parallel); the recorder must outlive the run.
     */
    void set_history(TickHistory *h) { history = h; }

    /** Run events until the queue drains. @return final time. */
    Tick run();

    /**
     * Run events with timestamps <= @p limit; the clock stops at the
     * last executed event (or stays put if none qualify).
     * @return the simulated time afterwards.
     */
    Tick run_until(Tick limit);

    /** Execute the globally earliest event. @return false when the
     *  queue is empty. */
    bool step();

    /** @return true when no events are pending. */
    bool empty() const;

    /** @return number of pending events. */
    std::size_t pending() const;

    /** @return total number of events executed so far. */
    std::uint64_t executed() const { return numExecuted; }

    /** Kernel allocation counters (event-node pools + EventFn heap
     *  spills) — the sim.alloc.* feed. */
    SimAllocStats alloc_stats() const;

    /** Affinity of the event currently executing (0 at rest). */
    int current_affinity() const;

    // -- shard introspection (tests, machine telemetry, reports) -------

    int shards() const { return numShards; }
    Tick lookahead() const { return cfg.lookahead; }
    bool deterministic() const { return cfg.deterministic; }

    /** Shard that affinity @p affinity routes to. */
    int shard_of(int affinity) const;

    /**
     * The horizon below which every shard may freely execute: the
     * globally earliest pending tick + lookahead. max_tick when
     * nothing is pending.
     */
    Tick safe_horizon() const;

    /** Next pending tick of shard @p s (max_tick when idle). */
    Tick shard_next(int s) const;

    const ShardStats &shard_stats(int s) const;

    /** Number of parallel windows (rounds) executed so far. */
    std::uint64_t windows() const { return numWindows; }

    /** Aggregate window telemetry (all zero outside parallel mode). */
    const WindowAgg &window_stats() const { return windowAgg; }

    /**
     * Observer called on the coordinator thread after each parallel
     * window's barrier + merge, while every worker is parked — the
     * machine quiescent point. The machine uses it to feed the
     * tracer and the barrier_wait critical-path stage without the
     * sim layer depending on obs.
     */
    using WindowHook = std::function<void(const WindowRecord &)>;
    void set_window_hook(WindowHook hook)
    {
        windowHook = std::move(hook);
    }

    /**
     * Cross-shard events scheduled closer than the lookahead during
     * deterministic execution. (A parallel window panics on one.)
     */
    std::uint64_t lookahead_violations() const
    {
        return numViolations.load(std::memory_order_relaxed);
    }

    /** One-line kernel report ("2 shards, 13 windows, ..."). */
    std::string report() const;

  private:
    /** A cross-shard event in flight between window barriers. The
     *  closure rides by value; the destination's pooled node is
     *  allocated at merge time, on the coordinator. */
    struct Handoff
    {
        Tick when;
        int affinity;
        int srcShard;
        std::uint64_t srcSeq;
        EventFn fn;
    };

    struct Shard
    {
        /** Pending events; seq is shard-local (global in
         *  deterministic mode). */
        LadderQueue queue;
        std::uint64_t nextSeq = 0;
        /** Outboxes, one per destination shard; worker-exclusive
         *  during a round, drained at the barrier. */
        std::vector<std::vector<Handoff>> outbox;
        std::uint64_t outSeq = 0;
        Tick lastExecuted = 0;
        ShardStats stats;
        /** Per-shard history digest (parallel mode). */
        TickHistory localHistory;
    };

    /** What a sharded kernel's calling thread / worker is currently
     *  executing. Untouched with one shard. */
    struct TlsFrame
    {
        Simulator *owner = nullptr;
        int shard = 0;
        int affinity = 0;
        Tick now = 0;
        /** End of the current parallel window; 0 outside rounds. */
        Tick windowEnd = 0;
        bool inRound = false;
    };

    static thread_local TlsFrame tls;

    LadderQueue &home() { return shardsVec.front().queue; }
    bool step_one();

    Tick sharded_now() const;
    void schedule_sharded(int affinity, Tick when, EventFn fn);
    /** Push onto @p sh with the mode's sequence number and track
     *  its depth high-water mark. */
    void push_to(Shard &sh, int affinity, Tick when, EventFn fn);
    void note_window(const WindowRecord &rec);
    void merge_outboxes();
    void drain_shard(int s, Tick windowEnd);
    Tick next_pending() const;
    Tick run_sharded(Tick limit);
    Tick run_deterministic(Tick limit);
    Tick run_parallel(Tick limit);
    bool step_deterministic();
    void start_workers();
    void stop_workers();
    void worker_main(int s);

    ShardConfig cfg;
    int numShards;
    /** Shard 0 doubles as the one-shard kernel's queue. */
    std::vector<Shard> shardsVec;
    std::function<Tick(Tick)> jitterHook;
    TickHistory *history = nullptr;

    // -- run state ------------------------------------------------------
    /** Time of the last executed event (one shard), or the global
     *  clock between parallel windows. */
    Tick globalTime = 0;
    std::uint64_t numExecuted = 0;
    /** One shard: affinity of the event currently executing. */
    int currentAffinity = 0;
    bool running = false;
    std::uint64_t globalSeq = 0;   ///< deterministic-mode sequence
    std::uint64_t numWindows = 0;
    std::atomic<std::uint64_t> numViolations{0};
    /** Guards every shard queue while no run is in progress. */
    mutable std::mutex qMutex;

    // -- worker pool ----------------------------------------------------
    std::mutex poolMutex;
    std::condition_variable poolCv;   ///< coordinator -> workers
    std::condition_variable doneCv;   ///< workers -> coordinator
    std::uint64_t roundGen = 0;
    int roundDone = 0;
    Tick roundWindowEnd = 0;
    bool shuttingDown = false;
    std::vector<std::thread> workers;

    // -- window telemetry (coordinator-only writes) ---------------------
    WindowAgg windowAgg;
    Tick prevWindowStart = 0;
    bool haveWindowStart = false;
    WindowHook windowHook;
    /** Scratch: per-shard executed count at window start. */
    std::vector<std::uint64_t> execAtWindowStart;
};

} // namespace ap::sim

#endif // AP_SIM_EVENTQ_HH
