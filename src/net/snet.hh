/**
 * @file
 * The S-net: dedicated hardware barrier-synchronization network.
 *
 * The paper's machine uses the S-net for all-cell barriers and
 * software (communication registers) for group barriers; this model
 * supports arbitrary member sets so both modes and the group
 * extension can be exercised. A barrier context collects arrivals and
 * releases every member barrier_time (the machine's cost table)
 * after the last arrival.
 */

#ifndef AP_NET_SNET_HH
#define AP_NET_SNET_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "base/types.hh"
#include "mlsim/params.hh"
#include "obs/span.hh"
#include "sim/eventq.hh"

namespace ap::net
{

/** Hardware barrier engine. */
class Snet
{
  public:
    /** Identifier of a barrier context. */
    using ContextId = int;

    /**
     * @param sim owning simulator
     * @param cells machine size
     * @param cost the machine's cost table (barrier_time)
     */
    Snet(sim::Simulator &sim, int cells, const mlsim::Params &cost);

    /**
     * Create a barrier context over @p members (empty = all cells).
     * Contexts are reusable: the barrier re-arms after each release.
     * Safe to call while the machine runs (the serving layer creates
     * a partition-scoped context per gang launch): creation locks
     * the same mutex as arrive()/fail_cell(), and contexts live in a
     * deque so concurrent arrivals keep stable references.
     */
    ContextId create_context(std::vector<CellId> members = {});

    /**
     * Cell @p cell arrives at barrier @p ctx; @p on_release fires at
     * the release tick. Arriving twice before release is an error.
     */
    void arrive(ContextId ctx, CellId cell,
                std::function<void()> on_release);

    /** Number of completed barrier episodes on @p ctx. */
    std::uint64_t episodes(ContextId ctx) const;

    /** Completed barrier episodes across every context. */
    std::uint64_t total_episodes() const;

    /**
     * Declare @p cell failed: every context releases as soon as all
     * its *live* members have arrived, so surviving cells complete
     * their barriers instead of waiting on the dead one forever.
     * Contexts already waiting only on @p cell release immediately.
     */
    void fail_cell(CellId cell);

    /** Attach the machine's span layer (nullptr detaches). Each
     *  barrier episode records one machine-wide span from the first
     *  arrival to the release tick under a fresh trace id. */
    void set_spans(obs::SpanLayer *s) { spans = s; }

  private:
    struct Context
    {
        std::vector<CellId> members;
        std::vector<bool> arrived;
        /** (arriving cell, its release callback): the callback is
         *  scheduled on the arriver's own shard at release time. */
        std::vector<std::pair<CellId, std::function<void()>>>
            callbacks;
        int count = 0;
        std::uint64_t completed = 0;
        Tick episodeBegin = 0; ///< first arrival of this episode
    };

    /** Release @p ctx when every live member has arrived. */
    void maybe_release(Context &ctx);

    sim::Simulator &sim;
    int numCells;
    mlsim::Params cost;
    /** Serializes create_context()/arrive()/fail_cell(): barrier
     *  contexts are shared by every member cell's shard and may be
     *  created mid-run. */
    mutable std::mutex ctxMutex;
    /** Deque, not vector: growth must not invalidate references a
     *  concurrent arrive() holds across maybe_release(). */
    std::deque<Context> contexts;
    std::vector<bool> failedCells;
    obs::SpanLayer *spans = nullptr;
};

} // namespace ap::net

#endif // AP_NET_SNET_HH
