/**
 * @file
 * The B-net: shared broadcast bus (50 MB/s on the real machine).
 *
 * Used for program/data distribution and host communication. Modelled
 * as a single serialized channel: one broadcast occupies the bus for
 * bnet_prolog_time + bnet_msg_time * size (the machine's cost
 * table) and is then delivered to every attached cell.
 */

#ifndef AP_NET_BNET_HH
#define AP_NET_BNET_HH

#include <functional>
#include <mutex>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"
#include "mlsim/params.hh"
#include "net/message.hh"
#include "obs/span.hh"
#include "obs/tracer.hh"
#include "sim/eventq.hh"

namespace ap::net
{

/** Aggregate B-net statistics. */
struct BnetStats
{
    std::uint64_t broadcasts = 0;
    std::uint64_t payloadBytes = 0;
    std::uint64_t wireBytes = 0;
    /** Bus occupancy per broadcast, microseconds. */
    Histogram occupancyUs;
};

/** The broadcast network. */
class Bnet
{
  public:
    using Deliver = std::function<void(Message)>;

    /**
     * @param sim owning simulator
     * @param cells number of attached cells
     * @param cost the machine's cost table (bnet_* fields)
     */
    Bnet(sim::Simulator &sim, int cells, const mlsim::Params &cost);

    /** Register the receive handler for cell @p id. */
    void attach(CellId id, Deliver deliver);

    /**
     * Broadcast @p msg from msg.src to every other cell.
     * @return the delivery tick (same for all receivers).
     */
    Tick broadcast(Message msg);

    /** Number of broadcasts so far. */
    std::uint64_t count() const { return netStats.broadcasts; }

    const BnetStats &stats() const { return netStats; }

    /** Attach a cycle-timeline tracer (nullptr detaches). */
    void set_tracer(obs::Tracer *t) { tracer = t; }

    /** Attach the machine's span layer (nullptr detaches). */
    void set_spans(obs::SpanLayer *s) { spans = s; }

  private:
    sim::Simulator &sim;
    mlsim::Params cost;
    std::vector<Deliver> handlers;
    /** Serializes broadcast(): the bus clamp and stats are shared
     *  by every broadcasting cell's shard. */
    std::mutex busMutex;
    Tick busyUntil = 0;
    BnetStats netStats;
    obs::Tracer *tracer = nullptr;
    obs::SpanLayer *spans = nullptr;
};

} // namespace ap::net

#endif // AP_NET_BNET_HH
