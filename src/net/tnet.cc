#include "net/tnet.hh"

#include <string>
#include <utility>

#include "base/logging.hh"
#include "obs/debug.hh"

namespace ap::net
{

Tnet::Tnet(sim::Simulator &sim, Torus topo, const mlsim::Params &cost,
           bool linkContention)
    : sim(sim), topo(topo), cost(cost), linkContention(linkContention),
      handlers(static_cast<std::size_t>(topo.size())),
      inFlight(static_cast<std::size_t>(topo.size()))
{
}

void
Tnet::attach(CellId id, Deliver deliver)
{
    if (!topo.valid(id))
        panic("attach to invalid cell %d", id);
    handlers[static_cast<std::size_t>(id)] = std::move(deliver);
}

Tick
Tnet::latency(CellId src, CellId dst, std::uint64_t bytes) const
{
    return us_to_ticks(cost.network(topo.distance(src, dst), bytes));
}

Tick
Tnet::contention_arrival(const Message &msg, Tick inject)
{
    // Wormhole approximation: the head pays per-hop delay and queues
    // behind busy links; each link stays occupied while the body
    // streams through at link bandwidth.
    const mlsim::Params &p = cost.params();
    Tick head = inject + us_to_ticks(p.network_prolog_time);
    Tick body = us_to_ticks(p.network_msg_time *
                            static_cast<double>(msg.wire_bytes()));
    auto hops = topo.route(msg.src, msg.dst);
    for (const Hop &hop : hops) {
        std::uint64_t key =
            static_cast<std::uint64_t>(hop.from) *
                static_cast<std::uint64_t>(topo.size()) +
            static_cast<std::uint64_t>(hop.to);
        Tick &busy = linkBusy[key];
        head = std::max(head, busy) +
               us_to_ticks(p.network_delay_time);
        busy = head + body;
    }
    return head + body + us_to_ticks(p.network_epilog_time);
}

void
Tnet::schedule_delivery(Message msg, Tick arrive)
{
    // Delivery executes on the destination cell's timeline: under the
    // sharded kernel the explicit affinity routes the event to the
    // destination's shard (the cross-shard handoff of the model).
    CellId dst = msg.dst;
    sim.schedule_for(dst, arrive,
                     [this, msg = std::move(msg)]() mutable {
        handlers[static_cast<std::size_t>(msg.dst)](std::move(msg));
    });
}

void
Tnet::schedule_held_delivery(Message msg, Tick arrive)
{
    CellId dst = msg.dst;
    sim.schedule_for(dst, arrive,
                     [this, msg = std::move(msg)]() mutable {
        faults->release_hold(msg.dst);
        handlers[static_cast<std::size_t>(msg.dst)](std::move(msg));
    });
}

Tick
Tnet::fifo_clamp(CellId src, CellId dst, Tick inject, Tick arrive)
{
    // Enforce FIFO per source-destination pair: a later injection may
    // never arrive before an earlier one. Every arrival is at or after
    // its injection, so an entry with arrive <= inject can never clamp
    // and is dropped — exact under jitter, reorder, drop, duplicate
    // and link contention alike. What remains is the source's
    // in-flight set: a few entries, not one per pair ever used.
    std::vector<InFlight> &mine =
        inFlight[static_cast<std::size_t>(src)];
    InFlight *pair = nullptr;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < mine.size(); ++i) {
        if (mine[i].arrive <= inject)
            continue;
        mine[keep] = mine[i];
        if (mine[keep].dst == dst)
            pair = &mine[keep];
        ++keep;
    }
    mine.resize(keep);
    if (!pair) {
        mine.push_back({dst, arrive});
        return arrive;
    }
    if (arrive < pair->arrive)
        arrive = pair->arrive;
    pair->arrive = arrive;
    return arrive;
}

Tick
Tnet::send(Message msg)
{
    if (!topo.valid(msg.src) || !topo.valid(msg.dst))
        panic("send between invalid cells %d -> %d", msg.src, msg.dst);

    // One lock covers the whole injection: the contention table,
    // stats and fault draws are machine-global, and senders on
    // different shards may inject concurrently.
    std::lock_guard<std::mutex> lock(sendMutex);

    // Fail-stop cells neither send nor receive: discard silently so
    // retransmission logic above (or a watchdog) surfaces the loss.
    if (alive && (!alive(msg.src) || !alive(msg.dst))) {
        ++netStats.deadCellDrops;
        return sim.now();
    }

    Tick inject = sim.now();
    Tick arrive;
    if (linkContention && msg.src != msg.dst) {
        arrive = contention_arrival(msg, inject);
    } else {
        arrive = inject + latency(msg.src, msg.dst, msg.wire_bytes());
    }

    // Injected latency jitter is added before the FIFO clamp below,
    // so a jitter-only fault plan perturbs timing without ever
    // breaking in-order delivery.
    bool inject_faults = faults && faults->active();
    if (inject_faults)
        arrive += faults->jitter();

    arrive = fifo_clamp(msg.src, msg.dst, inject, arrive);

    netStats.messages++;
    netStats.payloadBytes += msg.payload.size();
    netStats.wireBytes += msg.wire_bytes();
    netStats.distance.sample(
        static_cast<std::uint64_t>(topo.distance(msg.src, msg.dst)));
    netStats.messageSize.sample(msg.payload.size());
    netStats.latencyUs.sample(
        static_cast<std::uint64_t>(ticks_to_us(arrive - inject)));

    auto &handler = handlers[static_cast<std::size_t>(msg.dst)];
    if (!handler)
        panic("no receive handler attached to cell %d", msg.dst);

    AP_DPRINTF(TNet, "%s %d -> %d (%llu wire bytes, %.2f us)",
               to_string(msg.kind), msg.src, msg.dst,
               static_cast<unsigned long long>(msg.wire_bytes()),
               ticks_to_us(arrive - inject));

    if (inject_faults) {
        if (faults->drop_message()) {
            // The wire was used (stats above) but nothing arrives.
            // aux=1 marks the flight as lost for the span layer.
            ++netStats.dropped;
            if (spans && msg.traceId != 0)
                spans->record(msg.dst, msg.traceId,
                              obs::SpanStage::net, inject, arrive,
                              obs::SpanOp::none, 1);
            if (tracer)
                tracer->instant(obs::machine_track, "fault",
                                std::string("drop:") +
                                    to_string(msg.kind));
            AP_DPRINTF(Fault, "dropped %s %d -> %d",
                       to_string(msg.kind), msg.src, msg.dst);
            return arrive;
        }
        if (faults->duplicate_message() &&
            faults->try_hold(msg.dst,
                             sim::FaultInjector::HoldKind::duplicate)) {
            ++netStats.duplicated;
            if (tracer)
                tracer->instant(obs::machine_track, "fault",
                                std::string("duplicate:") +
                                    to_string(msg.kind));
            AP_DPRINTF(Fault, "duplicated %s %d -> %d",
                       to_string(msg.kind), msg.src, msg.dst);
            schedule_held_delivery(msg, arrive);
        }
        if (faults->reorder_message() &&
            faults->try_hold(msg.dst,
                             sim::FaultInjector::HoldKind::reorder)) {
            // Held back past the FIFO clamp already recorded in
            // `inFlight`: later same-pair traffic overtakes this
            // message.
            ++netStats.reordered;
            if (tracer)
                tracer->instant(obs::machine_track, "fault",
                                std::string("reorder:") +
                                    to_string(msg.kind));
            AP_DPRINTF(Fault, "reordered %s %d -> %d",
                       to_string(msg.kind), msg.src, msg.dst);
            if (spans && msg.traceId != 0)
                spans->record(msg.dst, msg.traceId,
                              obs::SpanStage::net, inject,
                              arrive + faults->reorder_delay());
            if (tracer && msg.src != msg.dst)
                tracer->span_at(static_cast<int>(msg.dst), "tnet",
                                std::string("flight:") +
                                    to_string(msg.kind),
                                inject,
                                arrive + faults->reorder_delay());
            schedule_held_delivery(std::move(msg),
                                   arrive + faults->reorder_delay());
            return arrive;
        }
        if (faults->corrupt_message()) {
            ++netStats.corrupted;
            if (!msg.payload.empty())
                msg.payload[faults->corrupt_index(
                    msg.payload.size())] ^= 0xFF;
            else
                msg.checksum ^= 1;
            if (tracer)
                tracer->instant(obs::machine_track, "fault",
                                std::string("corrupt:") +
                                    to_string(msg.kind));
            AP_DPRINTF(Fault, "corrupted %s %d -> %d",
                       to_string(msg.kind), msg.src, msg.dst);
        }
    }

    if (spans && msg.traceId != 0)
        spans->record(msg.dst, msg.traceId, obs::SpanStage::net,
                      inject, arrive);
    if (tracer && msg.src != msg.dst)
        tracer->span_at(static_cast<int>(msg.dst), "tnet",
                        std::string("flight:") + to_string(msg.kind),
                        inject, arrive);
    schedule_delivery(std::move(msg), arrive);
    return arrive;
}

} // namespace ap::net
