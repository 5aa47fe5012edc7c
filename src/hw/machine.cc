#include "hw/machine.hh"

#include <algorithm>
#include <cstdint>
#include <cstdlib>

#include "base/logging.hh"
#include "obs/json.hh"

namespace ap::hw
{

namespace
{

/**
 * The conservative lookahead of this configuration: the minimum
 * model-time distance of any cross-cell effect. A T-net message pays
 * at least prolog + one hop + epilog before touching another cell, a
 * B-net broadcast pays the bus prolog, an S-net release pays the
 * combine latency. cfg.lookaheadUs overrides the derivation.
 */
Tick
derive_lookahead(const MachineConfig &cfg)
{
    double us = cfg.lookaheadUs;
    if (us <= 0.0) {
        us = cfg.tnet.prologUs + cfg.tnet.delayPerHopUs +
             cfg.tnet.epilogUs;
        us = std::min(us, cfg.bnet.prologUs);
        us = std::min(us, cfg.snet.releaseUs);
    }
    Tick l = us_to_ticks(us);
    return l < 1 ? 1 : l;
}

sim::ShardConfig
kernel_config(const MachineConfig &cfg)
{
    sim::ShardConfig sc;
    sc.shards = std::max(1, std::min(cfg.threads, cfg.cells));
    sc.lookahead = derive_lookahead(cfg);
    sc.deterministic = cfg.deterministic;
    // Contiguous cell blocks per shard: squarest() numbers cells
    // row-major, so a block is a band of torus rows and most
    // single-hop neighbours stay shard-local.
    sc.affinityMap = [cells = cfg.cells, shards = sc.shards](int a) {
        if (a < 0)
            return 0; // machine-wide work runs on the coordinator
        if (a >= cells)
            return shards - 1;
        return static_cast<int>(static_cast<long long>(a) * shards /
                                cells);
    };
    return sc;
}

} // namespace

Machine::Machine(MachineConfig config)
    : cfg(config), faultInj(cfg.faults), simulator(kernel_config(cfg)),
      tnetNet(simulator, net::Torus::squarest(cfg.cells), cfg.tnet),
      bnetNet(simulator, cfg.cells, cfg.bnet),
      snetNet(simulator, cfg.cells, cfg.snet),
      dsmMap(cfg.cells, cfg.memBytesPerCell / 2),
      cellFailed(static_cast<std::size_t>(cfg.cells)),
      waitInfos(static_cast<std::size_t>(cfg.cells)),
      spanLayer(cfg.cells, cfg.flightEvents)
{
    spanLayer.set_mode(cfg.spanMode);
    // Wire fault injection only when the plan injects something: a
    // machine built with the default (empty) plan runs the exact same
    // code paths as before the fault layer existed.
    if (cfg.faults.any()) {
        tnetNet.set_fault_injector(&faultInj);
        faultInj.set_cells(cfg.cells);
        if (cfg.faults.jitterMaxUs > 0.0)
            simulator.set_delay_jitter(
                [this](Tick) { return faultInj.jitter(); });
    }
    if (cfg.reliableNet)
        rnetNet = std::make_unique<net::ReliableNet>(
            simulator, tnetNet, cfg.rnet);
    // The span layer is wired unconditionally: the default flight
    // mode is the always-on black box, and off-mode probes reduce to
    // one branch inside record()/new_trace().
    tnetNet.set_spans(&spanLayer);
    bnetNet.set_spans(&spanLayer);
    snetNet.set_spans(&spanLayer);
    if (rnetNet)
        rnetNet->set_spans(&spanLayer);
    if (!cfg.faults.kills.empty()) {
        auto aliveFn = [this](CellId id) { return !cell_failed(id); };
        tnetNet.set_liveness(aliveFn);
        if (rnetNet)
            rnetNet->set_liveness(aliveFn);
    }

    // The MSC+ injects into the reliable layer when it is on, the raw
    // T-net otherwise; delivery takes the same path in reverse, and a
    // failed cell's inbound traffic is discarded at the last hop.
    net::Link &link =
        rnetNet ? static_cast<net::Link &>(*rnetNet)
                : static_cast<net::Link &>(tnetNet);
    // Sealed fast path: with no reliable layer the link IS the final
    // T-net, so the MSC+ can bypass the Link vtable on every send.
    net::Tnet *direct = rnetNet ? nullptr : &tnetNet;
    // One payload pool per kernel shard, shared by that shard's
    // cells. The cell->pool mapping must match kernel_config's
    // affinity map so each pool is only touched from its own shard.
    int poolCount = simulator.shards();
    payloadPools.reserve(static_cast<std::size_t>(poolCount));
    for (int s = 0; s < poolCount; ++s)
        payloadPools.push_back(std::make_unique<BufferPool>());
    cells.reserve(static_cast<std::size_t>(cfg.cells));
    for (int i = 0; i < cfg.cells; ++i) {
        int shard = static_cast<int>(static_cast<long long>(i) *
                                     poolCount / cfg.cells);
        cells.push_back(std::make_unique<Cell>(
            simulator, cfg, i, link,
            *payloadPools[static_cast<std::size_t>(shard)], direct));
        Cell *c = cells.back().get();
        c->msc().set_spans(&spanLayer);
        c->ring().set_spans(&spanLayer, i, &simulator);
        if (cfg.faults.any())
            c->msc().set_fault_injector(&faultInj);
        auto deliver = [this, c](net::Message msg) {
            if (cell_failed(c->id()))
                return;
            c->msc().deliver(std::move(msg));
        };
        if (rnetNet)
            rnetNet->attach(i, deliver);
        else
            tnetNet.attach(i, deliver);
        bnetNet.attach(i, deliver);
    }
    for (const sim::FaultPlan::CellKill &k : cfg.faults.kills) {
        if (k.cell < 0 || k.cell >= cfg.cells)
            panic("kill plan names cell %d outside machine of %d",
                  k.cell, cfg.cells);
        simulator.schedule_for(
            k.cell, us_to_ticks(k.atUs),
            [this, id = k.cell]() { fail_cell(id); });
    }
    // Kernel telemetry taps: a sharded kernel reports each parallel
    // window through this hook (fired on the coordinator while every
    // worker is parked) and the machine forwards it to the tracer's
    // worker tracks and the barrier_wait critical-path stage.
    simulator.set_window_hook(
        [this](const sim::WindowRecord &w) { on_window(w); });
    register_stats();
    register_kernel_stats();
}

void
Machine::on_window(const sim::WindowRecord &w)
{
    int shards = static_cast<int>(w.shards.size());
    // Idle (barrier_wait) attribution in model time: the window ends
    // when its busiest shard executes its last event; every other
    // shard waited from its own last event (or the window start if it
    // had none) until then. The straggler gets no span.
    Tick windowDone = 0;
    for (const sim::WindowShard &ws : w.shards)
        windowDone = std::max(windowDone, ws.last);
    if (spanLayer.on() && shards > 1 && windowDone > 0) {
        std::uint64_t tid = spanLayer.new_trace();
        for (int s = 0; s < shards; ++s) {
            const sim::WindowShard &ws =
                w.shards[static_cast<std::size_t>(s)];
            Tick from = ws.events > 0 ? ws.last : w.start;
            if (from >= windowDone)
                continue;
            spanLayer.record(
                -1, tid, obs::SpanStage::barrier_wait, from,
                windowDone, obs::SpanOp::none,
                static_cast<std::uint32_t>(
                    std::min<std::uint64_t>(ws.events, UINT32_MAX)));
        }
    }
    if (tracerPtr) {
        for (int s = 0; s < shards; ++s) {
            const sim::WindowShard &ws =
                w.shards[static_cast<std::size_t>(s)];
            if (ws.events == 0)
                continue;
            tracerPtr->span_at(
                obs::worker_track(s), "kernel",
                strprintf("w%llu:%llu ev",
                          static_cast<unsigned long long>(w.index),
                          static_cast<unsigned long long>(ws.events)),
                w.start, ws.last);
        }
        tracerPtr->counter_at(
            obs::machine_track, "kernel", "imbalance_x1000", w.start,
            static_cast<double>(w.imbalanceX1000));
        tracerPtr->counter_at(
            obs::machine_track, "kernel", "barrier_wait_ns", w.start,
            static_cast<double>(w.barrierWaitNs));
    }
}

void
Machine::fail_cell(CellId id)
{
    if (cell_failed(id))
        return;
    cellFailed[static_cast<std::size_t>(id)] = 1;
    ++cellKills;
    warn("cell %d declared failed at t=%.1f us", id,
         ticks_to_us(simulator.now()));
    snetNet.fail_cell(id);
    if (rnetNet)
        rnetNet->flush_cell(id);
    if (tracerPtr)
        tracerPtr->instant(obs::machine_track, "fault",
                           strprintf("kill:cell%d", id));
    if (killHook)
        killHook(id);
}

void
Machine::set_kill_hook(std::function<void(CellId)> hook)
{
    killHook = std::move(hook);
}

std::string
Machine::wait_graph()
{
    std::string out = strprintf(
        "wait graph at t=%.1f us (%d cells):\n",
        ticks_to_us(simulator.now()), cfg.cells);
    for (int i = 0; i < cfg.cells; ++i) {
        const WaitInfo &w = waitInfos[static_cast<std::size_t>(i)];
        if (cell_failed(i)) {
            out += strprintf("  cell %d: FAILED\n", i);
            continue;
        }
        if (!w.what) {
            out += strprintf("  cell %d: running\n", i);
            continue;
        }
        Cell &c = *cells[static_cast<std::size_t>(i)];
        std::uint64_t live =
            w.addr != no_flag
                ? c.mc().read_flag(w.addr)
                : static_cast<std::uint64_t>(c.msc().ack_count());
        out += strprintf("  cell %d: blocked on %s addr=%#llx "
                         "(have %llu, want %llu) since t=%.1f us\n",
                         i, w.what,
                         static_cast<unsigned long long>(w.addr),
                         static_cast<unsigned long long>(live),
                         static_cast<unsigned long long>(w.target),
                         ticks_to_us(w.since));
    }
    return out;
}

void
Machine::register_stats()
{
    // Machine-wide paths: networks, barriers, fault injector.
    const net::TnetStats &t = tnetNet.stats();
    statsReg.add_counter("tnet.messages", &t.messages);
    statsReg.add_counter("tnet.payload_bytes", &t.payloadBytes);
    statsReg.add_counter("tnet.wire_bytes", &t.wireBytes);
    statsReg.add_counter("tnet.dropped", &t.dropped);
    statsReg.add_counter("tnet.duplicated", &t.duplicated);
    statsReg.add_counter("tnet.reordered", &t.reordered);
    statsReg.add_counter("tnet.corrupted", &t.corrupted);
    statsReg.add_counter("tnet.dead_cell_drops", &t.deadCellDrops);
    statsReg.add_histogram("tnet.distance", &t.distance);
    statsReg.add_histogram("tnet.message_size", &t.messageSize);
    statsReg.add_histogram("tnet.latency_us", &t.latencyUs);

    const net::BnetStats &b = bnetNet.stats();
    statsReg.add_counter("bnet.broadcasts", &b.broadcasts);
    statsReg.add_counter("bnet.payload_bytes", &b.payloadBytes);
    statsReg.add_counter("bnet.wire_bytes", &b.wireBytes);
    statsReg.add_histogram("bnet.occupancy_us", &b.occupancyUs);

    statsReg.add_gauge("snet.episodes",
                       [this]() { return snetNet.total_episodes(); });

    statsReg.add_gauge("spans.recorded",
                       [this]() { return spanLayer.recorded(); });
    statsReg.add_gauge("spans.full_log_events", [this]() {
        return static_cast<std::uint64_t>(spanLayer.events().size());
    });
    statsReg.add_gauge("spans.full_dropped",
                       [this]() { return spanLayer.full_dropped(); });

    const sim::FaultStats &f = faultInj.stats();
    statsReg.add_counter("faults.drops", &f.drops);
    statsReg.add_counter("faults.duplicates", &f.duplicates);
    statsReg.add_counter("faults.reorders", &f.reorders);
    statsReg.add_counter("faults.forced_spills", &f.forcedSpills);
    statsReg.add_counter("faults.injected_page_faults",
                         &f.injectedPageFaults);
    statsReg.add_counter("faults.jittered_events", &f.jitteredEvents);
    statsReg.add_gauge("faults.jitter_ticks", &f.jitterTicks);
    statsReg.add_counter("faults.corruptions", &f.corruptions);
    statsReg.add_gauge("faults.cell_kills",
                       [this]() { return cellKills.load(); });
    // Monotonic, but registered as a gauge: counters bind to plain
    // uint64 fields and this one is an atomic (give-ups fire on the
    // failing cell's shard).
    statsReg.add_gauge("comm.retry.giveup",
                       [this]() { return retryGiveups.load(); });

    // Per-cell subtrees.
    for (auto &cp : cells) {
        Cell *c = cp.get();
        std::string p = strprintf("cell%d.", c->id());

        const MscStats &m = c->msc().stats();
        statsReg.add_counter(p + "msc.puts_sent", &m.putsSent);
        statsReg.add_counter(p + "msc.gets_sent", &m.getsSent);
        statsReg.add_counter(p + "msc.sends_sent", &m.sendsSent);
        statsReg.add_counter(p + "msc.get_replies_sent",
                             &m.getRepliesSent);
        statsReg.add_counter(p + "msc.puts_received",
                             &m.putsReceived);
        statsReg.add_counter(p + "msc.sends_received",
                             &m.sendsReceived);
        statsReg.add_counter(p + "msc.get_requests_received",
                             &m.getRequestsReceived);
        statsReg.add_counter(p + "msc.get_replies_received",
                             &m.getRepliesReceived);
        statsReg.add_counter(p + "msc.remote_stores",
                             &m.remoteStores);
        statsReg.add_counter(p + "msc.remote_loads", &m.remoteLoads);
        statsReg.add_counter(p + "msc.acks_received",
                             &m.acksReceived);
        statsReg.add_counter(p + "msc.payload_bytes_sent",
                             &m.payloadBytesSent);
        statsReg.add_counter(p + "msc.payload_bytes_received",
                             &m.payloadBytesReceived);
        statsReg.add_counter(p + "msc.local_faults", &m.localFaults);
        statsReg.add_counter(p + "msc.remote_faults",
                             &m.remoteFaults);
        statsReg.add_counter(p + "msc.flushed_messages",
                             &m.flushedMessages);
        statsReg.add_histogram(p + "msc.cmd_latency_us",
                               &m.cmdLatencyUs);
        statsReg.add_gauge(p + "msc.messages_sent", [ms = &m]() {
            return ms->putsSent + ms->getsSent + ms->sendsSent;
        });

        auto add_queue = [&](const char *name,
                             const CommandQueue &q) {
            const QueueStats &qs = q.stats();
            std::string qp = p + "msc." + name + ".";
            statsReg.add_counter(qp + "pushes", &qs.pushes);
            statsReg.add_counter(qp + "pops", &qs.pops);
            statsReg.add_counter(qp + "spills", &qs.spills);
            statsReg.add_counter(qp + "refill_interrupts",
                                 &qs.refillInterrupts);
            statsReg.add_gauge(qp + "max_hw_depth", &qs.maxHwDepth);
            statsReg.add_gauge(qp + "max_spill_depth",
                               &qs.maxSpillDepth);
        };
        add_queue("user_queue", c->msc().user_queue());
        add_queue("system_queue", c->msc().system_queue());
        add_queue("remote_queue", c->msc().remote_queue());
        add_queue("get_reply_queue", c->msc().get_reply_queue());
        add_queue("load_reply_queue", c->msc().load_reply_queue());

        const McStats &mc = c->mc().stats();
        statsReg.add_counter(p + "mc.flag_increments",
                             &mc.flagIncrements);
        statsReg.add_counter(p + "mc.flag_faults", &mc.flagFaults);
        statsReg.add_counter(p + "mc.loads", &mc.loads);
        statsReg.add_counter(p + "mc.stores", &mc.stores);
        statsReg.add_counter(p + "mc.access_faults",
                             &mc.accessFaults);

        const CommRegStats &cr = c->mc().regs().stats();
        statsReg.add_counter(p + "commreg.stores", &cr.stores);
        statsReg.add_counter(p + "commreg.loads", &cr.loads);
        statsReg.add_counter(p + "commreg.stalled_loads",
                             &cr.stalledLoads);

        const TlbStats &tlb = c->mc().mmu().stats();
        statsReg.add_counter(p + "mmu.tlb_hits", &tlb.hits);
        statsReg.add_counter(p + "mmu.tlb_misses", &tlb.misses);
        statsReg.add_counter(p + "mmu.page_faults", &tlb.faults);

        const RingBufferStats &rb = c->ring().stats();
        statsReg.add_counter(p + "ring.deposits", &rb.deposits);
        statsReg.add_counter(p + "ring.receives", &rb.receives);
        statsReg.add_counter(p + "ring.copies", &rb.copies);
        statsReg.add_counter(p + "ring.in_place_reads",
                             &rb.inPlaceReads);
        statsReg.add_counter(p + "ring.grow_interrupts",
                             &rb.growInterrupts);
        statsReg.add_gauge(p + "ring.max_depth", &rb.maxDepth);
        statsReg.add_gauge(p + "ring.max_bytes", &rb.maxBytes);

        if (cfg.faults.any()) {
            const sim::FaultInjector::HoldStats &h =
                faultInj.hold_stats(c->id());
            statsReg.add_gauge(p + "fault.held_high_water",
                               &h.heldHighWater);
            statsReg.add_counter(p + "fault.dup_evictions",
                                 &h.dupEvictions);
            statsReg.add_counter(p + "fault.reorder_evictions",
                                 &h.reorderEvictions);
        }

        if (rnetNet) {
            const net::RnetStats &rn = rnetNet->stats(c->id());
            statsReg.add_counter(p + "rnet.data_sent", &rn.dataSent);
            statsReg.add_counter(p + "rnet.retransmits",
                                 &rn.retransmits);
            statsReg.add_counter(p + "rnet.acks_piggybacked",
                                 &rn.acksPiggybacked);
            statsReg.add_counter(p + "rnet.queued_full",
                                 &rn.queuedFull);
            statsReg.add_gauge(p + "rnet.window_high_water",
                               &rn.windowHighWater);
            statsReg.add_counter(p + "rnet.aborted",
                                 &rn.abortedMsgs);
            statsReg.add_counter(p + "rnet.dup_drops", &rn.dupDrops);
            statsReg.add_counter(p + "rnet.ooo_buffered",
                                 &rn.oooBuffered);
            statsReg.add_counter(p + "rnet.ooo_evictions",
                                 &rn.oooEvictions);
            statsReg.add_counter(p + "rnet.checksum_drops",
                                 &rn.checksumDrops);
            statsReg.add_counter(p + "rnet.acks_sent", &rn.acksSent);
            statsReg.add_histogram(p + "rnet.ack_latency_us",
                                   &rn.ackLatencyUs);
        }
    }
}

void
Machine::register_kernel_stats()
{
    // Kernel self-telemetry under "sim.": how the run executed
    // (kernel shape, windows, host wall-clock waits) as opposed to
    // what the machine did. Determinism byte-compares exclude this
    // prefix — per-shard counts and wall-clock can never match
    // across kernels (see DESIGN.md, Kernel telemetry).
    statsReg.add_gauge("sim.executed_events",
                       [this]() { return simulator.executed(); });
    statsReg.add_gauge("sim.pending_events", [this]() {
        return static_cast<std::uint64_t>(simulator.pending());
    });

    // Kernel allocation telemetry: event-node pool traffic, EventFn
    // heap spills and payload-pool traffic. The CI perf job asserts
    // that pool_miss and fn_heap stop growing once a workload reaches
    // steady state — the zero-allocation contract of the hot path.
    statsReg.add_gauge("sim.alloc.pool_hits", [this]() {
        return simulator.alloc_stats().poolHits;
    });
    statsReg.add_gauge("sim.alloc.pool_miss", [this]() {
        return simulator.alloc_stats().poolMisses;
    });
    statsReg.add_gauge("sim.alloc.pool_blocks", [this]() {
        return simulator.alloc_stats().poolBlocks;
    });
    statsReg.add_gauge("sim.alloc.fn_heap", [this]() {
        return simulator.alloc_stats().fnHeap;
    });
    statsReg.add_gauge("sim.alloc.payload_hits", [this]() {
        std::uint64_t v = 0;
        for (const auto &p : payloadPools)
            v += p->stats().hits;
        return v;
    });
    statsReg.add_gauge("sim.alloc.payload_miss", [this]() {
        std::uint64_t v = 0;
        for (const auto &p : payloadPools)
            v += p->stats().misses;
        return v;
    });
    statsReg.add_gauge("sim.alloc.payload_discards", [this]() {
        std::uint64_t v = 0;
        for (const auto &p : payloadPools)
            v += p->stats().discards;
        return v;
    });
    // DRAM image recycler traffic. Process-wide rather than
    // per-machine (the cache outlives machines by design), so these
    // are cumulative across every machine this process built.
    statsReg.add_gauge("sim.alloc.image_hits",
                       []() { return CellMemory::image_cache_hits(); });
    statsReg.add_gauge("sim.alloc.image_miss", []() {
        return CellMemory::image_cache_misses();
    });

    // Shard and window telemetry exists only with shards > 1; a
    // one-shard machine's sim subtree stays kernel-independent.
    const sim::Simulator *sh = &simulator;
    if (sh->shards() == 1)
        return;
    statsReg.add_gauge("sim.kernel.shards", [sh]() {
        return static_cast<std::uint64_t>(sh->shards());
    });
    statsReg.add_gauge("sim.kernel.lookahead_ticks",
                       [sh]() { return sh->lookahead(); });
    statsReg.add_gauge("sim.kernel.deterministic", [sh]() {
        return static_cast<std::uint64_t>(sh->deterministic());
    });
    statsReg.add_gauge("sim.kernel.lookahead_violations",
                       [sh]() { return sh->lookahead_violations(); });

    const sim::WindowAgg &w = sh->window_stats();
    statsReg.add_gauge("sim.window.count", &w.windows);
    statsReg.add_gauge("sim.window.events", &w.events);
    statsReg.add_gauge("sim.window.horizon_advance_ticks",
                       &w.horizonAdvance);
    statsReg.add_gauge("sim.window.barrier_wait_ns", [sh]() {
        std::uint64_t ns = 0;
        for (int s = 0; s < sh->shards(); ++s)
            ns += sh->shard_stats(s).barrierWaitNs;
        return ns;
    });
    statsReg.add_gauge("sim.window.merge_ns", &w.mergeNs);
    statsReg.add_gauge("sim.window.imbalance_max_x1000",
                       &w.imbalanceMaxX1000);
    statsReg.add_gauge("sim.window.imbalance_avg_x1000", [&w]() {
        return w.windows ? w.imbalanceSumX1000 / w.windows : 0;
    });

    for (int s = 0; s < sh->shards(); ++s) {
        const sim::ShardStats &st = sh->shard_stats(s);
        std::string p = strprintf("sim.shard.%d.", s);
        statsReg.add_gauge(p + "executed", &st.executed);
        statsReg.add_gauge(p + "handoffs_in", &st.handoffsIn);
        statsReg.add_gauge(p + "handoffs_out", &st.handoffsOut);
        statsReg.add_gauge(p + "max_pending", &st.maxPending);
        statsReg.add_gauge(p + "barrier_wait_ns", &st.barrierWaitNs);
    }
}

void
Machine::run_to_completion()
{
    if (samplerPtr)
        samplerPtr->run(simulator);
    else
        simulator.run();
}

obs::TimelineSampler &
Machine::enable_timeline(double periodUs, std::size_t capacity)
{
    if (!samplerPtr)
        samplerPtr = std::make_unique<obs::TimelineSampler>(
            statsReg, std::max<Tick>(us_to_ticks(periodUs), 1),
            obs::TimelineSampler::default_series(), capacity);
    return *samplerPtr;
}

bool
Machine::write_timeline(const std::string &path) const
{
    if (!samplerPtr)
        return false;
    return samplerPtr->write(path);
}

bool
Machine::write_timeline_csv(const std::string &path) const
{
    if (!samplerPtr)
        return false;
    return samplerPtr->write_csv(path);
}

std::string
Machine::stats_json(bool pretty) const
{
    return statsReg.dump_json(pretty);
}

std::string
Machine::stats_text() const
{
    return statsReg.dump_text();
}

bool
Machine::dump_stats(const std::string &path) const
{
    return obs::write_file(path, stats_json(true));
}

void
Machine::enable_tracing(std::size_t capacity)
{
    if (tracerPtr)
        return;
    tracerPtr = std::make_unique<obs::Tracer>(simulator, capacity);
    tnetNet.set_tracer(tracerPtr.get());
    bnetNet.set_tracer(tracerPtr.get());
    if (rnetNet)
        rnetNet->set_tracer(tracerPtr.get());
    for (auto &c : cells) {
        int track = c->id();
        c->msc().set_tracer(tracerPtr.get(), track);
        c->mc().set_tracer(tracerPtr.get(), track);
        c->ring().set_tracer(tracerPtr.get(), track);
    }
}

bool
Machine::write_trace(const std::string &path) const
{
    if (!tracerPtr)
        return false;
    return tracerPtr->write_chrome_json(path);
}

std::string
Machine::postmortem(std::size_t maxPerCell)
{
    std::string out = strprintf(
        "flight recorder (span mode %s, %llu events recorded, last "
        "%zu per cell):\n",
        obs::to_string(spanLayer.mode()),
        static_cast<unsigned long long>(spanLayer.recorded()),
        maxPerCell);
    out += obs::flight_text(spanLayer.flight_events(maxPerCell));
    if (!cfg.postmortemOut.empty()) {
        if (dump_flight_recorder(cfg.postmortemOut))
            out += strprintf("full flight rings dumped to %s\n",
                             cfg.postmortemOut.c_str());
        else
            out += strprintf("(failed to write flight dump %s)\n",
                             cfg.postmortemOut.c_str());
    }
    return out;
}

bool
Machine::dump_flight_recorder(const std::string &path) const
{
    return obs::write_file(
        path, obs::span_chrome_json(spanLayer.flight_events()));
}

std::string
Machine::flight_report() const
{
    std::uint64_t retained = 0, dropped = 0;
    for (int i = -1; i < cfg.cells; ++i) {
        const obs::FlightRecorder &r = spanLayer.flight(i);
        retained += r.size();
        dropped += r.dropped();
    }
    return strprintf(
        "flight recorder: %llu span events retained, %llu aged out "
        "(%zu per-cell capacity, mode %s)\n",
        static_cast<unsigned long long>(retained),
        static_cast<unsigned long long>(dropped),
        cfg.flightEvents, obs::to_string(spanLayer.mode()));
}

Cell &
Machine::cell(CellId id)
{
    if (id < 0 || static_cast<std::size_t>(id) >= cells.size())
        panic("cell id %d outside machine of %zu cells", id,
              cells.size());
    return *cells[static_cast<std::size_t>(id)];
}

const Cell &
Machine::cell(CellId id) const
{
    if (id < 0 || static_cast<std::size_t>(id) >= cells.size())
        panic("cell id %d outside machine of %zu cells", id,
              cells.size());
    return *cells[static_cast<std::size_t>(id)];
}

void
Machine::set_fault_hook(FaultHook hook)
{
    for (auto &c : cells)
        c->msc().set_fault_hook(hook);
}

std::string
Machine::report() const
{
    // Everything below comes from registry walks: sum("*...") folds a
    // counter over every cell, max_over finds the busiest cell, and
    // histogram means read the registered histogram entries.
    const obs::StatsRegistry &r = statsReg;
    auto llu = [](std::uint64_t v) {
        return static_cast<unsigned long long>(v);
    };
    auto hist_mean = [&r](const char *path) {
        const obs::StatEntry *e = r.find(path);
        return e && e->hist ? e->hist->scalar().mean() : 0.0;
    };

    std::string out;
    out += strprintf("=== machine report: %d cells (%dx%d torus), "
                     "t = %.1f us ===\n",
                     cfg.cells, tnetNet.topology().width(),
                     tnetNet.topology().height(),
                     ticks_to_us(simulator.now()));
    out += strprintf("T-net: %llu messages, %llu payload bytes, "
                     "mean size %.1f B, mean distance %.2f hops\n",
                     llu(r.value("tnet.messages")),
                     llu(r.value("tnet.payload_bytes")),
                     hist_mean("tnet.message_size"),
                     hist_mean("tnet.distance"));
    out += strprintf("B-net: %llu broadcasts\n",
                     llu(r.value("bnet.broadcasts")));
    if (rnetNet)
        out += strprintf("rnet: %llu sent, %llu retransmits, "
                         "%llu dup drops, %llu ooo buffered, "
                         "%llu standalone acks\n",
                         llu(r.sum("*.rnet.data_sent")),
                         llu(r.sum("*.rnet.retransmits")),
                         llu(r.sum("*.rnet.dup_drops")),
                         llu(r.sum("*.rnet.ooo_buffered")),
                         llu(r.sum("*.rnet.acks_sent")));
    out += strprintf("MSC+: %llu PUTs, %llu GETs, %llu SENDs, "
                     "%llu acks, %llu rstores, %llu rloads, "
                     "faults %llu/%llu (local/remote)\n",
                     llu(r.sum("*.msc.puts_sent")),
                     llu(r.sum("*.msc.gets_sent")),
                     llu(r.sum("*.msc.sends_sent")),
                     llu(r.sum("*.msc.acks_received")),
                     llu(r.sum("*.msc.remote_stores")),
                     llu(r.sum("*.msc.remote_loads")),
                     llu(r.sum("*.msc.local_faults")),
                     llu(r.sum("*.msc.remote_faults")));
    out += strprintf("user queues: %llu commands, %llu spills, "
                     "%llu refill interrupts\n",
                     llu(r.sum("*.msc.user_queue.pushes")),
                     llu(r.sum("*.msc.user_queue.spills")),
                     llu(r.sum(
                         "*.msc.user_queue.refill_interrupts")));
    out += strprintf("MC: %llu flag increments; TLB %llu hits / "
                     "%llu misses / %llu faults\n",
                     llu(r.sum("*.mc.flag_increments")),
                     llu(r.sum("*.mmu.tlb_hits")),
                     llu(r.sum("*.mmu.tlb_misses")),
                     llu(r.sum("*.mmu.page_faults")));
    out += strprintf("ring buffers: %llu deposits, %llu copies, "
                     "%llu in-place reads, %llu grow interrupts\n",
                     llu(r.sum("*.ring.deposits")),
                     llu(r.sum("*.ring.copies")),
                     llu(r.sum("*.ring.in_place_reads")),
                     llu(r.sum("*.ring.grow_interrupts")));
    if (r.find("sim.kernel.shards"))
        out += strprintf(
            "kernel: %llu shards, %llu events, %llu windows, "
            "%llu handoffs, barrier wait %.2f ms, merge %.2f ms, "
            "imbalance max %.2fx\n",
            llu(r.value("sim.kernel.shards")),
            llu(r.value("sim.executed_events")),
            llu(r.value("sim.window.count")),
            llu(r.sum("sim.shard.*.handoffs_out")),
            static_cast<double>(
                r.value("sim.window.barrier_wait_ns")) /
                1e6,
            static_cast<double>(r.value("sim.window.merge_ns")) /
                1e6,
            static_cast<double>(
                r.value("sim.window.imbalance_max_x1000")) /
                1000.0);

    std::string who;
    std::uint64_t busiest_sent =
        r.max_over("*.msc.messages_sent", &who);
    // Winning path is "cell<N>.msc.messages_sent".
    CellId busiest = who.size() > 4
                         ? static_cast<CellId>(
                               std::atoi(who.c_str() + 4))
                         : 0;
    out += strprintf("busiest sender: cell %d (%llu messages)\n",
                     busiest, llu(busiest_sent));
    return out;
}

} // namespace ap::hw
