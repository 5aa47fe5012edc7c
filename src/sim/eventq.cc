#include "sim/eventq.hh"

#include <algorithm>
#include <chrono>
#include <utility>

#include "base/logging.hh"

namespace ap::sim
{

thread_local Simulator::TlsFrame Simulator::tls;

namespace
{

/** T + L without wrapping past the tick horizon. */
Tick
saturating_add(Tick t, Tick d)
{
    return t > max_tick - d ? max_tick : t + d;
}

/** Host wall-clock nanoseconds between two steady_clock points. */
std::uint64_t
elapsed_ns(std::chrono::steady_clock::time_point from,
           std::chrono::steady_clock::time_point to)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            to - from)
            .count());
}

[[noreturn]] void
panic_past(Tick when, Tick now)
{
    panic("scheduling event in the past (%llu < %llu)",
          static_cast<unsigned long long>(when),
          static_cast<unsigned long long>(now));
}

/** Run a popped node's handler and hand the node back to @p q, even
 *  if the handler throws (CommError from machine code unwinds
 *  through here). The handler may schedule new events, which is
 *  safe — the node is off the queue already. */
void
fire(LadderQueue &q, EventNode *n)
{
    struct Recycle
    {
        LadderQueue &q;
        EventNode *n;
        ~Recycle() { q.release(n); }
    } recycle{q, n};
    n->fn();
}

} // namespace

std::string
TickHistory::digest() const
{
    std::string out = strprintf(
        "events=%llu hash=%#llx",
        static_cast<unsigned long long>(numEvents),
        static_cast<unsigned long long>(state));
    if (wasTruncated)
        out += strprintf(
            " log=truncated(%zu of %llu kept)", logBuf.size(),
            static_cast<unsigned long long>(numEvents));
    return out;
}

Simulator::Simulator(ShardConfig config)
    : cfg(std::move(config)), numShards(cfg.shards)
{
    if (numShards < 1)
        fatal("event kernel needs at least 1 shard, got %d",
              numShards);
    if (cfg.lookahead < 1)
        fatal("event kernel needs lookahead >= 1 tick");
    if (!cfg.affinityMap) {
        int n = numShards;
        cfg.affinityMap = [n](int affinity) {
            return affinity <= 0 ? 0 : affinity % n;
        };
    }
    shardsVec.resize(static_cast<std::size_t>(numShards));
    if (numShards > 1) {
        for (Shard &s : shardsVec)
            s.outbox.resize(static_cast<std::size_t>(numShards));
        execAtWindowStart.resize(static_cast<std::size_t>(numShards));
    }
}

Simulator::~Simulator()
{
    stop_workers();
}

// -- one shard: the sequential loop --------------------------------------

void
Simulator::schedule(Tick when, EventFn fn)
{
    schedule_for(current_affinity(), when, std::move(fn));
}

void
Simulator::schedule_for(int affinity, Tick when, EventFn fn)
{
    if (numShards > 1) {
        schedule_sharded(affinity, when, std::move(fn));
        return;
    }
    if (when < globalTime)
        panic_past(when, globalTime);
    Shard &sh = shardsVec.front();
    sh.queue.push(when, sh.nextSeq++, affinity, std::move(fn));
}

bool
Simulator::step_one()
{
    EventNode *n = home().pop();
    if (!n)
        return false;
    globalTime = n->when;
    currentAffinity = n->affinity;
    ++numExecuted;
    if (history)
        history->record(n->when, n->affinity);
    fire(home(), n);
    currentAffinity = 0;
    return true;
}

bool
Simulator::step()
{
    if (numShards == 1)
        return step_one();
    if (running)
        panic("step() during run()");
    return step_deterministic();
}

Tick
Simulator::run()
{
    if (numShards > 1)
        return run_sharded(max_tick);
    while (step_one()) {
    }
    return globalTime;
}

Tick
Simulator::run_until(Tick limit)
{
    if (numShards > 1)
        return run_sharded(limit);
    while (!home().empty() && home().min_when() <= limit)
        step_one();
    return globalTime;
}

int
Simulator::current_affinity() const
{
    if (numShards == 1)
        return currentAffinity;
    return tls.owner == this ? tls.affinity : 0;
}

bool
Simulator::empty() const
{
    for (const Shard &s : shardsVec)
        if (!s.queue.empty())
            return false;
    return true;
}

std::size_t
Simulator::pending() const
{
    std::size_t n = 0;
    for (const Shard &s : shardsVec)
        n += s.queue.size();
    return n;
}

SimAllocStats
Simulator::alloc_stats() const
{
    SimAllocStats s;
    for (const Shard &sh : shardsVec) {
        const EventPoolStats &p = sh.queue.pool_stats();
        s.poolHits += p.hits;
        s.poolMisses += p.misses;
        s.poolBlocks += p.blocks;
    }
    s.fnHeap = eventfn_heap_allocs();
    return s;
}

// -- shards > 1 ------------------------------------------------------------

int
Simulator::shard_of(int affinity) const
{
    int s = cfg.affinityMap(affinity);
    if (s < 0 || s >= numShards)
        panic("affinity map sent %d to shard %d of %d", affinity, s,
              numShards);
    return s;
}

Tick
Simulator::sharded_now() const
{
    if (tls.owner == this)
        return tls.now;
    return globalTime;
}

void
Simulator::push_to(Shard &sh, int affinity, Tick when, EventFn fn)
{
    sh.queue.push(when, cfg.deterministic ? globalSeq++ : sh.nextSeq++,
                  affinity, std::move(fn));
    sh.stats.maxPending =
        std::max<std::uint64_t>(sh.stats.maxPending, sh.queue.size());
}

void
Simulator::schedule_sharded(int affinity, Tick when, EventFn fn)
{
    int target = shard_of(affinity);
    Shard &dst = shardsVec[static_cast<std::size_t>(target)];

    // Calls from outside any execution context (machine construction,
    // test setup, the space between run() calls) go straight into the
    // target queue; no worker is live, the queue mutex suffices.
    if (tls.owner != this) {
        if (when < globalTime)
            panic_past(when, globalTime);
        std::lock_guard<std::mutex> lock(qMutex);
        push_to(dst, affinity, when, std::move(fn));
        return;
    }

    if (when < tls.now)
        panic_past(when, tls.now);

    Shard &self = shardsVec[static_cast<std::size_t>(tls.shard)];

    if (!tls.inRound) {
        // Deterministic (serialized) execution: every shard queue is
        // this thread's to touch, and the global sequence number
        // replays the one-shard kernel's same-tick insertion order.
        if (target != tls.shard) {
            ++self.stats.handoffsOut;
            ++dst.stats.handoffsIn;
            if (when < saturating_add(tls.now, cfg.lookahead))
                numViolations.fetch_add(1,
                                        std::memory_order_relaxed);
        }
        push_to(dst, affinity, when, std::move(fn));
        return;
    }

    // Parallel round on a worker thread (never deterministic mode).
    if (target == tls.shard) {
        push_to(self, affinity, when, std::move(fn));
        return;
    }

    // The conservative contract: a cross-shard event must land at or
    // past the window's end, or its target shard may already have
    // advanced past it.
    if (when < tls.windowEnd)
        panic("lookahead violation: cross-shard event at %llu "
              "inside window ending %llu (lookahead %llu, "
              "affinity %d -> shard %d)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(tls.windowEnd),
              static_cast<unsigned long long>(cfg.lookahead),
              affinity, target);
    ++self.stats.handoffsOut;
    self.outbox[static_cast<std::size_t>(target)].push_back(
        Handoff{when, affinity, tls.shard, self.outSeq++,
                std::move(fn)});
}

void
Simulator::merge_outboxes()
{
    for (int t = 0; t < numShards; ++t) {
        std::vector<Handoff> incoming;
        for (Shard &src : shardsVec) {
            auto &box = src.outbox[static_cast<std::size_t>(t)];
            for (Handoff &h : box)
                incoming.push_back(std::move(h));
            box.clear();
        }
        if (incoming.empty())
            continue;
        // Canonical merge: (tick, affinity, source shard, source
        // sequence). Total (srcSeq is unique per source shard) and
        // independent of worker finishing order.
        std::sort(incoming.begin(), incoming.end(),
                  [](const Handoff &a, const Handoff &b) {
                      if (a.when != b.when)
                          return a.when < b.when;
                      if (a.affinity != b.affinity)
                          return a.affinity < b.affinity;
                      if (a.srcShard != b.srcShard)
                          return a.srcShard < b.srcShard;
                      return a.srcSeq < b.srcSeq;
                  });
        Shard &dst = shardsVec[static_cast<std::size_t>(t)];
        for (Handoff &h : incoming) {
            push_to(dst, h.affinity, h.when, std::move(h.fn));
            ++dst.stats.handoffsIn;
        }
    }
}

void
Simulator::drain_shard(int s, Tick windowEnd)
{
    Shard &sh = shardsVec[static_cast<std::size_t>(s)];
    TlsFrame saved = tls;
    tls.owner = this;
    tls.shard = s;
    tls.windowEnd = windowEnd;
    tls.inRound = true;
    while (!sh.queue.empty() && sh.queue.min_when() < windowEnd) {
        EventNode *n = sh.queue.pop();
        tls.now = n->when;
        tls.affinity = n->affinity;
        sh.lastExecuted = n->when;
        ++sh.stats.executed;
        if (history)
            sh.localHistory.record(n->when, n->affinity);
        fire(sh.queue, n);
    }
    tls = saved;
}

Tick
Simulator::next_pending() const
{
    Tick t = max_tick;
    for (const Shard &s : shardsVec)
        t = std::min(t, s.queue.min_when());
    return t;
}

Tick
Simulator::shard_next(int s) const
{
    const Shard &sh = shardsVec[static_cast<std::size_t>(s)];
    return sh.queue.min_when();
}

Tick
Simulator::safe_horizon() const
{
    Tick t = next_pending();
    return t == max_tick ? max_tick : saturating_add(t, cfg.lookahead);
}

const ShardStats &
Simulator::shard_stats(int s) const
{
    return shardsVec[static_cast<std::size_t>(s)].stats;
}

bool
Simulator::step_deterministic()
{
    // Pick the globally earliest entry; ties break on sequence, then
    // shard index (sequences are globally unique in deterministic
    // mode, shard-local otherwise).
    int best = -1;
    for (int s = 0; s < numShards; ++s) {
        const Shard &sh = shardsVec[static_cast<std::size_t>(s)];
        const EventNode *a = sh.queue.peek();
        if (!a)
            continue;
        if (best < 0) {
            best = s;
            continue;
        }
        const EventNode *b =
            shardsVec[static_cast<std::size_t>(best)].queue.peek();
        if (a->when < b->when ||
            (a->when == b->when && a->seq < b->seq))
            best = s;
    }
    if (best < 0)
        return false;

    Shard &sh = shardsVec[static_cast<std::size_t>(best)];
    EventNode *n = sh.queue.pop();

    TlsFrame saved = tls;
    tls.owner = this;
    tls.shard = best;
    tls.affinity = n->affinity;
    tls.now = n->when;
    tls.windowEnd = 0;
    tls.inRound = false;

    globalTime = n->when;
    sh.lastExecuted = n->when;
    ++sh.stats.executed;
    ++numExecuted;
    if (history)
        history->record(n->when, n->affinity);
    fire(sh.queue, n);

    tls = saved;
    return true;
}

Tick
Simulator::run_deterministic(Tick limit)
{
    for (;;) {
        Tick t = next_pending();
        if (t == max_tick || t > limit)
            break;
        step_deterministic();
    }
    return globalTime;
}

Tick
Simulator::run_parallel(Tick limit)
{
    using clock = std::chrono::steady_clock;
    start_workers();
    for (;;) {
        Tick t = next_pending();
        if (t == max_tick || t > limit)
            break;
        Tick windowEnd = saturating_add(t, cfg.lookahead);
        if (limit != max_tick)
            windowEnd = std::min(windowEnd,
                                 saturating_add(limit, 1));

        WindowRecord rec;
        rec.index = numWindows;
        rec.start = t;
        rec.end = windowEnd;
        rec.advance = haveWindowStart ? t - prevWindowStart : 0;
        prevWindowStart = t;
        haveWindowStart = true;
        ++numWindows;
        for (int s = 0; s < numShards; ++s)
            execAtWindowStart[static_cast<std::size_t>(s)] =
                shardsVec[static_cast<std::size_t>(s)]
                    .stats.executed;

        {
            std::lock_guard<std::mutex> lock(poolMutex);
            roundWindowEnd = windowEnd;
            roundDone = 0;
            ++roundGen;
        }
        poolCv.notify_all();

        drain_shard(0, windowEnd);

        {
            clock::time_point waitBegin = clock::now();
            std::unique_lock<std::mutex> lock(poolMutex);
            doneCv.wait(lock, [this] {
                return roundDone == numShards - 1;
            });
            rec.barrierWaitNs =
                elapsed_ns(waitBegin, clock::now());
            shardsVec[0].stats.barrierWaitNs += rec.barrierWaitNs;
        }

        clock::time_point mergeBegin = clock::now();
        merge_outboxes();
        rec.mergeNs = elapsed_ns(mergeBegin, clock::now());

        Tick maxDone = 0;
        std::uint64_t total = 0;
        rec.shards.resize(static_cast<std::size_t>(numShards));
        for (int s = 0; s < numShards; ++s) {
            const Shard &sh = shardsVec[static_cast<std::size_t>(s)];
            maxDone = std::max(maxDone, sh.lastExecuted);
            total += sh.stats.executed;
            std::uint64_t e =
                sh.stats.executed -
                execAtWindowStart[static_cast<std::size_t>(s)];
            WindowShard &ws =
                rec.shards[static_cast<std::size_t>(s)];
            ws.events = e;
            ws.last = e > 0 ? sh.lastExecuted : 0;
            rec.events += e;
            rec.maxShardEvents = std::max(rec.maxShardEvents, e);
        }
        if (maxDone > globalTime)
            globalTime = maxDone;
        numExecuted = total;
        // max/mean events per shard, x1000: 1000 means every shard
        // did equal work, N*1000 means one shard did everything.
        if (rec.events > 0)
            rec.imbalanceX1000 =
                rec.maxShardEvents *
                static_cast<std::uint64_t>(numShards) * 1000 /
                rec.events;
        note_window(rec);
    }
    // Fold the per-shard digests into the attached history in shard
    // order: cross-shard execution order is intentionally undefined
    // inside a window, so the parallel digest is the ordered tuple of
    // per-shard digests. Compare against deterministic mode only.
    if (history) {
        for (int s = 0; s < numShards; ++s) {
            Shard &sh = shardsVec[static_cast<std::size_t>(s)];
            if (sh.localHistory.events() == 0)
                continue;
            history->record(
                static_cast<Tick>(sh.localHistory.hash()), s);
            sh.localHistory.reset();
        }
    }
    return globalTime;
}

void
Simulator::note_window(const WindowRecord &rec)
{
    windowAgg.windows = numWindows;
    windowAgg.events += rec.events;
    windowAgg.horizonAdvance += rec.advance;
    windowAgg.barrierWaitNs += rec.barrierWaitNs;
    windowAgg.mergeNs += rec.mergeNs;
    if (rec.imbalanceX1000 > 0) {
        windowAgg.imbalanceMaxX1000 = std::max(
            windowAgg.imbalanceMaxX1000, rec.imbalanceX1000);
        windowAgg.imbalanceSumX1000 += rec.imbalanceX1000;
    }
    if (windowHook)
        windowHook(rec);
}

Tick
Simulator::run_sharded(Tick limit)
{
    if (running)
        panic("re-entrant run()");
    running = true;
    Tick t = cfg.deterministic ? run_deterministic(limit)
                               : run_parallel(limit);
    running = false;
    return t;
}

void
Simulator::start_workers()
{
    if (!workers.empty())
        return;
    workers.reserve(static_cast<std::size_t>(numShards - 1));
    for (int s = 1; s < numShards; ++s)
        workers.emplace_back([this, s] { worker_main(s); });
}

void
Simulator::stop_workers()
{
    if (workers.empty())
        return;
    {
        std::lock_guard<std::mutex> lock(poolMutex);
        shuttingDown = true;
    }
    poolCv.notify_all();
    for (std::thread &w : workers)
        w.join();
    workers.clear();
    shuttingDown = false;
}

void
Simulator::worker_main(int s)
{
    using clock = std::chrono::steady_clock;
    std::uint64_t seenGen = 0;
    bool idleSinceValid = false;
    clock::time_point idleSince;
    for (;;) {
        Tick windowEnd;
        {
            std::unique_lock<std::mutex> lock(poolMutex);
            poolCv.wait(lock, [this, seenGen] {
                return shuttingDown || roundGen != seenGen;
            });
            if (shuttingDown)
                return;
            seenGen = roundGen;
            windowEnd = roundWindowEnd;
        }
        // Barrier-wait attribution: the stretch between finishing
        // the previous drain and this wake is time the worker spent
        // parked while the coordinator merged and other shards
        // straggled. Written race-free: the coordinator reads shard
        // stats only after this round's roundDone handshake.
        if (idleSinceValid)
            shardsVec[static_cast<std::size_t>(s)]
                .stats.barrierWaitNs +=
                elapsed_ns(idleSince, clock::now());
        drain_shard(s, windowEnd);
        idleSince = clock::now();
        idleSinceValid = true;
        {
            std::lock_guard<std::mutex> lock(poolMutex);
            ++roundDone;
        }
        doneCv.notify_one();
    }
}

std::string
Simulator::report() const
{
    std::string out = strprintf(
        "sharded kernel: %d shard%s, lookahead %llu ticks, %s; "
        "%llu windows, %llu events, %llu violations\n",
        numShards, numShards == 1 ? "" : "s",
        static_cast<unsigned long long>(cfg.lookahead),
        cfg.deterministic ? "deterministic" : "parallel",
        static_cast<unsigned long long>(numWindows),
        static_cast<unsigned long long>(numExecuted),
        static_cast<unsigned long long>(lookahead_violations()));
    if (windowAgg.windows > 0) {
        out += strprintf(
            "  windows: %.1f events/window, horizon advance "
            "%.1f ticks/window, barrier wait %.2f ms, merge "
            "%.2f ms, imbalance avg %.2fx max %.2fx\n",
            static_cast<double>(windowAgg.events) /
                static_cast<double>(windowAgg.windows),
            static_cast<double>(windowAgg.horizonAdvance) /
                static_cast<double>(windowAgg.windows),
            static_cast<double>(windowAgg.barrierWaitNs) / 1e6,
            static_cast<double>(windowAgg.mergeNs) / 1e6,
            static_cast<double>(windowAgg.imbalanceSumX1000) /
                static_cast<double>(windowAgg.windows) / 1000.0,
            static_cast<double>(windowAgg.imbalanceMaxX1000) /
                1000.0);
    }
    for (int s = 0; s < numShards; ++s) {
        const ShardStats &st = shard_stats(s);
        out += strprintf(
            "  shard %d: %llu executed, %llu in / %llu out "
            "handoffs, max queue %llu, barrier wait %.2f ms\n",
            s, static_cast<unsigned long long>(st.executed),
            static_cast<unsigned long long>(st.handoffsIn),
            static_cast<unsigned long long>(st.handoffsOut),
            static_cast<unsigned long long>(st.maxPending),
            static_cast<double>(st.barrierWaitNs) / 1e6);
    }
    return out;
}

} // namespace ap::sim
