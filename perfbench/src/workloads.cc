#include "workloads.hh"

#include <algorithm>
#include <functional>
#include <set>
#include <thread>
#include <type_traits>

#include "apps/app.hh"
#include "base/logging.hh"
#include "core/ap1000p.hh"
#include "hw/memory.hh"
#include "hw/ringbuf.hh"
#include "mlsim/params.hh"
#include "mlsim/replay.hh"
#include "serve/job.hh"
#include "serve/scheduler.hh"

namespace pb
{
namespace
{

using namespace ap;

// -- shared helpers ----------------------------------------------------

/** Bytes of a word vector, for Context::poke/peek. */
std::span<std::uint8_t>
bytes_of(std::vector<std::uint64_t> &w)
{
    return {reinterpret_cast<std::uint8_t *>(w.data()),
            w.size() * sizeof(std::uint64_t)};
}

/** Run @p f inside a simulated-time span when @p ss is non-null. */
template <class F>
auto
timed(core::Context &ctx, SimSpans *ss, SimOp op, F &&f)
    -> decltype(f())
{
    if (ss == nullptr)
        return f();
    Tick t0 = ctx.now();
    if constexpr (std::is_void_v<decltype(f())>) {
        f();
        ss->record(ctx.id(), op, t0, ctx.now());
    } else {
        auto r = f();
        ss->record(ctx.id(), op, t0, ctx.now());
        return r;
    }
}

/** Readings taken just before a run phase starts. */
struct RunStart
{
    obs::StatsRegistry::Snapshot snap;
    CpuTimes cpu;
    Clock::time_point t0;

    RunStart(const obs::StatsRegistry &reg, HostSpans *h)
    {
        {
            Scope s(h, "obs::StatsRegistry::snapshot");
            snap = reg.snapshot();
        }
        cpu = cpu_times();
        t0 = Clock::now();
    }
};

/** Per-cell outcome of an SPMD body. */
struct CellOutcome
{
    std::vector<char> done;
    std::vector<std::uint64_t> bad;
    std::vector<std::string> firstBad;
    std::vector<std::vector<double>> latUs;

    explicit CellOutcome(int n)
        : done(static_cast<std::size_t>(n), 0),
          bad(static_cast<std::size_t>(n), 0),
          firstBad(static_cast<std::size_t>(n)),
          latUs(static_cast<std::size_t>(n))
    {
    }

    void
    mismatch(CellId c, std::string what)
    {
        auto i = static_cast<std::size_t>(c);
        if (bad[i]++ == 0)
            firstBad[i] = std::move(what);
    }

    /** Gate failures (wrong data) as error strings, first few. */
    void
    report(std::vector<std::string> &errors) const
    {
        for (std::size_t i = 0; i < bad.size(); ++i)
            if (bad[i] && errors.size() < 8)
                errors.push_back(strprintf(
                    "cell %zu: %llu wrong results, first: %s", i,
                    static_cast<unsigned long long>(bad[i]),
                    firstBad[i].c_str()));
    }

    std::uint64_t
    unfinished() const
    {
        return static_cast<std::uint64_t>(
            std::count(done.begin(), done.end(), 0));
    }

    /** Latency samples of the cells whose body finished. */
    std::uint64_t
    finished_samples() const
    {
        std::uint64_t n = 0;
        for (std::size_t i = 0; i < done.size(); ++i)
            if (done[i])
                n += latUs[i].size();
        return n;
    }

    std::vector<double>
    all_latencies() const
    {
        std::vector<double> all;
        for (const auto &v : latUs)
            all.insert(all.end(), v.begin(), v.end());
        std::sort(all.begin(), all.end());
        return all;
    }
};

/** p50 and p99 of ascending @p lat, with the percentile rule. */
void
latency_metrics(const std::vector<double> &lat, MetricSet &o)
{
    Percentile p50 = nearest_rank(lat, 50.0);
    Percentile p99 = nearest_rank(lat, 99.0);
    Percentile best = highest_supported(lat);
    std::string note = strprintf("highest supported p%g", best.pct);
    o.set("sim_lat_p50_us", p50.value, "us", Cls::sim, Dir::lower,
          p50.samples, note);
    o.set("sim_lat_p99_us", p99.value, "us", Cls::sim, Dir::lower,
          p99.samples, note);
}

void
fail_metric(std::uint64_t failed, std::uint64_t attempted, MetricSet &o)
{
    o.set("fail_pct",
          attempted ? 100.0 * static_cast<double>(failed) /
                          static_cast<double>(attempted)
                    : 0.0,
          "%", Cls::count, Dir::lower, attempted);
}

/** Registry-derived layer metrics of one emulator run phase. */
void
machine_layers(const hw::Machine &m, const Delta &d, double runS,
               double ctorS, double sysPct, std::uint64_t imageMisses,
               MetricSet &o)
{
    const obs::StatsRegistry &reg = m.stats_registry();
    auto ds = [&](const char *pat) {
        return static_cast<double>(delta_sum(d, pat));
    };
    auto hist_mean = [&](const char *path) {
        const obs::StatEntry *e = reg.find(path);
        return e && e->hist ? e->hist->scalar().mean() : 0.0;
    };

    // sim: kernel self-telemetry. Pool misses, windows and handoffs
    // describe how the host executed the run (pool warmth, shard
    // timing), so they are host-class like the registry's "sim."
    // subtree; the executed-event count is simulated behaviour.
    double events = ds("sim.executed_events");
    o.set("sim.events", events, "count", Cls::count, Dir::lower);
    o.set("sim.host_ns_per_event", events > 0 ? runS * 1e9 / events : 0,
          "ns/event", Cls::host, Dir::lower);
    o.set("sim.alloc_misses",
          ds("sim.alloc.pool_miss") + ds("sim.alloc.fn_heap"), "count",
          Cls::host, Dir::lower);
    o.set("sim.sys_pct", sysPct, "%", Cls::host, Dir::lower);
    double windows = ds("sim.window.count");
    o.set("sim.window.count", windows, "count", Cls::host, Dir::lower);
    o.set("sim.window.events_per_window",
          windows > 0 ? ds("sim.window.events") / windows : 0.0,
          "event", Cls::host, Dir::higher);
    o.set("sim.window.barrier_wait_s",
          ds("sim.window.barrier_wait_ns") * 1e-9, "s", Cls::host,
          Dir::lower);
    o.set("sim.window.merge_s", ds("sim.window.merge_ns") * 1e-9, "s",
          Cls::host, Dir::lower);
    o.set("sim.window.imbalance_max_x1000",
          static_cast<double>(reg.value("sim.window.imbalance_max_x1000")),
          "x1000", Cls::host, Dir::lower);
    o.set("sim.handoffs", ds("sim.shard.*.handoffs_in"), "count",
          Cls::host, Dir::lower);

    // net
    double msgs = ds("tnet.messages");
    o.set("tnet.messages", msgs, "count", Cls::count, Dir::lower);
    o.set("tnet.wire_bytes", ds("tnet.wire_bytes"), "B", Cls::count,
          Dir::lower);
    o.set("tnet.latency_mean_us", hist_mean("tnet.latency_us"), "us",
          Cls::sim, Dir::lower);
    o.set("tnet.hops_mean", hist_mean("tnet.distance"), "hop",
          Cls::sim, Dir::lower);
    o.set("net.host_ns_per_msg", msgs > 0 ? runS * 1e9 / msgs : 0.0,
          "ns/msg", Cls::host, Dir::lower);
    o.set("snet.episodes", ds("snet.episodes"), "count", Cls::count,
          Dir::lower);
    o.set("bnet.broadcasts", ds("bnet.broadcasts"), "count", Cls::count,
          Dir::lower);

    // hw
    o.set("msc.user_queue_spills", ds("*.msc.user_queue.spills"),
          "count", Cls::count, Dir::lower);
    o.set("msc.refill_interrupts", ds("*.msc.*.refill_interrupts"),
          "count", Cls::count, Dir::lower);
    o.set("ring.deposits", ds("*.ring.deposits"), "count", Cls::count,
          Dir::lower);
    o.set("ring.max_depth",
          static_cast<double>(reg.max_over("*.ring.max_depth")), "msg",
          Cls::count, Dir::lower);
    o.set("ring.grow_interrupts", ds("*.ring.grow_interrupts"), "count",
          Cls::count, Dir::lower);
    o.set("mc.flag_increments", ds("*.mc.flag_increments"), "count",
          Cls::count, Dir::lower);
    o.set("mmu.tlb_misses", ds("*.mmu.tlb_misses"), "count", Cls::count,
          Dir::lower);
    o.set("hw.alloc_misses",
          ds("sim.alloc.payload_miss") + static_cast<double>(imageMisses),
          "count", Cls::host, Dir::lower);
    o.set("hw.machine_ctor_s", ctorS, "s", Cls::host, Dir::lower);
    o.set("hw.ctor_us_per_cell", ctorS * 1e6 / m.size(), "us/cell",
          Cls::host, Dir::lower);

    // obs
    o.set("obs.registry_paths", static_cast<double>(reg.size()), "count",
          Cls::count, Dir::lower);
    o.set("obs.spans_recorded", ds("spans.recorded"), "count",
          Cls::count, Dir::lower);
}

/** core metrics of one SPMD run. */
void
spmd_layers(const core::SpmdResult &res, double runS, const SimSpans *ss,
            MetricSet &o)
{
    double blocked = 0.0, busy = 0.0;
    for (std::size_t i = 0; i < res.cellFinish.size(); ++i) {
        blocked += static_cast<double>(res.cellBlocked[i]);
        busy += static_cast<double>(res.cellFinish[i]);
    }
    o.set("core.run_spmd_s", runS, "s", Cls::host, Dir::lower);
    o.set("core.blocked_pct", busy > 0 ? blocked / busy * 100.0 : 0.0,
          "%", Cls::sim, Dir::lower);
    if (ss == nullptr)
        return;
    for (std::size_t k = 0; k < num_sim_ops; ++k) {
        auto op = static_cast<SimOp>(k);
        o.set(std::string("core.sim.") + sim_op_name(op) + "_us",
              ss->mean_us(op), "us", Cls::sim, Dir::lower, ss->count(op));
    }
}

/** Start a traced pass's simulated spans; null when untraced. */
SimSpans *
sim_spans(const Instruments &ins, int cells)
{
    if (!ins.traced())
        return nullptr;
    *ins.sim = std::make_unique<SimSpans>(cells);
    return ins.sim->get();
}

/** Build a machine inside a "hw::Machine" span; @p ctorS gets the
 *  constructor's host seconds. */
std::unique_ptr<hw::Machine>
build_machine(const hw::MachineConfig &cfg, HostSpans *h, double &ctorS)
{
    Scope s(h, "hw::Machine");
    auto t0 = Clock::now();
    auto m = std::make_unique<hw::Machine>(cfg);
    ctorS = seconds_since(t0);
    return m;
}

/** Builds one run's SPMD body once its machine exists. */
using BodyFactory = std::function<core::SpmdBody(const hw::Machine &,
                                                 SimSpans *, CellOutcome &)>;

/**
 * One pass of an SPMD workload: build the machine and the body's
 * inputs (setup), run the body on every cell (run), then gather the
 * metrics (collect). Each cell attempts @p perCellOps operations and
 * records one latency sample per @p opsPerSample of them.
 */
Pass
spmd_pass(const char *workload, const hw::MachineConfig &cfg,
          std::uint64_t perCellOps, std::uint64_t opsPerSample,
          const Instruments &ins, const BodyFactory &make_body)
{
    Pass p;
    const int n = cfg.cells;
    SimSpans *ss = sim_spans(ins, n);
    CellOutcome out(n);

    auto t0 = Clock::now();
    Scope wl(ins.host, std::string("workload:") + workload);
    std::uint64_t img0 = hw::CellMemory::image_cache_misses();
    double ctorS = 0.0;
    std::unique_ptr<hw::Machine> m;
    core::SpmdBody body;
    {
        Scope s(ins.host, "setup");
        m = build_machine(cfg, ins.host, ctorS);
        body = make_body(*m, ss, out);
    }
    p.setupS = seconds_since(t0);

    RunStart rs(m->stats_registry(), ins.host);
    core::SpmdResult res;
    {
        Scope s(ins.host, "run");
        Scope r(ins.host, "core::run_spmd");
        res = core::run_spmd(*m, body);
    }
    p.runS = seconds_since(rs.t0);
    CpuTimes cpu1 = cpu_times();

    Scope c(ins.host, "collect");
    Delta d = m->stats_registry().delta_since(rs.snap);
    p.attempted = perCellOps * static_cast<std::uint64_t>(n);
    p.failed = perCellOps * out.unfinished();
    out.report(p.errors);
    p.ops = opsPerSample * out.finished_samples();

    MetricSet &o = p.metrics;
    o.set("sim_us", res.finish_us(), "us", Cls::sim, Dir::lower);
    latency_metrics(out.all_latencies(), o);
    fail_metric(p.failed, p.attempted, o);
    machine_layers(*m, d, p.runS, ctorS, sys_pct(rs.cpu, cpu1),
                   hw::CellMemory::image_cache_misses() - img0, o);
    spmd_layers(res, p.runS, ss, o);
    return p;
}

// -- a2a_send ---------------------------------------------------------
//
// Every cell SENDs one 64-byte message to every other cell in a
// seed-permuted order, then RECEIVEs all of them in arrival order and
// checks each payload and that every source appears once. Closed
// loop: the run ends when the last receive returns.

constexpr int a2aCells = 1024;
constexpr int a2aWords = 8; // 64 bytes

hw::MachineConfig
a2a_config()
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(a2aCells);
    cfg.threads = 1;
    return cfg;
}

/** Payload word @p k (k >= 2) of the message src -> dst. */
std::uint64_t
a2a_word(std::uint64_t seed, CellId src, CellId dst, int k)
{
    return mix(seed, static_cast<std::uint64_t>(src),
               static_cast<std::uint64_t>(dst),
               static_cast<std::uint64_t>(k));
}

void
a2a_body(core::Context &ctx, std::uint64_t seed, SimSpans *ss,
         CellOutcome &out)
{
    const int p = ctx.nprocs();
    const CellId me = ctx.id();
    const auto msgBytes = static_cast<std::uint32_t>(a2aWords * 8);
    // One slot per destination: a SEND reads its buffer when the
    // MSC+ executes the command, which may be after the next send.
    Addr slots = ctx.alloc(static_cast<std::size_t>(p) * msgBytes);
    Addr rbuf = ctx.alloc(msgBytes);
    std::vector<std::uint64_t> w(a2aWords);

    for (int dst : permutation(p, mix(seed, me, 1), me)) {
        Addr slot = slots + static_cast<Addr>(dst) * msgBytes;
        w[0] = ctx.now();
        w[1] = (static_cast<std::uint64_t>(me) << 32) |
               static_cast<std::uint32_t>(dst);
        for (int k = 2; k < a2aWords; ++k)
            w[static_cast<std::size_t>(k)] = a2a_word(seed, me, dst, k);
        ctx.poke(slot, bytes_of(w));
        timed(ctx, ss, SimOp::send,
              [&] { ctx.send(dst, 0, slot, msgBytes); });
    }

    // Receive in arrival order; every source must show up once.
    auto &lat = out.latUs[static_cast<std::size_t>(me)];
    lat.reserve(static_cast<std::size_t>(p - 1));
    std::vector<char> seen(static_cast<std::size_t>(p), 0);
    for (int i = 0; i < p - 1; ++i) {
        std::uint32_t got = timed(ctx, ss, SimOp::recv, [&] {
            return ctx.recv(hw::any_source, 0, rbuf, msgBytes);
        });
        ctx.peek(rbuf, bytes_of(w));
        auto src = static_cast<CellId>(w[1] >> 32);
        bool ok = got == msgBytes && src >= 0 && src < p && src != me &&
                  !seen[static_cast<std::size_t>(src)] &&
                  static_cast<CellId>(w[1] & 0xffffffffu) == me;
        for (int k = 2; ok && k < a2aWords; ++k)
            ok = w[static_cast<std::size_t>(k)] ==
                 a2a_word(seed, src, me, k);
        if (!ok) {
            out.mismatch(me, strprintf("receive %d (header %#llx)", i,
                                       static_cast<unsigned long long>(
                                           w[1])));
            continue;
        }
        seen[static_cast<std::size_t>(src)] = 1;
        lat.push_back(ticks_to_us(ctx.now() - w[0]));
    }
    out.done[static_cast<std::size_t>(me)] = 1;
}

Pass
a2a_pass(std::uint64_t seed, const Instruments &ins)
{
    return spmd_pass(
        "a2a_send", a2a_config(), a2aCells - 1, 1, ins,
        [seed](const hw::Machine &, SimSpans *ss, CellOutcome &out) {
            return [seed, ss, &out](core::Context &ctx) {
                a2a_body(ctx, seed, ss, out);
            };
        });
}

double
a2a_setup_only(std::uint64_t)
{
    auto t0 = Clock::now();
    hw::Machine m(a2a_config());
    return seconds_since(t0);
}

// -- halo_put_t4 --------------------------------------------------------
//
// Each iteration every cell PUTs 16 KB to its four torus neighbours
// (seed-permuted order) with a receive flag, waits for its own four
// arrivals, checks them, computes, joins a scalar allreduce whose
// exact value is checked, and enters a barrier. Closed loop, on the
// sharded kernel with up to four shards.

constexpr int haloCells = 1024;
constexpr int haloIters = 20;
constexpr std::uint32_t haloBytes = 16 * 1024;
constexpr double haloComputeUs = 50.0;

int
halo_threads()
{
    unsigned hc = std::thread::hardware_concurrency();
    return std::clamp(static_cast<int>(hc), 1, 4);
}

hw::MachineConfig
halo_config()
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(haloCells);
    cfg.threads = halo_threads();
    // Deterministic mode: in the default parallel mode the same seed
    // does not repeat (seed 11: sim_us moves by up to 0.1 us between
    // passes), which the exact-repeat gate rejects. Deterministic
    // mode keeps the shard routing and handoffs but runs the events in
    // the sequential order, so every simulated metric repeats.
    cfg.deterministic = true;
    return cfg;
}

/** Inputs shared by every cell of one halo run (read-only). */
struct HaloPlan
{
    std::uint64_t seed = 0;
    /** nb[c][d]: neighbour of c in direction d (N, S, W, E). */
    std::vector<std::array<CellId, 4>> nb;
    /** Per-cell PUT order over the four directions. */
    std::vector<std::array<int, 4>> order;
    /** Exact allreduce result per iteration. */
    std::vector<double> expectedSum;

    HaloPlan(const net::Torus &t, std::uint64_t s) : seed(s)
    {
        const int n = t.width() * t.height();
        nb.resize(static_cast<std::size_t>(n));
        order.resize(static_cast<std::size_t>(n));
        for (CellId c = 0; c < n; ++c) {
            net::Coord xy = t.coord_of(c);
            auto &v = nb[static_cast<std::size_t>(c)];
            v[0] = t.id_of({xy.x, xy.y - 1});
            v[1] = t.id_of({xy.x, xy.y + 1});
            v[2] = t.id_of({xy.x - 1, xy.y});
            v[3] = t.id_of({xy.x + 1, xy.y});
            std::vector<int> perm = permutation(4, mix(s, c, 3), -1);
            std::copy(perm.begin(), perm.end(),
                      order[static_cast<std::size_t>(c)].begin());
        }
        for (int it = 0; it < haloIters; ++it) {
            double sum = 0.0;
            for (CellId c = 0; c < n; ++c)
                sum += contribution(c, it);
            expectedSum.push_back(sum);
        }
    }

    /** Integer-valued, so the sum is exact in any order. */
    double
    contribution(CellId c, int it) const
    {
        return static_cast<double>(mix(seed, c, it, 7) % 1024);
    }

    /** First word of the block @p src sends in iteration @p it. */
    std::uint64_t
    block_base(CellId src, int it) const
    {
        return mix(seed, src, it, 5);
    }
};

void
halo_body(core::Context &ctx, const HaloPlan &plan, SimSpans *ss,
          CellOutcome &out)
{
    const CellId me = ctx.id();
    const auto mi = static_cast<std::size_t>(me);
    Addr sbuf = ctx.alloc(haloBytes);
    std::array<Addr, 4> land{};
    for (Addr &a : land)
        a = ctx.alloc(haloBytes);
    Addr flag = ctx.alloc_flag();
    std::vector<std::uint64_t> w(haloBytes / 8);
    auto &lat = out.latUs[mi];

    for (int it = 0; it < haloIters; ++it) {
        std::uint64_t base = plan.block_base(me, it);
        for (std::size_t i = 0; i < w.size(); ++i)
            w[i] = base + i;
        ctx.poke(sbuf, bytes_of(w));

        Tick first = ctx.now();
        for (int d : plan.order[mi]) {
            // My block lands in the neighbour's slot for the
            // opposite direction (N <-> S, W <-> E).
            CellId dst = plan.nb[mi][static_cast<std::size_t>(d)];
            Addr raddr = land[static_cast<std::size_t>(d ^ 1)];
            timed(ctx, ss, SimOp::put, [&] {
                ctx.put(dst, raddr, sbuf, haloBytes, no_flag, flag);
            });
        }
        auto target = static_cast<std::uint32_t>(4 * (it + 1));
        timed(ctx, ss, SimOp::wait_flag,
              [&] { ctx.wait_flag(flag, target); });
        lat.push_back(ticks_to_us(ctx.now() - first));

        for (std::size_t d = 0; d < 4; ++d) {
            ctx.peek(land[d], bytes_of(w));
            std::uint64_t want = plan.block_base(plan.nb[mi][d], it);
            for (std::size_t i = 0; i < w.size(); ++i)
                if (w[i] != want + i) {
                    out.mismatch(me, strprintf("iteration %d, block "
                                               "from %d, word %zu",
                                               it, plan.nb[mi][d], i));
                    break;
                }
        }

        ctx.compute_us(haloComputeUs);
        double sum = timed(ctx, ss, SimOp::allreduce, [&] {
            return ctx.allreduce(plan.contribution(me, it),
                                 core::ReduceOp::sum);
        });
        if (sum != plan.expectedSum[static_cast<std::size_t>(it)])
            out.mismatch(me, strprintf("iteration %d allreduce %.17g, "
                                       "expected %.17g",
                                       it, sum,
                                       plan.expectedSum[static_cast<
                                           std::size_t>(it)]));
        timed(ctx, ss, SimOp::barrier, [&] { ctx.barrier(); });
    }
    out.done[mi] = 1;
}

Pass
halo_pass(std::uint64_t seed, const Instruments &ins)
{
    return spmd_pass(
        "halo_put_t4", halo_config(), 4 * haloIters, 4, ins,
        [seed](const hw::Machine &m, SimSpans *ss, CellOutcome &out) {
            auto plan = std::make_shared<const HaloPlan>(m.topology(), seed);
            return [plan, ss, &out](core::Context &ctx) {
                halo_body(ctx, *plan, ss, out);
            };
        });
}

double
halo_setup_only(std::uint64_t seed)
{
    auto t0 = Clock::now();
    hw::Machine m(halo_config());
    HaloPlan plan(m.topology(), seed);
    return seconds_since(t0);
}

/**
 * mlsim_gap_pct: the same inputs run once more with run_spmd's probe
 * trace attached (untimed), then replayed under MLSim's AP1000+
 * parameters. The captured run's simulated time must equal the timed
 * passes' (the probe only observes).
 */
void
halo_once(std::uint64_t seed, MetricSet &o, std::vector<std::string> &errors)
{
    hw::Machine m(halo_config());
    HaloPlan plan(m.topology(), seed);
    CellOutcome out(m.size());
    core::Trace trace;
    core::SpmdResult res = core::run_spmd(
        m,
        [&](core::Context &ctx) { halo_body(ctx, plan, nullptr, out); },
        &trace);
    out.report(errors);
    mlsim::ReplayReport rep =
        mlsim::Replay(trace, mlsim::Params::ap1000_plus()).run();
    if (rep.deadlock)
        errors.push_back("halo_put_t4: MLSim replay of the captured "
                         "trace deadlocked");
    o.set("sim_us", res.finish_us(), "us", Cls::sim, Dir::lower);
    o.set("mlsim_gap_pct", gap_pct(res.finish_us(), rep.totalUs), "%",
          Cls::sim, Dir::lower, 0,
          strprintf("emulated %.1f us vs MLSim ap1000_plus %.1f us",
                    res.finish_us(), rep.totalUs));
}

// -- serve_drill --------------------------------------------------------
//
// Open loop in simulated time: a seeded job stream arrives at a mean
// interarrival of 20 us on 256 cells with 32 concurrent partitions,
// and one seeded kill lands on a busy cell at 35% of the stream.
// Arrivals are scheduled ahead on the simulated clock, so the
// generator is never late.

constexpr int serveCells = 256;
constexpr int serveJobs = 2000;
constexpr double serveArrivalUs = 20.0;

hw::MachineConfig
serve_machine_config()
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(serveCells);
    cfg.threads = 1;
    // The watchdog unwinds a killed gang's survivors promptly (as in
    // bench_serve's drill).
    cfg.retry.watchdogUs = 3000.0;
    return cfg;
}

serve::ServeConfig
serve_config()
{
    serve::ServeConfig sc;
    sc.maxInflight = 32;
    // The admission queue holds the whole stream, so nothing is shed:
    // overload shows as queue wait and latency, not refusals.
    sc.queueDepth = serveJobs;
    return sc;
}

serve::TrafficConfig
serve_traffic(std::uint64_t seed, const hw::Machine &m)
{
    serve::TrafficConfig t;
    t.jobs = serveJobs;
    t.seed = seed;
    t.meanArrivalUs = serveArrivalUs;
    t.maxW = m.topology().width();
    t.maxH = m.topology().height();
    return t;
}

/** Everything one serve_drill setup builds, in destruction order. */
struct ServeSetup
{
    std::unique_ptr<hw::Machine> machine;
    std::unique_ptr<serve::GangScheduler> sched;
    double ctorS = 0.0;
    double generateS = 0.0;
    double scheduleS = 0.0;

    ServeSetup(std::uint64_t seed, HostSpans *h)
    {
        machine = build_machine(serve_machine_config(), h, ctorS);
        hw::Machine &m = *machine;
        serve::TrafficConfig traffic = serve_traffic(seed, m);
        std::vector<serve::JobSpec> stream;
        {
            Scope s(h, "serve::generate_stream");
            auto t0 = Clock::now();
            stream = serve::generate_stream(traffic);
            generateS = seconds_since(t0);
        }
        {
            Scope s(h, "serve::GangScheduler::schedule_stream");
            auto t0 = Clock::now();
            sched = std::make_unique<serve::GangScheduler>(
                m, serve_config());
            sched->schedule_stream(stream);
            scheduleS = seconds_since(t0);
        }
        // Aim the kill at a cell a running gang holds once the fleet
        // is warm, like bench_serve's drill.
        double at = traffic.firstArrivalUs +
                    serveArrivalUs * serveJobs * 0.35;
        serve::GangScheduler *sp = sched.get();
        m.sim().schedule_for(-1, us_to_ticks(at), [&m, sp, seed] {
            CellId victim = sp->pick_busy_cell(seed);
            if (victim < 0)
                return;
            m.sim().schedule_after_for(victim, us_to_ticks(5.0),
                                       [&m, victim] {
                                           m.fail_cell(victim);
                                       });
        });
    }
};

Pass
serve_pass(std::uint64_t seed, const Instruments &ins)
{
    Pass p;
    auto t0 = Clock::now();
    Scope wl(ins.host, "workload:serve_drill");
    std::uint64_t img0 = hw::CellMemory::image_cache_misses();
    std::unique_ptr<ServeSetup> su;
    {
        Scope s(ins.host, "setup");
        su = std::make_unique<ServeSetup>(seed, ins.host);
    }
    p.setupS = seconds_since(t0);
    hw::Machine &m = *su->machine;
    serve::GangScheduler &sched = *su->sched;

    RunStart rs(m.stats_registry(), ins.host);
    {
        Scope s(ins.host, "run");
        Scope r(ins.host, "hw::Machine::run_to_completion");
        m.run_to_completion();
    }
    p.runS = seconds_since(rs.t0);
    CpuTimes cpu1 = cpu_times();

    Scope c(ins.host, "collect");
    {
        Scope f(ins.host, "serve::GangScheduler::finalize");
        sched.finalize();
    }
    Delta d = m.stats_registry().delta_since(rs.snap);
    const serve::ServeTotals &tot = sched.totals();

    // Gates: every job terminal, and the terminal states add up to
    // what was submitted.
    if (!sched.all_terminal())
        p.errors.push_back("serve_drill: a job did not end terminal");
    std::uint64_t shed = tot.shedQueueFull + tot.shedTooLarge;
    std::uint64_t lost =
        shed + tot.failedTerminal + tot.starved + tot.deadlineCancelled;
    if (tot.submitted != serveJobs || tot.completed + lost != tot.submitted)
        p.errors.push_back(strprintf(
            "serve_drill: accounting: submitted %llu, completed %llu, "
            "lost %llu",
            static_cast<unsigned long long>(tot.submitted),
            static_cast<unsigned long long>(tot.completed),
            static_cast<unsigned long long>(lost)));

    std::vector<double> lat, wait;
    Tick firstSubmit = 0, lastFinish = 0;
    bool haveFirst = false;
    std::uint64_t completedRecs = 0;
    for (const serve::JobRecord &r : sched.jobs()) {
        if (!haveFirst || r.submitTick < firstSubmit) {
            firstSubmit = r.submitTick;
            haveFirst = true;
        }
        if (r.state != serve::JobState::completed)
            continue;
        ++completedRecs;
        lat.push_back(ticks_to_us(r.finishTick - r.submitTick));
        wait.push_back(ticks_to_us(r.queuedTicks));
        lastFinish = std::max(lastFinish, r.finishTick);
    }
    if (completedRecs != tot.completed)
        p.errors.push_back("serve_drill: completed records disagree "
                           "with the totals");
    std::sort(lat.begin(), lat.end());
    std::sort(wait.begin(), wait.end());

    p.attempted = tot.submitted;
    p.failed = lost;
    p.ops = tot.completed;

    MetricSet &o = p.metrics;
    o.set("sim_us",
          lastFinish > firstSubmit ? ticks_to_us(lastFinish - firstSubmit)
                                   : 0.0,
          "us", Cls::sim, Dir::lower);
    latency_metrics(lat, o);
    fail_metric(lost, tot.submitted, o);
    machine_layers(m, d, p.runS, su->ctorS, sys_pct(rs.cpu, cpu1),
                   hw::CellMemory::image_cache_misses() - img0, o);

    o.set("serve.generate_stream_s", su->generateS, "s", Cls::host,
          Dir::lower);
    o.set("serve.schedule_stream_s", su->scheduleS, "s", Cls::host,
          Dir::lower);
    o.set("serve.run_s", p.runS, "s", Cls::host, Dir::lower);
    o.set("serve.host_us_per_job",
          tot.completed ? p.runS * 1e6 / static_cast<double>(tot.completed)
                        : 0.0,
          "us/job", Cls::host, Dir::lower);
    auto cnt = [&](const char *name, std::uint64_t v) {
        o.set(name, static_cast<double>(v), "count", Cls::count,
              Dir::lower);
    };
    cnt("serve.attempts", tot.attempts);
    cnt("serve.retries", tot.retried);
    cnt("serve.shed", shed);
    cnt("serve.starved", tot.starved);
    cnt("serve.partitions_quarantined", tot.partitionsQuarantined);
    o.set("serve.util_pct", sched.utilization() * 100.0, "%", Cls::sim,
          Dir::higher);
    o.set("serve.queue_wait_p99_us", nearest_rank(wait, 99.0).value, "us",
          Cls::sim, Dir::lower, wait.size());
    return p;
}

double
serve_setup_only(std::uint64_t seed)
{
    auto t0 = Clock::now();
    ServeSetup su(seed, nullptr);
    return seconds_since(t0);
}

// -- mlsim_table2 -------------------------------------------------------
//
// The Table 2 applications at the paper's sizes, except FT, replayed
// under the AP1000 and AP1000+ parameter sets. The traces are fixed
// by the paper, so the seed does not change the inputs.

const std::vector<std::string> &
table2_apps()
{
    static const std::vector<std::string> names = {
        "EP", "CG", "SP", "TC st", "TC no st", "MatMul", "SCG"};
    return names;
}

std::string
key(std::string s)
{
    std::replace(s.begin(), s.end(), ' ', '_');
    return s;
}

struct AppTrace
{
    std::unique_ptr<apps::App> app;
    core::Trace trace;
    double generateS = 0.0;
};

std::vector<AppTrace>
generate_table2(HostSpans *h)
{
    std::vector<AppTrace> out;
    for (auto &app : apps::standard_suite()) {
        std::string name = app->info().name;
        if (std::find(table2_apps().begin(), table2_apps().end(), name) ==
            table2_apps().end())
            continue;
        AppTrace at;
        Scope s(h, "apps::App::generate:" + name);
        auto t0 = Clock::now();
        at.trace = app->generate();
        at.generateS = seconds_since(t0);
        at.app = std::move(app);
        out.push_back(std::move(at));
    }
    return out;
}

Pass
mlsim_pass(std::uint64_t, const Instruments &ins)
{
    Pass p;
    auto t0 = Clock::now();
    Scope wl(ins.host, "workload:mlsim_table2");
    std::vector<AppTrace> traces;
    {
        Scope s(ins.host, "setup");
        traces = generate_table2(ins.host);
    }
    p.setupS = seconds_since(t0);

    struct Result
    {
        mlsim::ReplayReport base, plus;
    };
    std::vector<Result> results(traces.size());
    const mlsim::Params base = mlsim::Params::ap1000();
    const mlsim::Params plus = mlsim::Params::ap1000_plus();
    double replayBaseS = 0.0, replayPlusS = 0.0;
    CpuTimes cpu0 = cpu_times();
    auto r0 = Clock::now();
    {
        Scope s(ins.host, "run");
        for (std::size_t i = 0; i < traces.size(); ++i) {
            const std::string name = traces[i].app->info().name;
            auto replay = [&](const mlsim::Params &prm, const char *pn,
                              mlsim::ReplayReport &rep, double &acc) {
                Scope r(ins.host,
                        "mlsim::Replay::run:" + name + ":" + pn);
                auto t = Clock::now();
                rep = mlsim::Replay(traces[i].trace, prm).run();
                acc += seconds_since(t);
            };
            replay(base, "ap1000", results[i].base, replayBaseS);
            replay(plus, "ap1000_plus", results[i].plus, replayPlusS);
        }
    }
    p.runS = seconds_since(r0);
    CpuTimes cpu1 = cpu_times();

    Scope c(ins.host, "collect");
    std::set<std::string> seen;
    std::vector<double> ours, paper;
    std::uint64_t messages = 0, deadlocked = 0, traceEvents = 0;
    double simPlusUs = 0.0, idleUs = 0.0, overheadUs = 0.0, totalUs = 0.0;
    MetricSet &o = p.metrics;
    for (std::size_t i = 0; i < traces.size(); ++i) {
        const apps::App &app = *traces[i].app;
        const Result &r = results[i];
        seen.insert(app.info().name);
        deadlocked += r.base.deadlock + r.plus.deadlock;
        messages += r.base.messages + r.plus.messages;
        traceEvents += traces[i].trace.total_events();
        simPlusUs += r.plus.totalUs;
        mlsim::CellBreakdown mean = r.plus.mean();
        idleUs += mean.idleUs;
        overheadUs += mean.overheadUs;
        totalUs += mean.totalUs;
        if (r.plus.totalUs > 0.0) {
            ours.push_back(r.base.totalUs / r.plus.totalUs);
            paper.push_back(app.paper_speedup_plus());
        }
        o.set("apps.generate_s." + key(app.info().name),
              traces[i].generateS, "s", Cls::host, Dir::lower);
    }
    for (const std::string &name : table2_apps())
        if (!seen.count(name))
            p.errors.push_back("mlsim_table2: Table 2 app " + name +
                               " missing from the suite");
    if (deadlocked)
        p.errors.push_back(strprintf(
            "mlsim_table2: %llu replays deadlocked",
            static_cast<unsigned long long>(deadlocked)));

    p.attempted = 2 * traces.size();
    p.failed = deadlocked;
    p.ops = messages;

    o.set("sim_us", simPlusUs, "us", Cls::sim, Dir::lower, 0,
          "sum of the AP1000+ replay times");
    fail_metric(deadlocked, p.attempted, o);
    o.set("paper_err_pct", mean_rel_err_pct(ours, paper), "%", Cls::sim,
          Dir::lower, ours.size(),
          "mean |AP1000+ speedup - Table 2| / Table 2");
    o.set("mlsim.replay_s.ap1000", replayBaseS, "s", Cls::host,
          Dir::lower);
    o.set("mlsim.replay_s.ap1000_plus", replayPlusS, "s", Cls::host,
          Dir::lower);
    o.set("mlsim.messages", static_cast<double>(messages), "count",
          Cls::count, Dir::lower);
    o.set("mlsim.host_ns_per_msg",
          messages ? p.runS * 1e9 / static_cast<double>(messages) : 0.0,
          "ns/msg", Cls::host, Dir::lower);
    o.set("mlsim.idle_pct", totalUs > 0 ? idleUs / totalUs * 100.0 : 0.0,
          "%", Cls::sim, Dir::lower);
    o.set("mlsim.overhead_pct",
          totalUs > 0 ? overheadUs / totalUs * 100.0 : 0.0, "%", Cls::sim,
          Dir::lower);
    o.set("apps.trace_events", static_cast<double>(traceEvents), "count",
          Cls::count, Dir::lower);
    o.set("sim.sys_pct", sys_pct(cpu0, cpu1), "%", Cls::host, Dir::lower);
    return p;
}

double
mlsim_setup_only(std::uint64_t)
{
    auto t0 = Clock::now();
    generate_table2(nullptr);
    return seconds_since(t0);
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"a2a_send", a2a_pass, a2a_setup_only, nullptr},
        {"halo_put_t4", halo_pass, halo_setup_only, halo_once},
        {"serve_drill", serve_pass, serve_setup_only, nullptr},
        {"mlsim_table2", mlsim_pass, mlsim_setup_only, nullptr},
    };
    return all;
}

const Workload *
find_workload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

} // namespace pb
