/**
 * @file
 * Telemetry-layer tests: JSON emitter/validator, the stats registry
 * (paths, pattern queries, subtree removal, dumps), debug-flag
 * parsing, the bounded tracer ring, and the end-to-end timeline of a
 * two-cell PUT program.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>

#include "base/logging.hh"
#include "core/ap1000p.hh"
#include "obs/cli.hh"
#include "obs/debug.hh"
#include "obs/json.hh"
#include "obs/stats_registry.hh"
#include "obs/tracer.hh"
#include "runtime/rts.hh"
#include "serve/scheduler.hh"
#include "sim/eventq.hh"

using namespace ap;
using namespace ap::obs;

// ------------------------------------------------------------------- json

TEST(Json, DottedPathsNest)
{
    JsonTree t;
    t.set("a.b.x", std::uint64_t{1});
    t.set("a.b.y", 2.5);
    t.set_string("a.name", "hi \"there\"\n");
    std::string out = t.render(false);
    std::string err;
    EXPECT_TRUE(json_valid(out, &err)) << err;
    EXPECT_NE(out.find("\"x\": 1"), std::string::npos);
    EXPECT_NE(out.find("\\\"there\\\"\\n"), std::string::npos);
}

TEST(Json, ValidatorAcceptsAndRejects)
{
    EXPECT_TRUE(json_valid("{\"a\": [1, 2.5, -3e2, true, null]}"));
    EXPECT_TRUE(json_valid("[]"));
    std::string err;
    EXPECT_FALSE(json_valid("{\"a\": }", &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(json_valid("{\"a\": 1} trailing"));
    EXPECT_FALSE(json_valid("{'a': 1}"));
    EXPECT_FALSE(json_valid(""));
}

// --------------------------------------------------------------- registry

TEST(StatsRegistry, PatternQueriesAndRemoval)
{
    StatsRegistry r;
    std::uint64_t a = 3, b = 7, other = 100;
    r.add_counter("cell0.msc.puts_sent", &a);
    r.add_counter("cell1.msc.puts_sent", &b);
    r.add_counter("cell1.mc.loads", &other);
    Histogram h;
    h.sample(4);
    r.add_histogram("cell0.msc.latency", &h);
    r.add_gauge("machine.level", [] { return std::uint64_t{9}; });

    EXPECT_EQ(r.size(), 5u);
    EXPECT_EQ(r.value("cell0.msc.puts_sent"), 3u);
    EXPECT_EQ(r.value("cell0.msc.latency"), 1u); // histogram count
    EXPECT_EQ(r.value("no.such.path"), 0u);
    EXPECT_EQ(r.sum("*.msc.puts_sent"), 10u);
    EXPECT_EQ(r.sum("*.*.puts_sent"), 10u);
    EXPECT_EQ(r.sum("*.puts_sent"), 0u); // '*' is one segment

    std::string who;
    EXPECT_EQ(r.max_over("*.msc.puts_sent", &who), 7u);
    EXPECT_EQ(who, "cell1.msc.puts_sent");

    b = 11; // entries read live values
    EXPECT_EQ(r.value("cell1.msc.puts_sent"), 11u);

    r.remove_prefix("cell1.");
    EXPECT_EQ(r.size(), 3u);
    EXPECT_EQ(r.find("cell1.msc.puts_sent"), nullptr);
    EXPECT_NE(r.find("cell0.msc.puts_sent"), nullptr);
}

TEST(StatsRegistry, SnapshotDiffReportsOnlyChange)
{
    StatsRegistry r;
    std::uint64_t puts = 3, gets = 5;
    r.add_counter("cell0.msc.puts_sent", &puts);
    r.add_counter("cell0.msc.gets_sent", &gets);

    StatsRegistry::Snapshot before = r.snapshot();
    EXPECT_EQ(before.at("cell0.msc.puts_sent"), 3u);

    puts = 10; // +7
    std::uint64_t late = 2;
    r.add_counter("cell0.msc.late", &late); // born after the snapshot

    std::map<std::string, std::int64_t> d = r.delta_since(before);
    EXPECT_EQ(d.at("cell0.msc.puts_sent"), 7);
    EXPECT_EQ(d.at("cell0.msc.gets_sent"), 0);
    EXPECT_EQ(d.at("cell0.msc.late"), 2); // counts from zero

    std::string text = StatsRegistry::delta_text(d);
    EXPECT_NE(text.find("puts_sent"), std::string::npos);
    EXPECT_NE(text.find("+7"), std::string::npos);
    // Zero rows are dropped from the table.
    EXPECT_EQ(text.find("gets_sent"), std::string::npos);
    // Largest magnitude first, and maxRows cuts with a marker.
    std::string one = StatsRegistry::delta_text(d, 1);
    EXPECT_NE(one.find("puts_sent"), std::string::npos);
    EXPECT_NE(one.find("more)"), std::string::npos);
    EXPECT_EQ(StatsRegistry::delta_text({}).find("(no change)"), 0u);
}

TEST(StatsRegistry, DumpsAreWellFormed)
{
    StatsRegistry r;
    std::uint64_t v = 42;
    r.add_counter("cell0.msc.puts_sent", &v);
    Histogram h;
    h.sample(3);
    h.sample(100);
    r.add_histogram("cell0.msc.sizes", &h);

    std::string err;
    EXPECT_TRUE(json_valid(r.dump_json(true), &err)) << err;
    EXPECT_TRUE(json_valid(r.dump_json(false), &err)) << err;
    EXPECT_NE(r.dump_json().find("\"puts_sent\""),
              std::string::npos);

    std::string text = r.dump_text();
    EXPECT_NE(text.find("cell0.msc.puts_sent"), std::string::npos);
    EXPECT_NE(text.find("42"), std::string::npos);
}

TEST(StatsRegistry, HistogramJsonListsNonEmptyBucketsAscending)
{
    // The stats JSON text of a histogram is pinned: only buckets with
    // samples appear, in ascending order, whether the counts came
    // from sampling or from a merge.
    Histogram h;
    for (std::uint64_t v : {700, 3, 1, 2})
        h.sample(v);
    Histogram a, b, merged;
    a.sample(700);
    a.sample(2);
    b.sample(1);
    b.sample(3);
    merged.merge(a);
    merged.merge(b);

    const std::string want =
        "{\"count\": 4, \"sum\": 706, \"min\": 1, \"max\": 700, "
        "\"mean\": 176.5, \"buckets\": {\"b1\": 1, \"b2\": 2, "
        "\"b10\": 1}}";
    for (const Histogram *hist : {&h, &merged}) {
        StatsRegistry r;
        r.add_histogram("lat", hist);
        EXPECT_EQ(r.dump_json(false), "{\"lat\": " + want + "}");
    }

    StatsRegistry r;
    Histogram empty;
    r.add_histogram("lat", &empty);
    EXPECT_EQ(r.dump_json(false),
              "{\"lat\": {\"count\": 0, \"sum\": 0, \"min\": 0, "
              "\"max\": 0, \"mean\": 0, \"buckets\": {}}}");
}

TEST(StatsRegistry, RuntimeRegistersAndUnregistersItsSubtree)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.memBytesPerCell = 1 << 20;
    hw::Machine m(cfg);

    bool seenWhileAlive = false;
    core::run_spmd(m, [&](core::Context &ctx) {
        {
            rt::Runtime rts(ctx);
            if (ctx.id() == 0)
                seenWhileAlive =
                    ctx.owner().stats_registry().find(
                        "cell0.rts.puts_issued") != nullptr;
            ctx.barrier();
        }
        ctx.barrier();
    });
    EXPECT_TRUE(seenWhileAlive);
    EXPECT_EQ(m.stats_registry().find("cell0.rts.puts_issued"),
              nullptr);
    EXPECT_EQ(m.stats_registry().find("cell1.rts.puts_issued"),
              nullptr);
}

namespace
{

/**
 * Rebuild @p reg path by path, in a seeded random order and with
 * every seventh path first registered with a stale value that the
 * second registration must replace, through the full-path
 * add_gauge/add_histogram calls; every listing and dump of the copy
 * must be byte-identical to the original.
 */
void
expect_matches_path_by_path_copy(const obs::StatsRegistry &reg,
                                 std::uint64_t seed)
{
    std::vector<std::string> paths = reg.paths();
    std::vector<std::string> sorted = paths;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()),
                 sorted.end());
    ASSERT_EQ(paths, sorted) << "paths() must be sorted and unique";
    ASSERT_EQ(reg.size(), paths.size());

    std::vector<std::string> order = paths;
    std::shuffle(order.begin(), order.end(), std::mt19937_64(seed));
    obs::StatsRegistry ref;
    for (std::size_t i = 0; i < order.size(); ++i) {
        const std::string &p = order[i];
        const obs::StatEntry *e = reg.find(p);
        ASSERT_NE(e, nullptr) << p;
        if (i % 7 == 0)
            ref.add_gauge(p, [] { return std::uint64_t{424242}; });
        if (e->kind == obs::StatKind::histogram)
            ref.add_histogram(p, e->hist);
        else
            ref.add_gauge(p, e->value);
    }
    EXPECT_EQ(ref.size(), reg.size());
    EXPECT_EQ(ref.paths(), paths);
    EXPECT_EQ(ref.snapshot(), reg.snapshot());
    EXPECT_EQ(ref.dump_json(), reg.dump_json());
    EXPECT_EQ(ref.dump_json(false, "sim."), reg.dump_json(false, "sim."));
    EXPECT_EQ(ref.dump_text(), reg.dump_text());
    for (const char *pat : {"*.msc.puts_sent", "*.rts.*", "cell10.*",
                            "serve.job.*.attempts", "*.*.*"}) {
        std::string whoA, whoB;
        EXPECT_EQ(ref.sum(pat), reg.sum(pat)) << pat;
        EXPECT_EQ(ref.max_over(pat, &whoA), reg.max_over(pat, &whoB))
            << pat;
        EXPECT_EQ(whoA, whoB) << pat;
    }
}

} // namespace

TEST(StatsRegistry, MachineRtsAndServeSubtreesMatchPathByPathCopy)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(64);
    cfg.retry.watchdogUs = 3000.0;
    hw::Machine m(cfg);
    const obs::StatsRegistry &reg = m.stats_registry();
    // Per-cell registration must produce the same paths as full ones.
    EXPECT_NE(reg.find("cell63.msc.user_queue.max_spill_depth"), nullptr);
    EXPECT_NE(reg.find("cell7.mmu.tlb_misses"), nullptr);
    EXPECT_EQ(reg.find("cell64.mmu.tlb_misses"), nullptr);
    EXPECT_EQ(reg.find("cell07.mmu.tlb_misses"), nullptr);

    // Machine + runtime subtrees, with some traffic behind them.
    bool compared = false;
    core::run_spmd(m, [&](core::Context &ctx) {
        rt::Runtime rts(ctx);
        Addr buf = ctx.alloc(256);
        Addr flag = ctx.alloc_flag();
        ctx.put((ctx.id() + 1) % ctx.nprocs(), buf, buf,
                static_cast<std::uint32_t>(8 * (ctx.id() % 5 + 1)),
                no_flag, flag);
        ctx.wait_flag(flag, 1);
        ctx.barrier();
        if (ctx.id() == 0) {
            EXPECT_NE(reg.find("cell42.rts.puts_issued"), nullptr);
            expect_matches_path_by_path_copy(reg, 1);
            compared = true;
        }
        ctx.barrier();
    });
    EXPECT_TRUE(compared);
    EXPECT_EQ(reg.find("cell42.rts.puts_issued"), nullptr);

    // Machine + serving subtrees, per-job paths included.
    serve::GangScheduler sched(m, serve::ServeConfig{});
    std::vector<serve::JobSpec> jobs;
    for (int id = 0; id < 3; ++id) {
        serve::JobSpec s;
        s.id = id;
        s.pw = 2;
        s.ph = 2;
        s.iters = 2;
        s.bytes = 256;
        s.computeUs = 20.0;
        s.arrivalUs = ticks_to_us(m.sim().now()) + 10.0 * (id + 1);
        s.seed = 7 + static_cast<std::uint64_t>(id);
        jobs.push_back(s);
    }
    sched.schedule_stream(jobs);
    m.run_to_completion();
    sched.finalize();
    EXPECT_NE(reg.find("serve.job.2.attempts"), nullptr);
    expect_matches_path_by_path_copy(reg, 2);
}

// ------------------------------------------------------------ debug flags

namespace
{

/** Restore a clean mask around every debug-flag test. */
struct MaskReset
{
    ~MaskReset() { set_debug_mask(0); }
};

} // namespace

TEST(DebugFlags, ParseAppliesAndRejects)
{
    MaskReset reset;
    set_debug_mask(0);
    EXPECT_FALSE(debug_enabled(Dbg::MSC));

    EXPECT_TRUE(parse_debug_flags("MSC,dma"));
    EXPECT_TRUE(debug_enabled(Dbg::MSC));
    EXPECT_TRUE(debug_enabled(Dbg::DMA));
    EXPECT_FALSE(debug_enabled(Dbg::TNet));

    std::string err;
    EXPECT_FALSE(parse_debug_flags("TNet,bogus", &err));
    EXPECT_NE(err.find("bogus"), std::string::npos);
    // Known names before the bad one still applied.
    EXPECT_TRUE(debug_enabled(Dbg::TNet));

    set_debug_mask(0);
    EXPECT_TRUE(parse_debug_flags("All"));
    for (Dbg f : all_debug_flags())
        EXPECT_TRUE(debug_enabled(f)) << to_string(f);
}

TEST(DebugFlags, ObsArgConsumption)
{
    MaskReset reset;
    ObsOptions opt;
    EXPECT_TRUE(consume_obs_arg("--stats-out=s.json", opt));
    EXPECT_TRUE(consume_obs_arg("--trace-out=t.json", opt));
    EXPECT_EQ(opt.statsOut, "s.json");
    EXPECT_EQ(opt.traceOut, "t.json");
    EXPECT_TRUE(opt.any());

    set_debug_mask(0);
    EXPECT_TRUE(consume_obs_arg("--debug-flags=Queue", opt));
    EXPECT_TRUE(debug_enabled(Dbg::Queue));

    EXPECT_FALSE(consume_obs_arg("--cells=4", opt));
    EXPECT_FALSE(consume_obs_arg("stray", opt));
}

// ----------------------------------------------------------------- tracer

TEST(Tracer, RingBoundsRetainedRecords)
{
    sim::Simulator s;
    Tracer tr(s, 8); // clamped to the 16-record minimum
    EXPECT_EQ(tr.capacity(), 16u);
    for (int i = 0; i < 20; ++i)
        tr.instant(0, "test", strprintf("ev%d", i));
    EXPECT_EQ(tr.size(), 16u);
    EXPECT_EQ(tr.dropped(), 4u);

    auto snap = tr.snapshot();
    ASSERT_EQ(snap.size(), 16u);
    // Oldest-first: the 4 oldest aged out.
    EXPECT_EQ(snap.front().name, "ev4");
    EXPECT_EQ(snap.back().name, "ev19");
}

TEST(Tracer, SpansCarrySimulatedTime)
{
    sim::Simulator s;
    Tracer tr(s, 64);
    s.schedule(us_to_ticks(5.0), [&] {
        tr.span(2, "test", "work", us_to_ticks(1.0));
        tr.instant(machine_track, "test", "mark");
    });
    s.run();

    auto snap = tr.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].ts, us_to_ticks(1.0));
    EXPECT_EQ(snap[0].dur, us_to_ticks(4.0));
    EXPECT_EQ(snap[0].track, 2);
    EXPECT_FALSE(snap[0].instant);
    EXPECT_TRUE(snap[1].instant);
    EXPECT_EQ(snap[1].track, machine_track);

    std::string err;
    EXPECT_TRUE(json_valid(tr.chrome_json(), &err)) << err;
}

TEST(Tracer, ChromeJsonWritesToDisk)
{
    sim::Simulator s;
    Tracer tr(s, 8);
    tr.span_at(0, "test", "a", 0, us_to_ticks(2.0));
    std::string path = testing::TempDir() + "ap_trace_rt.json";
    ASSERT_TRUE(tr.write_chrome_json(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    std::string err;
    EXPECT_TRUE(json_valid(ss.str(), &err)) << err;
    EXPECT_NE(ss.str().find("\"traceEvents\""), std::string::npos);
    std::remove(path.c_str());
}

// ----------------------------------------------- end-to-end PUT timeline

namespace
{

/** Names of interest of the PUT pipeline, in one filtered list. */
std::vector<std::string>
pipeline_names(const std::vector<TraceRecord> &recs)
{
    static const std::vector<std::string> interest = {
        "put",      "dma_send",       "flight:PUT",
        "dma_recv", "flag_increment", "wait_flag",
    };
    std::vector<std::string> out;
    for (const TraceRecord &r : recs)
        for (const std::string &n : interest)
            if (r.name == n)
                out.push_back(r.name);
    return out;
}

} // namespace

TEST(Tracer, TwoCellPutProducesThePipelineSpansInOrder)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.memBytesPerCell = 1 << 20;
    hw::Machine m(cfg);
    m.enable_tracing();

    auto r = core::run_spmd(m, [](core::Context &ctx) {
        Addr buf = ctx.alloc(64);
        Addr rf = ctx.alloc_flag();
        if (ctx.id() == 0)
            ctx.put(1, buf, buf, 64, no_flag, rf);
        if (ctx.id() == 1)
            ctx.wait_flag(rf, 1);
    });
    ASSERT_FALSE(r.deadlock);
    ASSERT_NE(m.tracer(), nullptr);

    // Golden recording order of one flagged PUT: the issuing MSC+
    // finishes its gather DMA, hands the message to the T-net (the
    // flight span is stamped at injection), closes the command span,
    // then the receiving MSC+ scatters it and raises the flag, and
    // the waiting processor's span closes last.
    std::vector<std::string> expect = {
        "dma_send",       "flight:PUT", "put",
        "dma_recv",       "flag_increment", "wait_flag",
    };
    EXPECT_EQ(pipeline_names(m.tracer()->snapshot()), expect);

    std::string err;
    EXPECT_TRUE(json_valid(m.tracer()->chrome_json(), &err)) << err;
}
