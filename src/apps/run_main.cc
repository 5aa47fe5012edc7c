/**
 * @file
 * ap_run: the observability demo driver.
 *
 * Runs one SPMD program that touches every communication primitive of
 * the PUT/GET interface — PUT with flags, GET, stride PUT,
 * acknowledged PUT, SEND/RECEIVE, B-net broadcast, DSM remote
 * access, barrier and reductions — and then emits the machine's
 * telemetry: the text report, the stats-registry JSON
 * (`--stats-out=FILE`), and the Chrome trace_event timeline
 * (`--trace-out=FILE`, open in chrome://tracing or Perfetto).
 * `--faults=<plan>` replays the same program under an injected fault
 * plan so the timeline shows spills, flushes and dropped messages.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "core/ap1000p.hh"
#include "obs/cli.hh"
#include "obs/critpath.hh"
#include "obs/json.hh"
#include "obs/span.hh"
#include "sim/fault.hh"

using namespace ap;
using namespace ap::core;

namespace
{

sim::FaultPlan
plan_by_name(const std::string &name, std::uint64_t seed)
{
    if (name == "none")
        return sim::FaultPlan{};
    if (name == "drops")
        return sim::FaultPlan::drops(seed);
    if (name == "duplicates")
        return sim::FaultPlan::duplicates(seed);
    if (name == "reorders")
        return sim::FaultPlan::reorders(seed);
    if (name == "overflows")
        return sim::FaultPlan::overflows(seed);
    if (name == "pagefaults")
        return sim::FaultPlan::pageFaults(seed);
    if (name == "jitter")
        return sim::FaultPlan::jitter(seed);
    if (name == "lossy")
        return sim::FaultPlan::lossy(seed);
    if (name == "chaos")
        return sim::FaultPlan::chaos(seed);
    fatal("unknown fault plan '%s' (try none, drops, duplicates, "
          "reorders, overflows, pagefaults, jitter, lossy, chaos)",
          name.c_str());
}

void
usage(const char *prog)
{
    std::printf(
        "usage: %s [options]\n"
        "  --cells=N          machine size (default 16)\n"
        "  --faults=PLAN      none|drops|duplicates|reorders|\n"
        "                     overflows|pagefaults|jitter|lossy|chaos\n"
        "  --seed=N           fault-plan seed (default 1)\n"
        "  --reliable         reliable-delivery protocol layer on\n"
        "  --threads=N        event-kernel shards, one host thread\n"
        "                     each (default 1 = the sequential loop;\n"
        "                     N>1 shards the event queue per cell region)\n"
        "  --deterministic    with --threads>1: run events serially in\n"
        "                     the one-shard order, so the run is\n"
        "                     byte-identical to --threads=1\n"
        "  --kill=CELL@US     fail-stop CELL at US microseconds\n"
        "                     (survivors reconfigure; repeatable)\n"
        "  --stats-out=FILE   write the stats registry as JSON\n"
        "  --stats-text       print the flat stats table to stdout\n"
        "  --trace-out=FILE   write a Chrome trace_event timeline\n"
        "  --timeline-out=FILE  sample the stats registry on a\n"
        "                     model-time period, write the perf\n"
        "                     timeline JSON\n"
        "  --timeline-period-us=US  sampling period (default 20)\n"
        "  --profile          record full spans, print the\n"
        "                     critical-path latency breakdown\n"
        "  --profile-json=FILE  write the breakdown as JSON\n"
        "  --phase-stats      print per-phase stats-registry deltas\n"
        "  --flight-dump=FILE write the flight-recorder rings as\n"
        "                     Chrome trace JSON\n"
        "  --postmortem-out=FILE  on CommError, also dump the full\n"
        "                     flight rings there\n"
        "  --debug-flags=A,B  narrate categories to stderr "
        "(MSC,DMA,TNet,Fault,...)\n",
        prog);
}

/**
 * Per-phase stats snapshots (--phase-stats): cell 0 marks the
 * registry after every demo barrier, so each mark captures the whole
 * machine at a synchronization point.
 */
struct PhaseRecorder
{
    hw::Machine &machine;
    std::vector<std::pair<std::string, obs::StatsRegistry::Snapshot>>
        marks;

    void
    mark(const char *name)
    {
        marks.emplace_back(name,
                           machine.stats_registry().snapshot());
    }
};

/** Change between two snapshots (after - before). */
std::map<std::string, std::int64_t>
snapshot_diff(const obs::StatsRegistry::Snapshot &before,
              const obs::StatsRegistry::Snapshot &after)
{
    std::map<std::string, std::int64_t> d;
    for (const auto &[path, v] : after) {
        auto it = before.find(path);
        std::uint64_t was = it == before.end() ? 0 : it->second;
        d[path] = static_cast<std::int64_t>(v) -
                  static_cast<std::int64_t>(was);
    }
    return d;
}

/** The demo body: every primitive once, deterministic result. */
void
demo_body(Context &ctx, PhaseRecorder *phases)
{
    auto mark = [&](const char *name) {
        if (phases != nullptr && ctx.id() == 0)
            phases->mark(name);
    };
    int p = ctx.nprocs();
    CellId right = (ctx.id() + 1) % p;
    CellId left = (ctx.id() - 1 + p) % p;

    Addr buf = ctx.alloc(256);
    Addr landing = ctx.alloc(256);
    Addr flag = ctx.alloc_flag();

    for (int i = 0; i < 32; ++i)
        ctx.poke_f64(buf + static_cast<Addr>(i) * 8,
                     ctx.id() * 100.0 + i);

    // 1. PUT with a receive flag, ring pattern.
    ctx.put(right, landing, buf, 64, no_flag, flag);
    ctx.wait_flag(flag, 1);
    ctx.barrier();
    mark("put");

    // 2. GET from the left neighbour.
    Addr done = ctx.alloc_flag();
    ctx.get(left, buf, landing + 64, 64, no_flag, done);
    ctx.wait_flag(done, 1);
    ctx.barrier();
    mark("get");

    // 3. stride PUT (every other doubleword).
    net::StrideSpec spec{8, 8, 8};
    ctx.put_stride(right, landing + 128, buf, /*ack=*/false, no_flag,
                   flag, spec, spec);
    ctx.wait_flag(flag, 2);
    ctx.barrier();
    mark("stride_put");

    // 4. acknowledged PUT (Ack & Barrier completion).
    ctx.put(right, landing, buf, 32, no_flag, no_flag, /*ack=*/true);
    ctx.wait_all_acks();
    ctx.barrier();
    mark("ack_put");

    // 5. SEND/RECEIVE through the ring buffer.
    ctx.send(right, /*tag=*/7, buf, 48);
    ctx.recv(left, /*tag=*/7, landing, 48);
    ctx.barrier();
    mark("send_recv");

    // 6. B-net broadcast from cell 0.
    Addr bcast = ctx.alloc(64);
    Addr bflag = ctx.alloc_flag();
    if (ctx.id() == 0)
        for (int i = 0; i < 8; ++i)
            ctx.poke_f64(bcast + static_cast<Addr>(i) * 8, 42.0 + i);
    ctx.broadcast(0, bcast, 64, bflag);
    if (ctx.id() != 0)
        ctx.wait_flag(bflag, 1);
    ctx.barrier();
    mark("broadcast");

    // 7. DSM-style blocking remote access.
    ctx.write_remote(right, landing + 192, buf, 16);
    ctx.read_remote(left, buf, landing + 208, 16);
    ctx.barrier();
    mark("dsm");

    // 8. reductions: scalar over commregs, vector over ring buffers.
    double sum = ctx.allreduce(static_cast<double>(ctx.id()),
                               ReduceOp::sum);
    Addr vec = ctx.alloc(4 * 8);
    for (int i = 0; i < 4; ++i)
        ctx.poke_f64(vec + static_cast<Addr>(i) * 8,
                     static_cast<double>(ctx.id() + i));
    ctx.allreduce_vector(vec, 4, ReduceOp::max);
    ctx.barrier();
    mark("reduce");

    if (ctx.id() == 0)
        std::printf("[cell 0] allreduce(sum of ids) = %.0f "
                    "(expect %d), vector max[0] = %.0f\n",
                    sum, p * (p - 1) / 2, ctx.peek_f64(vec));
}

} // namespace

int
main(int argc, char **argv)
{
    int cells = 16;
    std::string faults = "none";
    std::uint64_t seed = 1;
    bool statsText = false;
    bool reliable = false;
    int threads = 1;
    bool deterministic = false;
    bool profile = false;
    bool phaseStats = false;
    std::string profileJson;
    std::string flightDump;
    std::string postmortemOut;
    std::vector<sim::FaultPlan::CellKill> kills;
    obs::ObsOptions obsOpts;

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (obs::consume_obs_arg(a, obsOpts))
            continue;
        if (std::strncmp(a, "--cells=", 8) == 0) {
            cells = std::atoi(a + 8);
        } else if (std::strncmp(a, "--faults=", 9) == 0) {
            faults = a + 9;
        } else if (std::strncmp(a, "--seed=", 7) == 0) {
            seed = std::strtoull(a + 7, nullptr, 10);
        } else if (std::strcmp(a, "--reliable") == 0) {
            reliable = true;
        } else if (std::strncmp(a, "--threads=", 10) == 0) {
            threads = std::atoi(a + 10);
        } else if (std::strcmp(a, "--deterministic") == 0) {
            deterministic = true;
        } else if (std::strncmp(a, "--kill=", 7) == 0) {
            sim::FaultPlan::CellKill k{};
            char *at = nullptr;
            k.cell = static_cast<CellId>(
                std::strtol(a + 7, &at, 10));
            if (at == nullptr || *at != '@')
                fatal("--kill wants CELL@US, got '%s'", a);
            k.atUs = std::strtod(at + 1, nullptr);
            kills.push_back(k);
        } else if (std::strcmp(a, "--stats-text") == 0) {
            statsText = true;
        } else if (std::strcmp(a, "--profile") == 0) {
            profile = true;
        } else if (std::strncmp(a, "--profile-json=", 15) == 0) {
            profileJson = a + 15;
            profile = true;
        } else if (std::strcmp(a, "--phase-stats") == 0) {
            phaseStats = true;
        } else if (std::strncmp(a, "--flight-dump=", 14) == 0) {
            flightDump = a + 14;
        } else if (std::strncmp(a, "--postmortem-out=", 17) == 0) {
            postmortemOut = a + 17;
        } else if (std::strcmp(a, "--help") == 0) {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            fatal("unknown argument '%s'", a);
        }
    }
    if (cells < 2)
        fatal("need at least 2 cells, got %d", cells);
    if (threads < 1)
        fatal("need at least 1 thread, got %d", threads);

    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(cells);
    cfg.memBytesPerCell = 1 << 20;
    cfg.faults = plan_by_name(faults, seed);
    cfg.faults.kills = kills;
    cfg.reliableNet = reliable;
    cfg.threads = threads;
    cfg.deterministic = deterministic;
    // A kill parks peers in waits that can never complete; the
    // watchdog converts those into typed errors with a wait graph.
    if (!kills.empty() && !cfg.retry.watchdog_enabled())
        cfg.retry.watchdogUs = 100000.0;
    if (profile)
        cfg.spanMode = obs::SpanMode::full;
    cfg.postmortemOut = postmortemOut;
    hw::Machine machine(cfg);
    if (!obsOpts.traceOut.empty())
        machine.enable_tracing();
    if (obsOpts.timeline_enabled())
        machine.enable_timeline(obsOpts.timelinePeriodUs);

    PhaseRecorder phases{machine, {}};
    obs::StatsRegistry::Snapshot startSnap =
        machine.stats_registry().snapshot();

    SpmdResult result = run_spmd(machine, [&](Context &ctx) {
        demo_body(ctx, phaseStats ? &phases : nullptr);
    });

    std::printf("%s", machine.report().c_str());
    if (machine.sim().shards() > 1)
        std::printf("%s", machine.sim().report().c_str());
    if (result.deadlock)
        std::printf("DEADLOCK: %zu cells stuck\n",
                    result.stuck.size());
    for (const std::string &e : result.errors)
        std::printf("comm error: %s\n", e.c_str());
    for (CellId c : result.failedCells)
        std::printf("cell %d failed (fault plan kill); survivors "
                    "ran degraded\n", c);

    if (statsText)
        std::printf("%s", machine.stats_text().c_str());
    if (!obsOpts.statsOut.empty()) {
        if (!machine.dump_stats(obsOpts.statsOut))
            fatal("cannot write stats to %s",
                  obsOpts.statsOut.c_str());
        std::printf("stats JSON written to %s\n",
                    obsOpts.statsOut.c_str());
    }
    if (!obsOpts.traceOut.empty()) {
        if (!machine.write_trace(obsOpts.traceOut))
            fatal("cannot write trace to %s",
                  obsOpts.traceOut.c_str());
        std::printf("Chrome trace written to %s (open in "
                    "chrome://tracing or ui.perfetto.dev)\n",
                    obsOpts.traceOut.c_str());
    }
    if (!obsOpts.timelineOut.empty()) {
        if (!machine.write_timeline(obsOpts.timelineOut))
            fatal("cannot write timeline to %s",
                  obsOpts.timelineOut.c_str());
        obs::TimelineSampler *tl = machine.timeline();
        std::printf("perf timeline written to %s (%llu samples, "
                    "%llu aged out)\n",
                    obsOpts.timelineOut.c_str(),
                    static_cast<unsigned long long>(tl->taken()),
                    static_cast<unsigned long long>(tl->dropped()));
    }
    if (!obsOpts.timelineCsv.empty()) {
        if (!machine.write_timeline_csv(obsOpts.timelineCsv))
            fatal("cannot write timeline CSV to %s",
                  obsOpts.timelineCsv.c_str());
        std::printf("perf timeline CSV written to %s\n",
                    obsOpts.timelineCsv.c_str());
    }

    if (phaseStats) {
        std::printf("== per-phase stats deltas ==\n");
        const obs::StatsRegistry::Snapshot *prev = &startSnap;
        for (const auto &[name, snap] : phases.marks) {
            std::printf("-- phase %s --\n%s", name.c_str(),
                        obs::StatsRegistry::delta_text(
                            snapshot_diff(*prev, snap), 12)
                            .c_str());
            prev = &snap;
        }
    }

    if (profile) {
        obs::CritPathReport rep =
            obs::analyze_spans(machine.spans().events());
        std::printf("%s", rep.text().c_str());
        if (!profileJson.empty()) {
            if (!obs::write_file(profileJson, rep.json()))
                fatal("cannot write profile to %s",
                      profileJson.c_str());
            std::printf("profile JSON written to %s\n",
                        profileJson.c_str());
        }
    }

    if (!flightDump.empty()) {
        if (!machine.dump_flight_recorder(flightDump))
            fatal("cannot write flight dump to %s",
                  flightDump.c_str());
        std::printf("flight recorder (%s) written to %s\n",
                    machine.flight_report().c_str(),
                    flightDump.c_str());
    }
    return result.failed() ? 1 : 0;
}
