/**
 * @file
 * T-net transport tests: the MLSim latency formula, per-pair FIFO
 * ordering (the property the GET-as-ack trick needs), statistics, and
 * the optional link-contention extension.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "base/random.hh"
#include "mlsim/costmodel.hh"
#include "net/tnet.hh"
#include "sim/eventq.hh"
#include "sim/fault.hh"

using namespace ap;
using namespace ap::net;

namespace
{

const mlsim::Params kCost = mlsim::Params::ap1000_plus();

Message
mk(CellId src, CellId dst, std::size_t bytes)
{
    Message m;
    m.kind = MsgKind::put_data;
    m.src = src;
    m.dst = dst;
    m.payload.assign(bytes, 0xab);
    return m;
}

} // namespace

TEST(Tnet, LatencyFollowsTheModel)
{
    sim::Simulator sim;
    mlsim::Params p = kCost;
    p.network_prolog_time = 0.16;
    p.network_delay_time = 0.16;
    p.network_msg_time = 0.04;
    p.network_epilog_time = 0.0;
    Tnet net(sim, Torus(4, 4), p);

    // distance(0, 1) = 1 hop; 100-byte wire message.
    Tick lat = net.latency(0, 1, 100);
    EXPECT_EQ(lat, us_to_ticks(0.16 + 0.16 * 1 + 0.04 * 100));

    // distance(0, 10) = 4 hops.
    Tick lat4 = net.latency(0, 10, 100);
    EXPECT_EQ(lat4, us_to_ticks(0.16 + 0.16 * 4 + 0.04 * 100));
}

TEST(Tnet, LatencyIsTheCostModelNetworkTime)
{
    // The transit formula lives in mlsim::CostModel::network alone:
    // the T-net's latency is that time rounded to ticks, for any
    // table, distance and size.
    mlsim::Params offGrid = kCost;
    offGrid.network_prolog_time = 0.37;
    offGrid.network_delay_time = 0.0123456;
    offGrid.network_msg_time = 4e-05;
    offGrid.network_epilog_time = 1.5;
    for (const mlsim::Params &p :
         {kCost, mlsim::Params::ap1000(), offGrid}) {
        sim::Simulator sim;
        Tnet net(sim, Torus(8, 8), p);
        mlsim::CostModel model(p);
        for (CellId dst = 0; dst < 64; dst += 3)
            for (std::uint64_t bytes :
                 {0ull, 1ull, 32ull, 100ull, 4096ull, 65536ull})
                EXPECT_EQ(net.latency(0, dst, bytes),
                          us_to_ticks(model.network(
                              Torus(8, 8).distance(0, dst), bytes)))
                    << "dst " << dst << " bytes " << bytes;
    }
}

TEST(Tnet, DeliversToAttachedHandler)
{
    sim::Simulator sim;
    Tnet net(sim, Torus(2, 2), kCost);
    std::vector<Message> got;
    for (CellId c = 0; c < 4; ++c)
        net.attach(c, [&](Message m) { got.push_back(std::move(m)); });

    net.send(mk(0, 3, 64));
    sim.run();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].src, 0);
    EXPECT_EQ(got[0].dst, 3);
    EXPECT_EQ(got[0].payload.size(), 64u);
}

TEST(Tnet, PerPairFifoEvenWhenSizesInvert)
{
    // A big message injected first must not be overtaken by a small
    // one on the same pair — static routing passes messages in order.
    sim::Simulator sim;
    Tnet net(sim, Torus(4, 1), kCost);
    std::vector<std::size_t> sizes;
    for (CellId c = 0; c < 4; ++c)
        net.attach(c,
                   [&](Message m) { sizes.push_back(m.payload.size()); });

    net.send(mk(0, 2, 100000)); // slow
    net.send(mk(0, 2, 4));      // would overtake with pure latency
    sim.run();
    ASSERT_EQ(sizes.size(), 2u);
    EXPECT_EQ(sizes[0], 100000u);
    EXPECT_EQ(sizes[1], 4u);
}

TEST(Tnet, ArrivedTrafficLeavesNoStaleClamp)
{
    // Once a pair's earlier message has arrived it can no longer
    // clamp: a later small message pays pure latency, whether it is
    // injected well after that arrival or exactly at its tick.
    sim::Simulator sim;
    Tnet net(sim, Torus(4, 1), kCost);
    for (CellId c = 0; c < 4; ++c)
        net.attach(c, [](Message) {});

    Tick big = net.send(mk(0, 2, 100000));
    Tick pure = net.latency(0, 2, mk(0, 2, 4).wire_bytes());
    Tick atArrival = 0, later = 0;
    sim.schedule(big, [&]() { atArrival = net.send(mk(0, 2, 4)); });
    sim.schedule(big + us_to_ticks(50.0),
                 [&]() { later = net.send(mk(0, 2, 4)); });
    sim.run();
    EXPECT_EQ(atArrival, big + pure);
    EXPECT_EQ(later, big + us_to_ticks(50.0) + pure);
}

TEST(Tnet, InterleavedDestinationsKeepPerPairFifo)
{
    // One source alternating destinations: 0->1 (slow), 0->2, 0->1.
    // The second 0->1 message is clamped behind the first, and the
    // 0->2 message in between neither clamps nor is clamped.
    sim::Simulator sim;
    Tnet net(sim, Torus(4, 1), kCost);
    std::vector<std::pair<CellId, std::size_t>> got;
    for (CellId c = 0; c < 4; ++c)
        net.attach(c, [&, c](Message m) {
            got.emplace_back(c, m.payload.size());
        });

    Tick slow = net.send(mk(0, 1, 100000));
    Tick mid = net.send(mk(0, 2, 8));
    Tick fast = net.send(mk(0, 1, 4));
    EXPECT_EQ(mid, net.latency(0, 2, mk(0, 2, 8).wire_bytes()));
    EXPECT_EQ(fast, slow); // clamped to its predecessor's arrival
    sim.run();
    std::vector<std::pair<CellId, std::size_t>> want = {
        {2, 8}, {1, 100000}, {1, 4}};
    EXPECT_EQ(got, want);
}

TEST(Tnet, JitterNeverReordersAPair)
{
    // Latency jitter is applied before the FIFO clamp: under a jitter
    // plan, every pair still delivers in injection order, while the
    // jitter itself is visible in the arrival times.
    sim::Simulator sim;
    Tnet net(sim, Torus(4, 2), kCost);
    sim::FaultInjector faults(sim::FaultPlan::jitter(17, 20.0));
    net.set_fault_injector(&faults);
    const int cells = 8;
    // next[src][dst]: the sequence number the pair expects next.
    std::vector<std::vector<std::uint8_t>> next(
        cells, std::vector<std::uint8_t>(cells, 0));
    int delivered = 0;
    for (CellId c = 0; c < cells; ++c)
        net.attach(c, [&, c](Message m) {
            EXPECT_EQ(m.payload[0], next[m.src][c]++)
                << m.src << " -> " << c;
            ++delivered;
        });

    Random rng(5);
    std::vector<std::vector<std::uint8_t>> sent(
        cells, std::vector<std::uint8_t>(cells, 0));
    int total = 0;
    for (int round = 0; round < 40; ++round) {
        Tick at = us_to_ticks(0.5 * round);
        for (int k = 0; k < 8; ++k) {
            auto src = static_cast<CellId>(rng.below(cells));
            auto dst = static_cast<CellId>(rng.below(cells));
            std::uint8_t seqNo = sent[src][dst]++;
            sim.schedule(at, [&net, src, dst, seqNo]() {
                Message m = mk(src, dst, 1 + seqNo % 3 * 500);
                m.payload[0] = seqNo;
                net.send(std::move(m));
            });
            ++total;
        }
    }
    sim.run();
    EXPECT_EQ(delivered, total);
    EXPECT_GT(faults.stats().jitteredEvents, 0u);
}

TEST(Tnet, DifferentPairsMayOvertake)
{
    sim::Simulator sim;
    Tnet net(sim, Torus(4, 1), kCost);
    std::vector<CellId> arrivals;
    for (CellId c = 0; c < 4; ++c)
        net.attach(c, [&, c](Message) { arrivals.push_back(c); });

    net.send(mk(0, 2, 100000)); // slow, to cell 2
    net.send(mk(0, 1, 4));      // fast, to cell 1
    sim.run();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[0], 1);
    EXPECT_EQ(arrivals[1], 2);
}

TEST(Tnet, StatsAccumulate)
{
    sim::Simulator sim;
    Tnet net(sim, Torus(4, 4), kCost);
    for (CellId c = 0; c < 16; ++c)
        net.attach(c, [](Message) {});

    net.send(mk(0, 1, 100));
    net.send(mk(0, 10, 200));
    sim.run();

    EXPECT_EQ(net.stats().messages, 2u);
    EXPECT_EQ(net.stats().payloadBytes, 300u);
    EXPECT_EQ(net.stats().wireBytes,
              300u + 2 * Message::header_bytes);
    EXPECT_EQ(net.stats().distance.scalar().count(), 2u);
    EXPECT_DOUBLE_EQ(net.stats().distance.scalar().mean(), 2.5);
}

TEST(Tnet, SelfSendStillWorks)
{
    sim::Simulator sim;
    Tnet net(sim, Torus(2, 2), kCost);
    bool got = false;
    for (CellId c = 0; c < 4; ++c)
        net.attach(c, [&](Message) { got = true; });
    net.send(mk(1, 1, 8));
    sim.run();
    EXPECT_TRUE(got);
}

TEST(TnetContention, SharedLinkSerializes)
{
    // Two messages crossing the same directed link back-to-back must
    // arrive strictly later than either alone.
    mlsim::Params p = kCost;
    p.network_msg_time = 0.04;

    sim::Simulator sim1;
    Tnet solo(sim1, Torus(4, 1), p, /*linkContention=*/true);
    Tick solo_arrival = 0;
    for (CellId c = 0; c < 4; ++c)
        solo.attach(c, [](Message) {});
    solo_arrival = solo.send(mk(0, 2, 10000));

    sim::Simulator sim2;
    Tnet busy(sim2, Torus(4, 1), p, /*linkContention=*/true);
    for (CellId c = 0; c < 4; ++c)
        busy.attach(c, [](Message) {});
    busy.send(mk(0, 2, 10000));
    Tick second = busy.send(mk(0, 2, 10000));
    EXPECT_GT(second, solo_arrival);
    // Roughly doubled: the second waits out the first's body.
    EXPECT_GE(second, 2 * solo_arrival - us_to_ticks(1.0));
}

TEST(TnetContention, DisjointPathsDoNotSerialize)
{
    sim::Simulator sim;
    Tnet net(sim, Torus(4, 1), kCost, /*linkContention=*/true);
    for (CellId c = 0; c < 4; ++c)
        net.attach(c, [](Message) {});
    Tick a = net.send(mk(0, 1, 10000));  // link 0->1
    Tick b = net.send(mk(2, 3, 10000));  // link 2->3
    EXPECT_EQ(a, b);
}
