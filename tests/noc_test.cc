/**
 * @file
 * Unit tests for the 2D torus NoC: routing distances, the
 * 3-cycles-per-hop latency model, per-link serialization, contention,
 * wraparound, the intra-vault star lanes, and the canonical order in
 * which deliveries are made.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "noc/torus.hh"
#include "sim/fault.hh"

namespace vip {
namespace {

Cycles
deliverOne(TorusNoc &noc, unsigned src, unsigned dst, unsigned bytes,
           unsigned src_lane = 4, unsigned dst_lane = 4)
{
    Cycles delivered = 0;
    Packet p;
    p.src = src;
    p.dst = dst;
    p.payloadBytes = bytes;
    p.srcLane = src_lane;
    p.dstLane = dst_lane;
    p.onArrive = [&](Packet &pkt) { delivered = pkt.deliveredAt; };
    noc.send(std::move(p), 0);
    Cycles now = 0;
    while (delivered == 0 && now < 10000)
        noc.tick(now++);
    return delivered;
}

TEST(Torus, HopCountsWithWraparound)
{
    TorusNoc noc(8, 4);
    EXPECT_EQ(noc.hopCount(0, 0), 0u);
    EXPECT_EQ(noc.hopCount(0, 1), 1u);
    EXPECT_EQ(noc.hopCount(0, 7), 1u);   // x wraps: 7 is one hop left
    EXPECT_EQ(noc.hopCount(0, 4), 4u);   // halfway around the x ring
    EXPECT_EQ(noc.hopCount(0, 8), 1u);   // one hop in y
    EXPECT_EQ(noc.hopCount(0, 24), 1u);  // y wraps
    EXPECT_EQ(noc.hopCount(0, 12), 5u);  // 4 in x + 1 in y
    // Symmetry.
    for (unsigned a = 0; a < 32; a += 5) {
        for (unsigned b = 0; b < 32; b += 3)
            EXPECT_EQ(noc.hopCount(a, b), noc.hopCount(b, a));
    }
}

TEST(Torus, LatencyFormulaSinglePacket)
{
    TorusNoc noc(8, 4);
    // Latency = inject ser + hops * (3 + ser) + eject ser, with
    // ser = ceil((payload + 8) / 8).
    for (unsigned payload : {0u, 32u, 256u}) {
        const Cycles ser = (payload + 8 + 7) / 8;
        for (unsigned dst : {0u, 1u, 12u}) {
            TorusNoc fresh(8, 4);
            const unsigned hops = fresh.hopCount(0, dst);
            const Cycles want = ser + hops * (3 + ser) + ser;
            EXPECT_EQ(deliverOne(fresh, 0, dst, payload), want)
                << "payload " << payload << " dst " << dst;
        }
    }
}

TEST(Torus, ContentionSerializesSharedLinks)
{
    // Two same-size packets over the same route: the second's delivery
    // trails by at least one serialization unit.
    TorusNoc noc(8, 4);
    Cycles first = 0, second = 0;
    for (int i = 0; i < 2; ++i) {
        Packet p;
        p.src = 0;
        p.dst = 2;
        p.payloadBytes = 64;
        p.onArrive = [&, i](Packet &pkt) {
            (i == 0 ? first : second) = pkt.deliveredAt;
        };
        noc.send(std::move(p), 0);
    }
    Cycles now = 0;
    while (second == 0 && now < 10000)
        noc.tick(now++);
    const Cycles ser = (64 + 8) / 8;
    EXPECT_GE(second, first + ser);
}

TEST(Torus, StarLanesDoNotContend)
{
    // Packets injected by different PEs of the same vault use private
    // star links: both arrive with single-packet latency.
    TorusNoc noc(8, 4);
    Cycles t[2] = {0, 0};
    for (unsigned lane = 0; lane < 2; ++lane) {
        Packet p;
        p.src = 0;
        p.dst = 0;
        p.payloadBytes = 64;
        p.srcLane = lane;
        p.dstLane = 4;
        p.onArrive = [&, lane](Packet &pkt) {
            t[lane] = pkt.deliveredAt;
        };
        noc.send(std::move(p), 0);
    }
    Cycles now = 0;
    while ((t[0] == 0 || t[1] == 0) && now < 10000)
        noc.tick(now++);
    // Both share only the ejection lane (the vault controller's), so
    // the second trails by exactly one ejection serialization.
    const Cycles ser = (64 + 8) / 8;
    EXPECT_EQ(std::min(t[0], t[1]), 2 * ser);
    EXPECT_EQ(std::max(t[0], t[1]), 3 * ser);
}

TEST(Torus, ManyPacketsAllDelivered)
{
    TorusNoc noc(8, 4);
    unsigned delivered = 0;
    Cycles now = 0;
    for (unsigned src = 0; src < 32; ++src) {
        for (unsigned dst = 0; dst < 32; ++dst) {
            Packet p;
            p.src = src;
            p.dst = dst;
            p.payloadBytes = 32;
            p.onArrive = [&](Packet &) { ++delivered; };
            noc.send(std::move(p), now);
        }
    }
    while (!noc.idle() && now < 100000)
        noc.tick(now++);
    EXPECT_EQ(delivered, 32u * 32u);
    EXPECT_EQ(noc.delivered(), 32u * 32u);
    EXPECT_GT(noc.avgLatency(), 0.0);
}

TEST(Torus, DimensionOrderRoutingIsMinimal)
{
    // Every delivery time respects the minimal-hop lower bound.
    for (unsigned dst = 1; dst < 32; dst += 3) {
        TorusNoc noc(8, 4);
        const Cycles t = deliverOne(noc, 5, dst, 0);
        const Cycles ser = 1;
        EXPECT_GE(t, noc.hopCount(5, dst) * (3 + ser)) << dst;
    }
}

TEST(Torus, OnArriveMaySend)
{
    // Every delivery answers from inside its own onArrive with two
    // packets, and only then reads the packet it was handed and its
    // own captures. The in-flight set doubles each generation, so the
    // replies keep growing the NoC's slot table under the running
    // callback.
    constexpr unsigned kGenerations = 8;
    struct Echo
    {
        TorusNoc noc{8, 4};
        Cycles now = 0;
        std::vector<unsigned> arrivals = std::vector<unsigned>(
            kGenerations + 1, 0);
        std::uint64_t latency = 0;

        void
        send(unsigned src, unsigned dst, unsigned lane, unsigned gen)
        {
            Packet p;
            p.src = src;
            p.dst = dst;
            p.srcLane = lane;
            p.dstLane = lane;
            p.payloadBytes = 32;
            p.onArrive = [this, gen](Packet &pkt) {
                if (gen < kGenerations) {
                    for (unsigned k = 0; k < 2; ++k)
                        send(pkt.dst, (pkt.dst + 5 * k + 3) % 32, k,
                             gen + 1);
                }
                ++arrivals[gen];
                latency += pkt.deliveredAt - pkt.injectedAt;
            };
            noc.send(std::move(p), now);
        }
    };

    Echo e;
    e.send(0, 9, 0, 0);
    for (; !e.noc.idle() && e.now < 100'000; ++e.now)
        e.noc.tick(e.now);
    ASSERT_TRUE(e.noc.idle());
    for (unsigned gen = 0; gen <= kGenerations; ++gen)
        EXPECT_EQ(e.arrivals[gen], 1u << gen) << "generation " << gen;
    EXPECT_EQ(e.noc.delivered(), (2u << kGenerations) - 1);
    EXPECT_DOUBLE_EQ(static_cast<double>(e.latency) /
                         static_cast<double>(e.noc.delivered()),
                     e.noc.avgLatency());
}

/** splitmix64: the test's own deterministic stream and digest mixer
 *  (std::*_distribution is not specified bit-for-bit across
 *  standard libraries). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Drives one 8x4 torus and folds every delivery, in the order the NoC
 * makes it, into an order-sensitive digest of (tick cycle, src,
 * srcLane, seq, dst, deliveredAt, attempts).
 */
class DeliveryOrder
{
  public:
    TorusNoc noc{8, 4};
    Cycles now = 0;
    std::uint64_t digest = 0;
    std::uint64_t sent = 0;
    std::uint64_t seen = 0;

    explicit DeliveryOrder(std::uint64_t seed) : rng_(seed) {}

    std::uint64_t next() { return rng_ = mix64(rng_); }

    /** Send one packet at `now`; a packet marked @p reply is answered
     *  at the next cycle, as a vault answers a request on its own
     *  tick. */
    void
    send(unsigned src, unsigned dst, unsigned src_lane, unsigned dst_lane,
         unsigned bytes, bool reply = false)
    {
        Packet p;
        p.src = src;
        p.dst = dst;
        p.srcLane = src_lane;
        p.dstLane = dst_lane;
        p.payloadBytes = bytes;
        p.onArrive = [this, reply](Packet &pkt) {
            ++seen;
            for (std::uint64_t v :
                 {std::uint64_t{now}, std::uint64_t{pkt.src},
                  std::uint64_t{pkt.srcLane}, std::uint64_t{pkt.seq},
                  std::uint64_t{pkt.dst}, std::uint64_t{pkt.deliveredAt},
                  std::uint64_t{pkt.attempts}})
                digest = mix64(digest ^ v);
            if (reply)
                replies_.emplace_back(pkt);
        };
        noc.send(std::move(p), now);
        ++sent;
    }

    /** A random packet: any endpoints, lanes and a mixed payload; one
     *  in four asks for a reply. */
    void
    sendRandom()
    {
        static constexpr unsigned kPayloads[] = {0, 8, 32, 64, 256};
        const std::uint64_t r = next();
        send(r % 32, (r >> 8) % 32, (r >> 16) % TorusNoc::kLanes,
             (r >> 24) % TorusNoc::kLanes, kPayloads[(r >> 32) % 5],
             (r >> 40) % 4 == 0);
    }

    /** Advance one cycle, ticking the NoC only every @p every cycles. */
    void
    step(Cycles every = 1)
    {
        if (now % every == 0)
            noc.tick(now);
        ++now;
        std::vector<Reply> replies;
        replies.swap(replies_);
        for (const Reply &r : replies)
            send(r.dst, r.src, r.dstLane, r.srcLane, 64);
    }

    /** Uniform traffic: up to two random sends a cycle for @p cycles. */
    void
    uniform(Cycles cycles, Cycles every = 1)
    {
        for (Cycles c = 0; c < cycles; ++c) {
            for (std::uint64_t n = next() % 3; n > 0; --n)
                sendRandom();
            step(every);
        }
    }

    void
    drain(Cycles every = 1)
    {
        while ((!noc.idle() || !replies_.empty()) && now < 10'000'000)
            step(every);
    }

  private:
    struct Reply
    {
        unsigned src, dst, srcLane, dstLane;
        explicit Reply(const Packet &p)
            : src(p.src), dst(p.dst), srcLane(p.srcLane), dstLane(p.dstLane)
        {}
    };

    std::uint64_t rng_;
    std::vector<Reply> replies_;
};

/**
 * The NoC's delivery order, pinned: each scenario's digest equals the
 * value the binary-heap event queue produced before the timing wheel
 * replaced it. The order is (cycle, node, lane key) for every event,
 * so any queue that honours it reproduces these digests.
 */
TEST(Torus, DeliveryOrderIsPinned)
{
    struct Scenario
    {
        const char *name;
        std::uint64_t want;
        void (*run)(DeliveryOrder &);
    };
    const Scenario scenarios[] = {
        {"uniform", 0x667b1a3f98f4d4c0ULL,
         [](DeliveryOrder &t) {
             t.uniform(3000);
             t.drain();
         }},
        // Every node's four PE lanes send 256-byte packets to one
        // vault controller: the ejection backlog runs thousands of
        // cycles deep, so the event queue must hold events far ahead
        // while traffic keeps arriving.
        {"all_to_one", 0x74261a61522550b5ULL,
         [](DeliveryOrder &t) {
             for (unsigned src = 0; src < 32; ++src)
                 for (unsigned lane = 0; lane < 4; ++lane)
                     t.send(src, 0, lane, 4, 256);
             t.uniform(400);
             t.drain();
         }},
        // 100k cycles in which nobody ticks or sends.
        {"idle_gap", 0xd862ec0ff0f60759ULL,
         [](DeliveryOrder &t) {
             t.uniform(200);
             t.drain();
             t.now += 100'000;
             t.uniform(200);
             t.drain();
         }},
        {"tick_every_37", 0xa1a4a2d14e69780fULL,
         [](DeliveryOrder &t) {
             t.uniform(3000, 37);
             t.drain(37);
         }},
        {"faults", 0xb980bc3c52204a6aULL,
         [](DeliveryOrder &t) {
             FaultInjector faults(
                 FaultPlan::parse("seed=9,noc-drop=0.2,noc-corrupt=0.1"));
             t.noc.setFaultInjector(&faults);
             t.uniform(3000);
             t.drain();
             t.noc.setFaultInjector(nullptr);
         }},
    };
    for (const Scenario &s : scenarios) {
        DeliveryOrder t(7);
        s.run(t);
        EXPECT_TRUE(t.noc.idle()) << s.name;
        EXPECT_EQ(t.noc.delivered(), t.sent) << s.name;
        EXPECT_EQ(t.seen, t.sent) << s.name;
        EXPECT_EQ(t.digest, s.want)
            << s.name << ": 0x" << std::hex << t.digest;
    }
}

} // namespace
} // namespace vip
