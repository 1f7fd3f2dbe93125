/**
 * @file
 * Packet-level model of VIP's on-chip network: an 8x4 2D torus of vault
 * routers with bidirectional 64-bit links (8 B/cycle => 10 GB/s at
 * 1.25 GHz) and 3 cycles of router+link latency per hop (Sec. V-A).
 *
 * Dimension-order (X then Y) routing with shortest-direction wraparound.
 * Contention is modelled at every traversed link, including the
 * injection and ejection ports, by per-link serialization: a packet of
 * S bytes occupies each link for ceil(S / 8) cycles.
 *
 * Intra-vault traffic (a PE talking to its own vault controller) uses
 * only the star's injection and ejection ports, never a torus link.
 *
 * Events are processed in a canonical total order — (cycle, node, lane
 * key) — so same-cycle events resolve the same way on every run. Each
 * in-flight packet has exactly one pending event, kept in a per-cycle
 * timing wheel (see TorusNoc's private section).
 */

#ifndef VIP_NOC_TORUS_HH
#define VIP_NOC_TORUS_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mem/request.hh"
#include "sim/clocked.hh"
#include "sim/histogram.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace vip {

class FaultInjector;

/** One message travelling between vault nodes. Move-only: it owns the
 *  memory request it carries. */
struct Packet
{
    unsigned src = 0;
    unsigned dst = 0;
    unsigned payloadBytes = 0;

    /**
     * Star-topology lane at each endpoint: lanes 0..3 are the four
     * PEs' private links to their vault router, lane 4 is the vault
     * controller's. Each lane is a separate physical link, so a PE's
     * injections never contend with its neighbors' (Sec. III-C).
     */
    unsigned srcLane = 4;
    unsigned dstLane = 4;

    /** Called at the cycle the packet is fully delivered at dst, with
     *  the packet already out of the NoC's slot table. */
    std::function<void(Packet &)> onArrive;

    /**
     * The request (or response) in flight. Travelling *inside* the
     * packet, instead of in a side table indexed by a slot captured in
     * onArrive, means it is freed with the packet if the machine is
     * torn down mid-flight.
     */
    std::unique_ptr<MemRequest> req;

    Cycles injectedAt = 0;
    Cycles deliveredAt = 0;

    /** Internal: set once the ejection port has been reserved. */
    bool ejected = false;

    /** Delivery attempts so far (> 0 after an injected drop/CRC
     *  failure forced a retransmission). Saturates rather than wraps
     *  so a forced-drop campaign cannot recycle attempt identities. */
    std::uint16_t attempts = 0;

    /**
     * Per-source-lane sequence number, assigned by send(). Stable
     * across retransmissions. Together with the source lane it forms
     * the packet's canonical identity (TorusNoc::laneKeyOf): the event
     * tie-break and the deterministic fault-injection key (a
     * deterministic wrap after 2^32 packets per lane keeps runs
     * reproducible).
     */
    std::uint32_t seq = 0;
};

class TorusNoc
{
  public:
    /** Per-hop router+link latency (cycles). */
    static constexpr Cycles kHopLatency = 3;
    /** Link width: 64 bit per direction per cycle. */
    static constexpr unsigned kBytesPerCycle = 8;
    /** Header overhead added to every packet's serialization. */
    static constexpr unsigned kHeaderBytes = 8;

    TorusNoc(unsigned xdim, unsigned ydim, StatGroup *parent = nullptr);

    unsigned numNodes() const { return xdim_ * ydim_; }
    unsigned nodeX(unsigned n) const { return n % xdim_; }
    unsigned nodeY(unsigned n) const { return n / xdim_; }
    unsigned nodeAt(unsigned x, unsigned y) const { return y * xdim_ + x; }

    /** Minimal hop count between two nodes on the torus. */
    unsigned hopCount(unsigned src, unsigned dst) const;

    /** Inject a packet at its source node at cycle @p now. */
    void send(Packet pkt, Cycles now);

    /** Deliver every packet whose arrival time has been reached. */
    void tick(Cycles now);

    /** The network is purely event-driven: its next state change is
     *  the earliest pending event. */
    Cycles
    nextEventAt(Cycles now) const
    {
        return std::max(next_, now);
    }

    bool idle() const { return inFlight() == 0; }

    /** Packets delivered so far. */
    std::uint64_t delivered() const { return statDelivered_.value(); }

    /** Packets currently in flight (injected, not yet delivered). */
    std::size_t
    inFlight() const
    {
        return packets_.size() - freeSlots_.size();
    }

    /**
     * Attach a fault injector: each packet reaching its ejection port
     * rolls for loss/corruption and, on a hit, is retransmitted from
     * its source injection link (link-level retry). Null detaches.
     */
    void setFaultInjector(FaultInjector *f) { injector_ = f; }

    /** Distribution of packet latencies (cycles). */
    const Histogram &latencyHistogram() const { return latencyHist_; }

    double
    avgLatency() const
    {
        const auto n = delivered();
        return n == 0 ? 0.0
                      : static_cast<double>(statLatency_.value()) /
                            static_cast<double>(n);
    }

    /** Star lanes per node: four PEs plus the vault controller. */
    static constexpr unsigned kLanes = 5;

    /** Canonical packet identity:
     *  (source lane id << 32) | per-lane sequence number. */
    std::uint64_t
    laneKeyOf(const Packet &pkt) const
    {
        return (static_cast<std::uint64_t>(pkt.src * kLanes +
                                           pkt.srcLane)
                << 32) |
               pkt.seq;
    }

  private:
    /** Link classes out of a router: four torus directions, then
     *  kLanes ejection and kLanes injection star links. */
    enum Port : unsigned
    {
        XPlus = 0,
        XMinus,
        YPlus,
        YMinus,
        EjectBase,                      // kLanes links
        InjectBase = EjectBase + kLanes, // kLanes links
        NumPorts = InjectBase + kLanes,
    };

    /**
     * A packet's one pending event: it reaches @c node at cycle @c at.
     * Kept per packet slot (parallel to packets_) and linked into the
     * wheel bucket of its cycle.
     */
    struct Pending
    {
        Cycles at;
        std::uint64_t laneKey;  ///< laneKeyOf() — canonical tie-break
        unsigned node;
        std::uint32_t next;     ///< next slot in the bucket, or kNil
    };

    /** One event of the cycle being drained, in canonical order. */
    struct Due
    {
        unsigned node;
        std::uint32_t slot;
        std::uint64_t laneKey;

        bool
        operator<(const Due &o) const
        {
            return node != o.node ? node < o.node : laneKey < o.laneKey;
        }
    };

    static constexpr std::uint32_t kNil = UINT32_MAX;
    static constexpr std::size_t kWheelBuckets = 64;

    std::size_t linkId(unsigned node, Port port) const
    {
        return node * NumPorts + port;
    }

    /** Next hop (node, port) toward dst using dimension-order routing. */
    std::pair<unsigned, Port> route(unsigned node, unsigned dst) const;

    /**
     * Occupy @p link from @p ready: returns the cycle the transfer
     * starts (>= ready) and bumps the link's next-free time.
     */
    Cycles occupy(std::size_t link, Cycles ready, unsigned bytes);

    std::size_t allocSlot(Packet pkt);

    /** Make @p slot's one pending event: reach @p node at @p at. */
    void schedule(std::size_t slot, unsigned node, Cycles at);

    /** Double the wheel and relink every pending event. */
    void growWheel();

    /** Cycle of the first occupied bucket after cursor_, or
     *  kIdleForever when nothing is pending. */
    Cycles firstPendingAfterCursor() const;

    void advance(std::size_t packet_index, unsigned node, Cycles now);

    unsigned xdim_;
    unsigned ydim_;

    /** Per-link next-free cycles, indexed node * NumPorts + port. */
    std::vector<Cycles> linkFreeAt_;

    /** Per-source-lane sequence counters (node * kLanes + lane). */
    std::vector<std::uint32_t> laneSeq_;

    /** In-flight packets by slot; delivered slots are reused. */
    std::vector<Packet> packets_;
    std::vector<std::size_t> freeSlots_;

    /**
     * The timing wheel. pending_[slot] is packets_[slot]'s event,
     * linked into bucket head_[at & (size - 1)], with one occupancy
     * bit per bucket. cursor_ is the last drained cycle, and every
     * pending event lies in (cursor_, cursor_ + size), so a bucket
     * holds events of one cycle only; a schedule past that window
     * doubles the wheel. next_ is the earliest pending cycle.
     */
    std::vector<Pending> pending_;
    std::vector<std::uint32_t> head_;
    std::vector<std::uint64_t> occupied_;
    std::vector<Due> batch_;  ///< reused per drained bucket
    Cycles cursor_ = 0;
    Cycles next_ = kIdleForever;

    FaultInjector *injector_ = nullptr;

    StatGroup statGroup_;
    Counter statDelivered_;
    Counter statBytes_;
    Counter statLatency_;
    Counter statHops_;
    Histogram latencyHist_;
};

} // namespace vip

#endif // VIP_NOC_TORUS_HH
