#include "noc/torus.hh"

#include <algorithm>
#include <utility>

#include "sim/fault.hh"
#include "sim/logging.hh"

namespace vip {

TorusNoc::TorusNoc(unsigned xdim, unsigned ydim, StatGroup *parent)
    : xdim_(xdim), ydim_(ydim),
      linkFreeAt_(static_cast<std::size_t>(xdim) * ydim * NumPorts, 0),
      laneSeq_(static_cast<std::size_t>(xdim) * ydim * kLanes, 0),
      statGroup_("noc", parent),
      statDelivered_(&statGroup_, "delivered", "packets delivered"),
      statBytes_(&statGroup_, "bytes", "payload bytes delivered"),
      statLatency_(&statGroup_, "latency_total",
                   "sum of packet latencies (cycles)"),
      statHops_(&statGroup_, "hops_total", "torus hops traversed")
{
    vip_assert(xdim_ > 0 && ydim_ > 0, "degenerate torus");
}

unsigned
TorusNoc::hopCount(unsigned src, unsigned dst) const
{
    auto ringDist = [](unsigned a, unsigned b, unsigned dim) {
        const unsigned fwd = (b + dim - a) % dim;
        return std::min(fwd, dim - fwd);
    };
    return ringDist(nodeX(src), nodeX(dst), xdim_) +
           ringDist(nodeY(src), nodeY(dst), ydim_);
}

std::pair<unsigned, TorusNoc::Port>
TorusNoc::route(unsigned node, unsigned dst) const
{
    const unsigned x = nodeX(node), y = nodeY(node);
    const unsigned dx = nodeX(dst), dy = nodeY(dst);

    if (x != dx) {
        const unsigned fwd = (dx + xdim_ - x) % xdim_;
        const bool plus = fwd <= xdim_ - fwd;
        const unsigned nx = plus ? (x + 1) % xdim_ : (x + xdim_ - 1) % xdim_;
        return {nodeAt(nx, y), plus ? XPlus : XMinus};
    }
    vip_assert(y != dy, "route() called at destination");
    const unsigned fwd = (dy + ydim_ - y) % ydim_;
    const bool plus = fwd <= ydim_ - fwd;
    const unsigned ny = plus ? (y + 1) % ydim_ : (y + ydim_ - 1) % ydim_;
    return {nodeAt(x, ny), plus ? YPlus : YMinus};
}

Cycles
TorusNoc::occupy(std::size_t link, Cycles ready, unsigned bytes)
{
    const Cycles start = std::max(ready, linkFreeAt_[link]);
    const Cycles ser = (bytes + kBytesPerCycle - 1) / kBytesPerCycle;
    linkFreeAt_[link] = start + ser;
    return start;
}

std::size_t
TorusNoc::allocSlot(Packet pkt)
{
    if (!freeSlots_.empty()) {
        const std::size_t slot = freeSlots_.back();
        freeSlots_.pop_back();
        packets_[slot] = std::move(pkt);
        return slot;
    }
    packets_.push_back(std::move(pkt));
    return packets_.size() - 1;
}

void
TorusNoc::send(Packet pkt, Cycles now)
{
    vip_assert(pkt.src < numNodes() && pkt.dst < numNodes(),
               "packet endpoints out of range");
    vip_assert(pkt.srcLane < kLanes && pkt.dstLane < kLanes,
               "bad star lane");
    pkt.injectedAt = now;
    pkt.seq = laneSeq_[pkt.src * kLanes + pkt.srcLane]++;

    const std::size_t slot = allocSlot(std::move(pkt));
    Packet &p = packets_[slot];

    const unsigned bytes = p.payloadBytes + kHeaderBytes;
    const Cycles start = occupy(
        linkId(p.src, static_cast<Port>(InjectBase + p.srcLane)), now,
        bytes);
    const Cycles ser = (bytes + kBytesPerCycle - 1) / kBytesPerCycle;
    events_.push({start + ser, slot, p.src, laneKeyOf(p)});
}

void
TorusNoc::advance(std::size_t packet_index, unsigned node, Cycles now)
{
    Packet &pkt = packets_[packet_index];
    const unsigned bytes = pkt.payloadBytes + kHeaderBytes;
    const Cycles ser = (bytes + kBytesPerCycle - 1) / kBytesPerCycle;

    if (node == pkt.dst) {
        if (!pkt.ejected) {
            if (injector_ &&
                injector_->onNocArrival(laneKeyOf(pkt), pkt.attempts) !=
                    FaultInjector::NocVerdict::Deliver) {
                // Lost at the ejection port (dropped flit or link CRC
                // failure): the link-level retry re-injects the whole
                // packet from its source, re-paying serialization on
                // the injection link and every hop. injectedAt is
                // preserved so latency statistics absorb the retry.
                if (pkt.attempts < UINT16_MAX)
                    ++pkt.attempts;
                const Cycles start = occupy(
                    linkId(pkt.src,
                           static_cast<Port>(InjectBase + pkt.srcLane)),
                    now, bytes);
                events_.push(
                    {start + ser, packet_index, pkt.src, laneKeyOf(pkt)});
                return;
            }
            // Reserve the ejection port; deliver when the tail clears it.
            const Cycles start = occupy(
                linkId(node, static_cast<Port>(EjectBase + pkt.dstLane)),
                now, bytes);
            pkt.ejected = true;
            pkt.deliveredAt = start + ser;
            events_.push(
                {pkt.deliveredAt, packet_index, node, laneKeyOf(pkt)});
            return;
        }
        const Cycles latency = pkt.deliveredAt - pkt.injectedAt;
        statDelivered_ += 1;
        statBytes_ += pkt.payloadBytes;
        statLatency_ += latency;
        latencyHist_.sample(latency);
        if (pkt.onArrive)
            pkt.onArrive(pkt);
        freeSlots_.push_back(packet_index);
        return;
    }

    const auto [next, port] = route(node, pkt.dst);
    const Cycles start = occupy(linkId(node, port), now, bytes);
    statHops_ += 1;
    events_.push(
        {start + kHopLatency + ser, packet_index, next, laneKeyOf(pkt)});
}

void
TorusNoc::tick(Cycles now)
{
    while (!events_.empty() && events_.top().at <= now) {
        const Event ev = events_.top();
        events_.pop();
        advance(ev.packetIndex, ev.node, ev.at);
    }
}

Cycles
TorusNoc::nextEventAt(Cycles now) const
{
    if (events_.empty())
        return kIdleForever;
    return std::max(events_.top().at, now);
}

bool
TorusNoc::idle() const
{
    return events_.empty();
}

} // namespace vip
