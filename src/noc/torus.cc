#include "noc/torus.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/fault.hh"
#include "sim/logging.hh"

namespace vip {

TorusNoc::TorusNoc(unsigned xdim, unsigned ydim, StatGroup *parent)
    : xdim_(xdim), ydim_(ydim),
      linkFreeAt_(static_cast<std::size_t>(xdim) * ydim * NumPorts, 0),
      laneSeq_(static_cast<std::size_t>(xdim) * ydim * kLanes, 0),
      head_(kWheelBuckets, kNil), occupied_(kWheelBuckets / 64, 0),
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
    vip_assert(packets_.size() < kNil, "too many packets in flight");
    packets_.push_back(std::move(pkt));
    pending_.emplace_back();
    return packets_.size() - 1;
}

void
TorusNoc::schedule(std::size_t slot, unsigned node, Cycles at)
{
    // Every hop, ejection, delivery and retransmit pays at least one
    // cycle of serialization, so nothing lands in the bucket being
    // drained.
    vip_assert(at > cursor_, "NoC event at cycle ", at,
               " is not after the last drained cycle ", cursor_);
    while (at - cursor_ >= head_.size())
        growWheel();
    const std::size_t b = at & (head_.size() - 1);
    pending_[slot] = {at, laneKeyOf(packets_[slot]), node, head_[b]};
    head_[b] = static_cast<std::uint32_t>(slot);
    occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
    next_ = std::min(next_, at);
}

void
TorusNoc::growWheel()
{
    const std::vector<std::uint32_t> old = std::move(head_);
    head_.assign(old.size() * 2, kNil);
    occupied_.assign(head_.size() / 64, 0);
    for (std::uint32_t slot : old) {
        while (slot != kNil) {
            Pending &p = pending_[slot];
            const std::uint32_t rest = p.next;
            const std::size_t b = p.at & (head_.size() - 1);
            p.next = head_[b];
            head_[b] = slot;
            occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
            slot = rest;
        }
    }
}

Cycles
TorusNoc::firstPendingAfterCursor() const
{
    // Scan the occupancy words circularly from cursor_ + 1's bucket.
    // The first word's bits below that bucket are the window's far
    // end; the last pass re-reads the whole word to reach them.
    const std::size_t mask = head_.size() - 1;
    const std::size_t words = occupied_.size();
    const std::size_t start = (cursor_ + 1) & mask;
    std::size_t w = start / 64;
    std::uint64_t bits =
        occupied_[w] & (~std::uint64_t{0} << (start % 64));
    for (std::size_t scanned = 0; bits == 0; bits = occupied_[w]) {
        if (++scanned > words)
            return kIdleForever;
        w = (w + 1) & (words - 1);
    }
    const std::size_t b = w * 64 + std::countr_zero(bits);
    return cursor_ + 1 + ((b - start) & mask);
}

void
TorusNoc::send(Packet pkt, Cycles now)
{
    vip_assert(pkt.src < numNodes() && pkt.dst < numNodes(),
               "packet endpoints out of range");
    vip_assert(pkt.srcLane < kLanes && pkt.dstLane < kLanes,
               "bad star lane");
    pkt.injectedAt = now;
    // An empty network has no window to keep: an idle gap must not
    // grow the wheel.
    if (inFlight() == 0)
        cursor_ = std::max(cursor_, now);
    pkt.seq = laneSeq_[pkt.src * kLanes + pkt.srcLane]++;

    const std::size_t slot = allocSlot(std::move(pkt));
    Packet &p = packets_[slot];

    const unsigned bytes = p.payloadBytes + kHeaderBytes;
    const Cycles start = occupy(
        linkId(p.src, static_cast<Port>(InjectBase + p.srcLane)), now,
        bytes);
    const Cycles ser = (bytes + kBytesPerCycle - 1) / kBytesPerCycle;
    schedule(slot, p.src, start + ser);
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
                schedule(packet_index, pkt.src, start + ser);
                return;
            }
            // Reserve the ejection port; deliver when the tail clears it.
            const Cycles start = occupy(
                linkId(node, static_cast<Port>(EjectBase + pkt.dstLane)),
                now, bytes);
            pkt.ejected = true;
            pkt.deliveredAt = start + ser;
            schedule(packet_index, node, pkt.deliveredAt);
            return;
        }
        const Cycles latency = pkt.deliveredAt - pkt.injectedAt;
        statDelivered_ += 1;
        statBytes_ += pkt.payloadBytes;
        statLatency_ += latency;
        latencyHist_.sample(latency);
        // Free the slot before the callback runs: onArrive may send(),
        // which can reuse the slot or grow packets_ under it.
        Packet arrived = std::move(pkt);
        freeSlots_.push_back(packet_index);
        if (arrived.onArrive)
            arrived.onArrive(arrived);
        return;
    }

    const auto [next, port] = route(node, pkt.dst);
    const Cycles start = occupy(linkId(node, port), now, bytes);
    statHops_ += 1;
    schedule(packet_index, next, start + kHopLatency + ser);
}

void
TorusNoc::tick(Cycles now)
{
    while (next_ <= now) {
        // Drain one cycle's bucket in the canonical (node, lane key)
        // order. Its events schedule only later cycles, which may
        // lower next_ again.
        const Cycles at = next_;
        cursor_ = at;
        const std::size_t b = at & (head_.size() - 1);
        for (std::uint32_t slot = head_[b]; slot != kNil;
             slot = pending_[slot].next)
            batch_.push_back(
                {pending_[slot].node, slot, pending_[slot].laneKey});
        head_[b] = kNil;
        occupied_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
        next_ = firstPendingAfterCursor();
        std::sort(batch_.begin(), batch_.end());
        for (const Due &d : batch_)
            advance(d.slot, d.node, at);
        batch_.clear();
    }
    // Every cycle up to now is drained.
    cursor_ = std::max(cursor_, now);
}

} // namespace vip
