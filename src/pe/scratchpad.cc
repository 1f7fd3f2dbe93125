#include "pe/scratchpad.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace vip {

void
Scratchpad::read(SpAddr addr, void *dst, unsigned bytes) const
{
    vip_assert(addr + bytes <= kBytes, "scratchpad read [", addr, ", ",
               addr + bytes, ") out of bounds");
    std::memcpy(dst, data_.data() + addr, bytes);
}

void
Scratchpad::write(SpAddr addr, const void *src, unsigned bytes)
{
    vip_assert(addr + bytes <= kBytes, "scratchpad write [", addr, ", ",
               addr + bytes, ") out of bounds");
    std::memcpy(data_.data() + addr, src, bytes);
}

namespace {

/** End of the block-aligned segment of [a, end) that starts at @p a. */
SpAddr
segmentEnd(SpAddr a, SpAddr end)
{
    constexpr SpAddr kBlock = Scratchpad::kBlockBytes;
    return std::min<SpAddr>(end, (a / kBlock + 1) * kBlock);
}

} // namespace

void
Scratchpad::raiseFloor(Cycles last, Cycles issue)
{
    vip_assert(last <= issue + kMaxLead, "scratchpad ready time ", last,
               " leads its issue cycle ", issue, " by more than ",
               kMaxLead, " cycles");
    if (last <= floor_ + kMaxLead)
        return;
    // Here issue > floor_. No query reads before issue, so a byte
    // ready by then can never be hazardous: its offset saturates to 0.
    const Cycles rise = issue - floor_;
    for (std::uint16_t &r : ready_)
        r = r > rise ? static_cast<std::uint16_t>(r - rise) : 0;
    floor_ = issue;
}

void
Scratchpad::markReadyAt(SpAddr addr, unsigned bytes, Cycles at,
                        Cycles issue)
{
    vip_assert(addr + bytes <= kBytes, "scratchpad mark out of bounds");
    if (bytes == 0)
        return;
    fitMark(at, issue);
    const SpAddr end = addr + bytes;
    for (SpAddr a = addr; a < end; a = segmentEnd(a, end)) {
        Cycles &block = blockMax_[a / kBlockBytes];
        block = std::max(block, at);
    }
    const auto off =
        static_cast<std::uint16_t>(at > floor_ ? at - floor_ : 0);
    for (unsigned i = 0; i < bytes; ++i)
        ready_[addr + i] = std::max(ready_[addr + i], off);
}

void
Scratchpad::markReadyStream(SpAddr addr, unsigned bytes, Cycles base,
                            Cycles issue)
{
    vip_assert(addr + bytes <= kBytes, "scratchpad mark out of bounds");
    if (bytes == 0)
        return;
    fitMark(base + (bytes - 1) / 8, issue);
    const SpAddr end = addr + bytes;
    for (SpAddr a = addr; a < end;) {
        const SpAddr seg_end = segmentEnd(a, end);
        // The segment's last byte is produced last.
        Cycles &block = blockMax_[a / kBlockBytes];
        block = std::max(block, base + (seg_end - 1 - addr) / 8);
        a = seg_end;
    }
    // The 8 bytes of beat k share the offset base + k - floor_, or 0
    // (a no-op under max) where that is at or below the floor. Whole
    // beats run a fixed 8-wide max, which the compiler unrolls.
    const std::int64_t rel = static_cast<std::int64_t>(base) -
                             static_cast<std::int64_t>(floor_);
    std::uint16_t *r = ready_.data() + addr;
    auto beat = [rel](unsigned i) {
        return static_cast<std::uint16_t>(
            std::max<std::int64_t>(rel + i / 8, 0));
    };
    const unsigned whole = bytes / 8 * 8;
    for (unsigned i = 0; i < whole; i += 8) {
        const std::uint16_t o = beat(i);
        for (unsigned j = 0; j < 8; ++j)
            r[i + j] = std::max(r[i + j], o);
    }
    for (unsigned i = whole; i < bytes; ++i)
        r[i] = std::max(r[i], beat(i));
}

bool
Scratchpad::hazardousStreamRead(SpAddr addr, unsigned bytes,
                                Cycles base) const
{
    vip_assert(addr + bytes <= kBytes, "scratchpad query out of bounds");
    const SpAddr end = addr + bytes;
    for (SpAddr a = addr; a < end;) {
        const SpAddr seg_end = segmentEnd(a, end);
        // Byte i is read at base + i/8, so the segment's first byte
        // is read first: a block whose every byte is ready by then
        // cannot hold a hazard.
        if (blockMax_[a / kBlockBytes] > base + (a - addr) / 8) {
            // The offsets answer exactly only from the floor on.
            vip_assert(base >= floor_, "scratchpad query at cycle ", base,
                       " before its floor ", floor_);
            const Cycles rel = base - floor_;
            for (; a < seg_end; ++a) {
                if (ready_[a] > rel + (a - addr) / 8)
                    return true;
            }
        }
        a = seg_end;
    }
    return false;
}

Cycles
Scratchpad::readyAt(SpAddr addr, unsigned bytes) const
{
    vip_assert(addr + bytes <= kBytes, "scratchpad query out of bounds");
    std::uint16_t latest = 0;
    for (unsigned i = 0; i < bytes; ++i)
        latest = std::max(latest, ready_[addr + i]);
    return floor_ + latest;
}

} // namespace vip
