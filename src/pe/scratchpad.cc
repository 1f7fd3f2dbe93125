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
Scratchpad::markReadyAt(SpAddr addr, unsigned bytes, Cycles at)
{
    vip_assert(addr + bytes <= kBytes, "scratchpad mark out of bounds");
    const SpAddr end = addr + bytes;
    for (SpAddr a = addr; a < end; a = segmentEnd(a, end)) {
        Cycles &block = blockMax_[a / kBlockBytes];
        block = std::max(block, at);
    }
    for (unsigned i = 0; i < bytes; ++i)
        readyAt_[addr + i] = std::max(readyAt_[addr + i], at);
}

void
Scratchpad::markReadyStream(SpAddr addr, unsigned bytes, Cycles base)
{
    vip_assert(addr + bytes <= kBytes, "scratchpad mark out of bounds");
    const SpAddr end = addr + bytes;
    for (SpAddr a = addr; a < end;) {
        const SpAddr seg_end = segmentEnd(a, end);
        // The segment's last byte is produced last.
        Cycles &block = blockMax_[a / kBlockBytes];
        block = std::max(block, base + (seg_end - 1 - addr) / 8);
        a = seg_end;
    }
    for (unsigned i = 0; i < bytes; ++i) {
        readyAt_[addr + i] = std::max(readyAt_[addr + i], base + i / 8);
    }
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
            for (; a < seg_end; ++a) {
                if (readyAt_[a] > base + (a - addr) / 8)
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
    Cycles latest = 0;
    for (unsigned i = 0; i < bytes; ++i)
        latest = std::max(latest, readyAt_[addr + i]);
    return latest;
}

} // namespace vip
