/**
 * @file
 * The PE's 4 KiB SRAM scratchpad (Sec. III-A/III-B).
 *
 * Eight 512x8-bit banks whose ports are swizzled into 64-bit accesses;
 * any byte address may start a vector, so there are no alignment
 * constraints. Two read ports and one write port are dedicated to the
 * vector pipeline and one read + one write port to the load-store unit,
 * so the two never conflict — we model each port's 8 B/cycle bandwidth
 * at the consuming unit instead of per-bank arbitration.
 *
 * Function and timing are split: data moves at issue time (program
 * order), while a parallel "ready-at" clock per byte records when the
 * value would really have been produced. Reading a byte before its
 * ready time is a *timing hazard*: real VIP hardware exposes vector
 * latency to the programmer (Sec. III-A), so well-scheduled code never
 * does this. The hazard checker lets tests prove our generated kernels
 * are correctly scheduled.
 *
 * Alongside the per-byte clock, each 64-byte block keeps the maximum
 * ready time of its bytes, so the hazard check skips every block that
 * was produced before the stream reaches it and runs the per-byte test
 * only where a hazard is possible.
 */

#ifndef VIP_PE_SCRATCHPAD_HH
#define VIP_PE_SCRATCHPAD_HH

#include <array>
#include <cstdint>
#include <cstring>

#include "sim/types.hh"

namespace vip {

class Scratchpad
{
  public:
    static constexpr unsigned kBytes = 4096;
    static constexpr unsigned kBanks = 8;
    static constexpr unsigned kBlockBytes = 64;  ///< ready-max granule

    void read(SpAddr addr, void *dst, unsigned bytes) const;
    void write(SpAddr addr, const void *src, unsigned bytes);

    /**
     * Raw pointer into the backing store at @p addr. The hot paths
     * (width-specialized vector kernels, zero-copy DMA) operate on the
     * bytes in place; callers are responsible for range-checking the
     * full access (the vector issue stage asserts operand ranges, the
     * DMA path asserts the transfer range) — this only checks the
     * start address.
     */
    std::uint8_t *
    bytePtr(SpAddr addr)
    {
        return data_.data() + addr;
    }

    const std::uint8_t *
    bytePtr(SpAddr addr) const
    {
        return data_.data() + addr;
    }

    template <typename T>
    T
    load(SpAddr addr) const
    {
        T v;
        read(addr, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    store(SpAddr addr, T v)
    {
        write(addr, &v, sizeof(T));
    }

    /** Record that [addr, addr+bytes) is produced at cycle @p at. */
    void markReadyAt(SpAddr addr, unsigned bytes, Cycles at);

    /**
     * Record a *streamed* write: byte j of the range is produced at
     * @p base + j/8 (the 64-bit datapath writes 8 bytes per cycle).
     * This is what makes classic vector chaining legal: a dependent
     * streamed read that starts late enough never observes a hazard.
     */
    void markReadyStream(SpAddr addr, unsigned bytes, Cycles base);

    /**
     * True if a streamed read of the range starting at cycle @p base
     * (byte j read at base + j/8) would observe any byte before its
     * ready time.
     */
    bool hazardousStreamRead(SpAddr addr, unsigned bytes,
                             Cycles base) const;

    /** Latest ready time over [addr, addr+bytes). */
    Cycles readyAt(SpAddr addr, unsigned bytes) const;

    /** True if reading [addr, addr+bytes) at @p now is a timing hazard. */
    bool
    hazardousRead(SpAddr addr, unsigned bytes, Cycles now) const
    {
        return readyAt(addr, bytes) > now;
    }

  private:
    std::array<std::uint8_t, kBytes> data_{};
    std::array<Cycles, kBytes> readyAt_{};
    /** Max of readyAt_ over each kBlockBytes-aligned block. Ready times
     *  only ever rise, so a running max is exact. */
    std::array<Cycles, kBytes / kBlockBytes> blockMax_{};
};

} // namespace vip

#endif // VIP_PE_SCRATCHPAD_HH
