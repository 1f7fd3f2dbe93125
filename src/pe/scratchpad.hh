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
 * The per-byte clock is 16 bits a byte: an offset from a floor, the
 * scratchpad's `floor_`, where 0 means "ready at or before the floor".
 * Every hazard query reads at or after the PE's current cycle, and the
 * floor only rises to a mark's issue cycle (never past it), so a byte
 * ready by the floor can never be hazardous and the offsets give every
 * answer a 64-bit clock would. A mark whose last ready time would not
 * fit above the floor raises the floor to its issue cycle and rebases
 * every offset by a saturating subtract. That fits as long as no ready
 * time leads its issue cycle by more than kMaxLead: a vector's
 * occupancy is at most one beat per scratchpad byte, and config
 * validation caps every pipeline stage count (PeConfig::kMaxStages).
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
#include <limits>

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

    /** Most cycles a marked ready time may lead its issue cycle. */
    static constexpr Cycles kMaxLead =
        std::numeric_limits<std::uint16_t>::max();

    /**
     * Record that [addr, addr+bytes) is produced at cycle @p at, by a
     * write issued at cycle @p issue. No later query may read before
     * @p issue, and @p at may lead it by at most kMaxLead.
     */
    void markReadyAt(SpAddr addr, unsigned bytes, Cycles at, Cycles issue);

    /**
     * Record a *streamed* write issued at cycle @p issue: byte j of the
     * range is produced at @p base + j/8 (the 64-bit datapath writes 8
     * bytes per cycle). This is what makes classic vector chaining
     * legal: a dependent streamed read that starts late enough never
     * observes a hazard. The same bounds as markReadyAt() hold.
     */
    void markReadyStream(SpAddr addr, unsigned bytes, Cycles base,
                         Cycles issue);

    /** A streamed write issued at its own @p base cycle. */
    void
    markReadyStream(SpAddr addr, unsigned bytes, Cycles base)
    {
        markReadyStream(addr, bytes, base, base);
    }

    /**
     * True if a streamed read of the range starting at cycle @p base
     * (byte j read at base + j/8) would observe any byte before its
     * ready time. @p base must be at or after floor().
     */
    bool hazardousStreamRead(SpAddr addr, unsigned bytes,
                             Cycles base) const;

    /** Latest ready time over [addr, addr+bytes), or floor() when every
     *  byte of the range was ready by it. */
    Cycles readyAt(SpAddr addr, unsigned bytes) const;

    /** True if reading [addr, addr+bytes) at @p now is a timing hazard.
     *  @p now must be at or after floor(). */
    bool
    hazardousRead(SpAddr addr, unsigned bytes, Cycles now) const
    {
        return readyAt(addr, bytes) > now;
    }

    /** Cycle every offset of the ready clock counts from. */
    Cycles floor() const { return floor_; }

  private:
    /** Make room for a mark issued at @p issue whose last ready time
     *  is @p last: check the lead and, when @p last does not fit above
     *  the floor, raise the floor to @p issue. */
    void
    fitMark(Cycles last, Cycles issue)
    {
        if (last > floor_ + kMaxLead || last > issue + kMaxLead)
            [[unlikely]] raiseFloor(last, issue);
    }

    /** fitMark()'s rare path, kept out of line. */
    void raiseFloor(Cycles last, Cycles issue);

    std::array<std::uint8_t, kBytes> data_{};
    /** Ready time of each byte, as an offset above floor_ (0: ready by
     *  the floor). */
    std::array<std::uint16_t, kBytes> ready_{};
    /** Max ready time over each kBlockBytes-aligned block, in absolute
     *  cycles. Ready times only ever rise, so a running max is exact. */
    std::array<Cycles, kBytes / kBlockBytes> blockMax_{};
    Cycles floor_ = 0;
};

// The ready clock is 2 bytes per scratchpad byte; keep it from growing
// back to the 8 a 64-bit clock took.
static_assert(sizeof(Scratchpad) <= 13 * 1024,
              "the scratchpad's ready clock grew");

} // namespace vip

#endif // VIP_PE_SCRATCHPAD_HH
