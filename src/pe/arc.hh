/**
 * @file
 * Array range check (ARC): the associative array that detects hazards
 * between in-flight DRAM->scratchpad loads and later instructions
 * (Sec. III-B).
 *
 * An entry holding [start, end) is created when a ld.sram issues and
 * cleared when the load's data has been written to the scratchpad. Any
 * instruction whose scratchpad operands overlap a live entry must stall
 * in the issue stage. The paper's table has twenty entries (more would
 * strain the 0.8 ns cycle); the size is a constructor parameter here so
 * the ablation bench can sweep it. Issue also stalls when a new load
 * finds the table full.
 *
 * The paper notes the ARC could additionally interlock the vector
 * pipeline's own output ranges, freeing the programmer from latency
 * scheduling at the cost of a bigger table and more lookups; the PE
 * model exposes that option (PeConfig::arcCoversVector) and the
 * ablation bench measures it.
 */

#ifndef VIP_PE_ARC_HH
#define VIP_PE_ARC_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace vip {

class ArcTable
{
  public:
    /** The paper's synthesized configuration. */
    static constexpr unsigned kEntries = 20;

    explicit ArcTable(unsigned entries = kEntries);

    /** Allocate an entry for [start, end). Returns the entry id, or -1
     *  when the table is full (issue must stall). */
    int allocate(SpAddr start, SpAddr end);

    /** Clear entry @p id when its load completes. */
    void clear(int id);

    /** True if [start, end) overlaps any live entry. Scans only the
     *  live ranges, so an empty table costs one compare. */
    bool
    overlaps(SpAddr start, SpAddr end) const
    {
        for (const Live &e : live_) {
            if (start < e.end && e.start < end)
                return true;
        }
        return false;
    }

    bool full() const { return live_.size() == posOf_.size(); }
    unsigned liveCount() const
    {
        return static_cast<unsigned>(live_.size());
    }
    unsigned capacity() const
    {
        return static_cast<unsigned>(posOf_.size());
    }

  private:
    struct Live
    {
        SpAddr start;
        SpAddr end;
        int id;
    };

    /**
     * The live entries, packed in no particular order: clear() moves
     * the last one into the hole. posOf_ maps an entry id to its
     * position (-1 while the entry is free), so ids stay the lowest
     * free slot index allocate() has always handed out.
     */
    std::vector<Live> live_;
    std::vector<int> posOf_;
};

} // namespace vip

#endif // VIP_PE_ARC_HH
