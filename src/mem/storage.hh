/**
 * @file
 * Sparse functional backing store for the 8 GiB HMC DRAM.
 *
 * Timing (vault controllers) and function (this store) are separated, as
 * in DRAMSim2-style simulators: data moves when the corresponding column
 * access is serviced. Pages are allocated on first touch and zero-filled
 * so untouched DRAM reads as zero.
 *
 * The page table is a fixed two-level radix tree: a lookup is two
 * array indexings, and walking it visits pages in ascending order, so
 * no consumer can observe allocation order. Like the rest of the
 * machine, a store is confined to the thread running its system.
 */

#ifndef VIP_MEM_STORAGE_HH
#define VIP_MEM_STORAGE_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "sim/types.hh"

namespace vip {

class DramStorage
{
  public:
    static constexpr std::size_t kPageBytes = 4096;

    /** Bytes the page table reaches: 2^24 pages, 64 GiB. System
     *  config validation keeps every DRAM geometry inside it. */
    static constexpr std::uint64_t kSpanBytes = std::uint64_t{kPageBytes}
                                                << 24;

    DramStorage() = default;

    /** Copying or moving a machine-sized backing store is never
     *  meaningful. */
    DramStorage(const DramStorage &) = delete;
    DramStorage &operator=(const DramStorage &) = delete;

    void read(Addr addr, void *dst, std::size_t bytes) const;
    void write(Addr addr, const void *src, std::size_t bytes);

    /** Typed helpers for test and workload convenience. */
    template <typename T>
    T
    load(Addr addr) const
    {
        T v;
        read(addr, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    store(Addr addr, T v)
    {
        write(addr, &v, sizeof(T));
    }

    /**
     * Zero-copy DMA endpoints: move bytes directly between the DRAM
     * pages and an SRAM's backing store (anything exposing
     * bytePtr(addr)), skipping the per-instruction staging buffer the
     * generic read()/write() path would need. Templated so this layer
     * stays independent of the PE scratchpad type.
     */
    template <typename Sram>
    void
    copyTo(Addr addr, Sram &sram, std::uint32_t sram_addr,
           std::size_t bytes) const
    {
        read(addr, sram.bytePtr(sram_addr), bytes);
    }

    template <typename Sram>
    void
    copyFrom(Addr addr, const Sram &sram, std::uint32_t sram_addr,
             std::size_t bytes)
    {
        write(addr, sram.bytePtr(sram_addr), bytes);
    }

    /** Number of pages touched so far (footprint proxy). */
    std::size_t touchedPages() const { return touched_; }

    /**
     * Page numbers of every touched page, in ascending order — the
     * radix walk visits them that way by construction, so consumers
     * (stats, JSON, dumps) can never observe allocation order.
     */
    std::vector<Addr> touchedPageNumbers() const;

    /**
     * Digest of DRAM contents, computed over pages in ascending
     * page-number order. The per-page hashes are XOR-combined, so the
     * value is additionally order-independent by construction — belt
     * and braces. All-zero pages are ignored, so a page that was
     * touched but never written differs in nothing from an untouched
     * one — two runs of the same program are content-equal iff their
     * fingerprints match, regardless of which pages each happened to
     * allocate. Used by the fast-forward and fast-path equivalence
     * tests to assert architectural state is identical.
     */
    std::uint64_t fingerprint() const;

  private:
    /** 12 + 12 page-table bits over 4 KiB pages: a 64 GiB address
     *  span, far beyond the modelled 8 GiB stack, at 32 KiB per
     *  machine for the root and 32 KiB per lazily-built leaf. */
    static constexpr unsigned kLeafBits = 12;
    static constexpr unsigned kRootBits = 12;
    static constexpr std::size_t kLeafSlots = std::size_t{1} << kLeafBits;
    static constexpr std::size_t kRootSlots = std::size_t{1} << kRootBits;
    static_assert(kRootSlots * kLeafSlots * kPageBytes == kSpanBytes);

    struct Leaf
    {
        std::array<std::unique_ptr<std::uint8_t[]>, kLeafSlots> pages;
    };

    const std::uint8_t *pageFor(Addr addr) const;
    std::uint8_t *pageForWrite(Addr addr);

    std::array<std::unique_ptr<Leaf>, kRootSlots> root_;
    std::size_t touched_ = 0;
};

} // namespace vip

#endif // VIP_MEM_STORAGE_HH
