/**
 * @file
 * Physical address decomposition for the HMC stack.
 *
 * The paper indexes vaults with the most-significant bits
 * (vault-row-bank-col) so that each PE's working set stays in its local
 * vault; the stock HMC scheme puts the vault index in the low bits for
 * maximal interleave. Both are supported (Fig. 5 / Sec. III-C).
 */

#ifndef VIP_MEM_ADDRMAP_HH
#define VIP_MEM_ADDRMAP_HH

#include <cstdint>

#include "mem/timing.hh"
#include "sim/types.hh"

namespace vip {

/** The DRAM coordinates a physical address decomposes into. */
struct DramCoord
{
    unsigned vault;
    unsigned bank;
    std::uint64_t row;
    unsigned col;       ///< column index within the row
    unsigned offset;    ///< byte offset within the column

    bool
    operator==(const DramCoord &o) const
    {
        return vault == o.vault && bank == o.bank && row == o.row &&
               col == o.col && offset == o.offset;
    }
};

/** Decodes/encodes addresses under a given geometry and mapping scheme. */
class AddressMapper
{
  public:
    AddressMapper(const DramGeometry &geom, AddrMap map)
        : geom_(geom), map_(map)
    {}

    /** Decompose a physical byte address. */
    DramCoord decode(Addr addr) const;

    /**
     * Coordinates of the first byte of the column after @p c's: the
     * same as decode() of that address, with no division. A request
     * walks its columns this way.
     */
    DramCoord
    nextColumn(DramCoord c) const
    {
        // Increment the column-granular address, carrying through the
        // fields in the mapping's order (least significant first).
        c.offset = 0;
        if (map_ == AddrMap::VaultRowBankCol) {
            if (++c.col < geom_.colsPerRow())
                return c;
            c.col = 0;
            if (++c.bank < geom_.banksPerVault)
                return c;
            c.bank = 0;
            if (++c.row < geom_.rowsPerBank)
                return c;
            c.row = 0;
            ++c.vault;
        } else {
            if (++c.vault < geom_.vaults)
                return c;
            c.vault = 0;
            if (++c.col < geom_.colsPerRow())
                return c;
            c.col = 0;
            if (++c.bank < geom_.banksPerVault)
                return c;
            c.bank = 0;
            ++c.row;
        }
        return c;
    }

    /** Recompose DRAM coordinates into a physical byte address. */
    Addr encode(const DramCoord &c) const;

    /**
     * First byte address of vault @p vault under the current mapping.
     * With the vault-high mapping this yields a contiguous
     * bytesPerVault() region local to that vault.
     */
    Addr vaultBase(unsigned vault) const;

    const DramGeometry &geometry() const { return geom_; }
    AddrMap scheme() const { return map_; }

  private:
    DramGeometry geom_;
    AddrMap map_;
};

} // namespace vip

#endif // VIP_MEM_ADDRMAP_HH
