/**
 * @file
 * The complete HMC-like 3D-stacked memory: 32 vault controllers, a
 * shared functional backing store, and stack-level bandwidth statistics.
 */

#ifndef VIP_MEM_HMC_HH
#define VIP_MEM_HMC_HH

#include <algorithm>
#include <memory>
#include <vector>

#include "mem/addrmap.hh"
#include "mem/storage.hh"
#include "mem/vault.hh"
#include "sim/clocked.hh"
#include "sim/stats.hh"

namespace vip {

class HmcStack
{
  public:
    explicit HmcStack(const MemConfig &cfg, StatGroup *parent = nullptr);

    /** Route a transaction to its home vault, which takes it (see
     *  VaultController::enqueue). */
    void enqueue(std::unique_ptr<MemRequest> req);

    /** Which vault services @p addr under the configured mapping. */
    unsigned homeVault(Addr addr) const { return mapper_.decode(addr).vault; }

    void
    tick(Cycles now)
    {
        for (auto &v : vaults_)
            v->tick(now);
    }

    /** Earliest event over all vault controllers. */
    Cycles
    nextEventAt(Cycles now) const
    {
        Cycles next = kIdleForever;
        for (const auto &v : vaults_) {
            next = std::min(next, v->nextEventAt(now));
            if (next <= now)
                break;
        }
        return next;
    }

    bool idle() const;

    VaultController &vault(unsigned i) { return *vaults_.at(i); }
    const VaultController &vault(unsigned i) const { return *vaults_.at(i); }
    unsigned numVaults() const { return static_cast<unsigned>(vaults_.size()); }

    DramStorage &storage() { return storage_; }
    const DramStorage &storage() const { return storage_; }
    const AddressMapper &mapper() const { return mapper_; }
    const MemConfig &config() const { return cfg_; }
    StatGroup &stats() { return statGroup_; }

    /** Total DRAM bytes moved (both directions) across all vaults. */
    std::uint64_t totalBytesMoved() const;

  private:
    MemConfig cfg_;
    AddressMapper mapper_;
    DramStorage storage_;
    StatGroup statGroup_;
    std::vector<std::unique_ptr<VaultController>> vaults_;
};

} // namespace vip

#endif // VIP_MEM_HMC_HH
