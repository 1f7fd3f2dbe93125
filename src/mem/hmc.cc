#include "mem/hmc.hh"

#include "sim/logging.hh"

namespace vip {

HmcStack::HmcStack(const MemConfig &cfg, StatGroup *parent)
    : cfg_(cfg), mapper_(cfg.geom, cfg.addrMap), statGroup_("hmc", parent)
{
    vaults_.reserve(cfg.geom.vaults);
    for (unsigned v = 0; v < cfg.geom.vaults; ++v) {
        vaults_.push_back(std::make_unique<VaultController>(
            v, cfg_, mapper_, &statGroup_));
    }
}

void
HmcStack::enqueue(std::unique_ptr<MemRequest> req)
{
    const unsigned home = homeVault(req->addr);
    const unsigned tail_vault = homeVault(req->addr + req->bytes - 1);
    vip_assert(home == tail_vault,
               "request spans vaults ", home, " and ", tail_vault,
               "; the issuer must split at vault boundaries");
    vaults_[home]->enqueue(std::move(req));
}

bool
HmcStack::idle() const
{
    for (const auto &v : vaults_) {
        if (!v->idle())
            return false;
    }
    return true;
}

std::uint64_t
HmcStack::totalBytesMoved() const
{
    std::uint64_t total = 0;
    for (const auto &v : vaults_) {
        total += v->stats().readBytes.value();
        total += v->stats().writeBytes.value();
    }
    return total;
}

} // namespace vip
