#include "system/system.hh"

#include <algorithm>
#include <sstream>

#include "sim/cancel.hh"
#include "sim/error.hh"
#include "sim/logging.hh"

namespace vip {

namespace {

/** Validation gate for the constructor's init list: members (the NoC,
 *  the vaults) must never see a bad config, even transiently. */
const SystemConfig &
validated(const SystemConfig &cfg)
{
    validateSystemConfig(cfg);
    return cfg;
}

/** Runs a callable when its scope ends, by return or by throw. */
template <typename F>
class ScopeExit
{
  public:
    explicit ScopeExit(F f) : f_(std::move(f)) {}
    ~ScopeExit() { f_(); }
    ScopeExit(const ScopeExit &) = delete;
    ScopeExit &operator=(const ScopeExit &) = delete;

  private:
    F f_;
};

} // namespace

VipSystem::VipSystem(const SystemConfig &cfg)
    : cfg_(validated(cfg)), statGroup_("system"),
      hmc_(cfg.mem, &statGroup_), noc_(cfg.nocX, cfg.nocY, &statGroup_),
      vaultDue_(cfg.mem.geom.vaults)
{
    const unsigned num_pes = cfg_.mem.geom.vaults * cfg_.pesPerVault;
    pes_.reserve(num_pes);
    peDue_.resize(num_pes);
    for (unsigned id = 0; id < num_pes; ++id) {
        PeConfig pe_cfg = cfg_.pe;
        pe_cfg.peId = id;
        pe_cfg.vault = id / cfg_.pesPerVault;
        pe_cfg.fastPath = cfg_.fastPath;
        // Half the watchdog period bounds a run-ahead window, so a
        // progress bump always lands inside every watchdog window and
        // a mega-loop issued ahead can't be mistaken for a hang.
        pe_cfg.fastPathChunk =
            std::min<Cycles>(pe_cfg.fastPathChunk,
                             std::max<Cycles>(1, cfg_.watchdogCycles / 2));
        const unsigned src_vault = pe_cfg.vault;
        pes_.push_back(std::make_unique<Pe>(
            pe_cfg, hmc_.storage(), hmc_.mapper(),
            [this, src_vault](std::unique_ptr<MemRequest> req) {
                routeRequest(std::move(req), src_vault);
            },
            &statGroup_));
    }

    for (unsigned v = 0; v < cfg_.mem.geom.vaults; ++v) {
        hmc_.vault(v).setCompletionHandler(
            [this, v](std::unique_ptr<MemRequest> req) {
                onVaultComplete(v, std::move(req));
            });
    }

    if (cfg_.faults.enabled) {
        injector_ = std::make_unique<FaultInjector>(cfg_.faults);
        injector_->bindStorage([this](Addr addr, unsigned bit) {
            DramStorage &storage = hmc_.storage();
            const auto byte = storage.load<std::uint8_t>(addr);
            storage.store<std::uint8_t>(
                addr, byte ^ static_cast<std::uint8_t>(1u << bit));
        });
        noc_.setFaultInjector(injector_.get());
        for (unsigned v = 0; v < cfg_.mem.geom.vaults; ++v)
            hmc_.vault(v).setFaultInjector(injector_.get());
        for (auto &pe : pes_)
            pe->setFaultInjector(injector_.get());
    }
}

void
VipSystem::routeRequest(std::unique_ptr<MemRequest> req, unsigned src_vault)
{
    const unsigned home = hmc_.homeVault(req->addr);
    Packet pkt;
    pkt.src = src_vault;
    pkt.dst = home;
    pkt.srcLane = req->sourcePe % cfg_.pesPerVault;  // the PE's star link
    pkt.dstLane = TorusNoc::kLanes - 1;              // vault controller
    // A write carries its data; a read request is command-only (the
    // 8-byte NoC header covers the address/command fields).
    pkt.payloadBytes = req->isWrite ? req->bytes : 0;
    pkt.req = std::move(req);
    pkt.onArrive = [this](Packet &p) {
        deliverToVault(p.dst, std::move(p.req));
    };
    noc_.send(std::move(pkt), now_);
    noteSend();
}

void
VipSystem::deliverToVault(unsigned vault, std::unique_ptr<MemRequest> req)
{
    hmc_.vault(vault).enqueue(std::move(req));
    // Wake point: the vault has new work. The NoC delivers ahead of
    // the vault phase, so the vault ticks (and re-reports) in this
    // same cycle.
    vaultDue_[vault] = 0;
}

void
VipSystem::onVaultComplete(unsigned vault, std::unique_ptr<MemRequest> req)
{
    Packet pkt;
    pkt.src = vault;
    pkt.dst = vaultOf(req->sourcePe);
    pkt.srcLane = TorusNoc::kLanes - 1;
    pkt.dstLane = req->sourcePe % cfg_.pesPerVault;
    pkt.payloadBytes = req->isWrite ? 0 : req->bytes;
    pkt.req = std::move(req);
    pkt.onArrive = [this](Packet &p) {
        std::unique_ptr<MemRequest> owned = std::move(p.req);
        owned->completedAt = p.deliveredAt;
        // Wake point: the completion may break the PE's stall, and the
        // PE phase of this cycle is still ahead.
        peDue_[owned->sourcePe] = 0;
        if (owned->onComplete)
            owned->onComplete(*owned);
        // The issuer is done with the descriptor; recycle pooled ones.
        if (owned->pool)
            owned->pool->release(std::move(owned));
    };
    noc_.send(std::move(pkt), now_);
    noteSend();
}

void
VipSystem::noteSend()
{
    // Wake point: the packet's first event may come before the NoC's
    // cached due cycle.
    nocDue_ = std::min(nocDue_, noc_.nextEventAt(now_));
}

void
VipSystem::tick()
{
    // The machine's tick order: network deliveries first (they may
    // complete PE transactions and hand requests to vaults), then the
    // vault controllers, then the PE front ends.
    noc_.tick(now_);
    hmc_.tick(now_);
    for (auto &pe : pes_)
        pe->tick(now_);
    ++now_;
}

Cycles
VipSystem::tickDue()
{
    // tick()'s order, skipping the NoC and every vault and PE whose
    // cached due cycle lies ahead, and folding the refreshed entries
    // into the warp horizon as it goes. A PE or vault woken by a
    // delivery the NoC makes here has had its entry lowered to 0.
    const Cycles next = now_ + 1;
    if (nocDue_ <= now_) {
        noc_.tick(now_);
        // Covers retransmits the fault model queued inside the tick.
        nocDue_ = noc_.nextEventAt(next);
    }

    Cycles horizon = kIdleForever;
    for (unsigned v = 0; v < vaultDue_.size(); ++v) {
        if (vaultDue_[v] <= now_) {
            VaultController &vault = hmc_.vault(v);
            vault.tick(now_);
            vaultDue_[v] = vault.nextEventAt(next);
        }
        horizon = std::min(horizon, vaultDue_[v]);
    }

    for (unsigned p = 0; p < peDue_.size(); ++p) {
        if (peDue_[p] <= now_) {
            Pe &pe = *pes_[p];
            pe.tick(now_);
            peDue_[p] = pe.nextEventAt(next);
        }
        horizon = std::min(horizon, peDue_[p]);
    }

    now_ = next;
    return std::min(horizon, nocDue_);
}

void
VipSystem::refreshDue()
{
    nocDue_ = noc_.nextEventAt(now_);
    for (unsigned v = 0; v < vaultDue_.size(); ++v)
        vaultDue_[v] = hmc_.vault(v).nextEventAt(now_);
    for (unsigned p = 0; p < peDue_.size(); ++p)
        peDue_[p] = pes_[p]->nextEventAt(now_);
}

bool
VipSystem::allIdle() const
{
    for (const auto &pe : pes_) {
        if (!pe->idle())
            return false;
    }
    return hmc_.idle() && noc_.idle();
}

Cycles
VipSystem::run(Cycles max_cycles, const CancelToken *cancel)
{
    vip_assert(!running_.exchange(true, std::memory_order_acquire),
               "VipSystem::run() entered concurrently; a system must "
               "be confined to one caller at a time (one system per "
               "sweep job)");
    // Every exit releases the machine: a return, a deadlock or cancel
    // throw, or a ProgramError out of a PE's tick.
    const ScopeExit release(
        [this] { running_.store(false, std::memory_order_release); });
    // Saturate: a budget that reaches past the end of time means "no
    // limit", not a deadline that wrapped around behind now().
    const Cycles deadline =
        max_cycles == 0 || max_cycles > ~Cycles{0} - now_
            ? ~Cycles{0}
            : now_ + max_cycles;
    // Run-ahead must not issue past the budget: a run cut mid-loop has
    // to leave the same architectural state as a cycle-by-cycle run
    // would.
    for (auto &pe : pes_)
        pe->setRunDeadline(deadline);

    // With fast-forward on, PEs skipped by tickDue() (and every PE
    // over a warp) owe stall cycles; charge them on every exit so the
    // statistics are whole when the caller reads them.
    const ScopeExit settle([this] {
        for (auto &pe : pes_)
            pe->settle(now_);
    });

    std::uint64_t last_progress = ~std::uint64_t{0};
    Cycles last_check = now_;
    Cycles next_cancel_poll = now_ + kCancelPollCycles;

    auto progress = [this]() {
        std::uint64_t p = noc_.delivered();
        for (const auto &pe : pes_)
            p += pe->stats().instructions.value();
        return p;
    };

    // Host calls since the last run (setReg, loadProgram, tick())
    // bypass the wake points, so start from fresh entries.
    if (cfg_.fastForward)
        refreshDue();

    bool idle = allIdle();
    while (now_ < deadline && !idle) {
        Cycles horizon = now_;
        if (cfg_.fastForward)
            horizon = tickDue();
        else
            tick();
        if (cancel && now_ >= next_cancel_poll) {
            // Cooperative stop point: a fast-forward warp below can
            // jump now_ far past the cadence mark, so the poll also
            // lands right after every warp. shouldStop() reads the
            // host clock only here, never per tick.
            next_cancel_poll = now_ + kCancelPollCycles;
            if (cancel->shouldStop())
                cancel->check();  // throws Timeout/CancelledError
        }
        if (now_ - last_check >= cfg_.watchdogCycles) {
            const std::uint64_t p = progress();
            if (p == last_progress) {
                // Genuine deadlock. Diagnose rather than die: a sweep
                // harness marks this one point failed (carrying the
                // report) and the rest of the campaign completes.
                throw DeadlockError("system deadlocked at cycle " +
                                        std::to_string(now_),
                                    deadlockDiagnosis());
            }
            last_progress = p;
            last_check = now_;
        }
        idle = allIdle();
        if (!cfg_.fastForward || idle)
            continue;

        // Event-horizon warp: every cycle in [now_, horizon) is dead —
        // ticking through it would change nothing but the PE stall
        // counters, which each PE charges at its next tick or settle.
        // Clamp to the deadline and to the cycle where the watchdog
        // would next look, so both fire at exactly the same now_ as an
        // unwarped run.
        Cycles target = std::min(horizon, deadline);
        target = std::min(target, last_check + cfg_.watchdogCycles - 1);
        if (target > now_) {
            ff_.skippedCycles += target - now_;
            ff_.warps += 1;
            now_ = target;
        }
    }
    return now_;
}

std::string
VipSystem::deadlockDiagnosis() const
{
    // Keep reports readable on the full 128-PE machine: list the
    // first few stuck components per class and summarize the rest.
    constexpr unsigned kMaxLines = 16;

    std::ostringstream os;
    os << "no progress for " << cfg_.watchdogCycles
       << " cycles; machine state at cycle " << now_ << ":";

    unsigned stuck = 0, shown = 0;
    for (unsigned i = 0; i < numPes(); ++i) {
        const Pe &pe = *pes_[i];
        if (pe.idle())
            continue;
        ++stuck;
        if (shown >= kMaxLines)
            continue;
        ++shown;
        os << "\n  pe" << i << " (vault " << vaultOf(i)
           << "): pc=" << pe.pc();
        if (const Instruction *inst = pe.currentInstruction())
            os << " '" << disassemble(*inst) << "'";
        os << " stall=" << pe.stallReason()
           << " lsq=" << pe.lsqOutstanding();
    }
    if (stuck > shown)
        os << "\n  ... and " << stuck - shown << " more stuck PEs";

    stuck = shown = 0;
    for (unsigned v = 0; v < hmc_.numVaults(); ++v) {
        const unsigned queued = hmc_.vault(v).pendingTransactions();
        const std::size_t waiting = hmc_.vault(v).backlog();
        if (queued == 0 && waiting == 0)
            continue;
        ++stuck;
        if (shown >= kMaxLines)
            continue;
        ++shown;
        os << "\n  vault" << v << ": queued=" << queued
           << " ingress=" << waiting;
        const Cycles at = hmc_.vault(v).nextCompletionAt();
        if (at != kIdleForever)
            os << " nextCompletionAt=" << at;
    }
    if (stuck > shown)
        os << "\n  ... and " << stuck - shown << " more busy vaults";

    os << "\n  noc: in-flight=" << noc_.inFlight()
       << " delivered=" << noc_.delivered();
    if (injector_) {
        const FaultStats f = injector_->stats();
        os << "\n  faults: nocDropped=" << f.nocDropped
           << " nocCorrupted=" << f.nocCorrupted
           << " retransmits=" << f.nocRetransmits;
        // Sorted view, so the diagnosis is byte-stable run to run.
        const auto flips = injector_->outstandingFlips();
        if (!flips.empty()) {
            os << "\n  outstanding flips:";
            constexpr std::size_t kMaxFlips = 8;
            for (std::size_t i = 0;
                 i < flips.size() && i < kMaxFlips; ++i) {
                os << " 0x" << std::hex << flips[i].first << ":"
                   << flips[i].second << std::dec;
            }
            if (flips.size() > kMaxFlips)
                os << " ... and " << flips.size() - kMaxFlips << " more";
        }
    }
    return os.str();
}

double
VipSystem::achievedBandwidthGBs() const
{
    if (now_ == 0)
        return 0.0;
    const double seconds = static_cast<double>(now_) * kSecondsPerCycle;
    return static_cast<double>(hmc_.totalBytesMoved()) / seconds / 1e9;
}

std::uint64_t
VipSystem::totalVectorOps() const
{
    std::uint64_t total = 0;
    for (const auto &pe : pes_)
        total += pe->vectorOps();
    return total;
}

double
VipSystem::achievedGops() const
{
    if (now_ == 0)
        return 0.0;
    const double seconds = static_cast<double>(now_) * kSecondsPerCycle;
    return static_cast<double>(totalVectorOps()) / seconds / 1e9;
}

} // namespace vip
