/**
 * @file
 * VipSystem: the complete simulated machine (Fig. 1).
 *
 * 32 HMC vaults in an 8x4 grid connected by a 2D torus, four PEs per
 * vault attached to the vault router in a star, and a global 1.25 GHz
 * clock. The system owns the request/response plumbing: a PE's memory
 * transaction travels to its home vault over the NoC (injection port,
 * torus hops if remote, ejection port), queues at the vault, is
 * serviced by the DRAM model, and a response travels back before the
 * PE observes completion.
 */

#ifndef VIP_SYSTEM_SYSTEM_HH
#define VIP_SYSTEM_SYSTEM_HH

#include <atomic>
#include <deque>
#include <memory>
#include <vector>

#include "mem/hmc.hh"
#include "noc/torus.hh"
#include "pe/pe.hh"
#include "sim/clocked.hh"
#include "sim/fault.hh"
#include "sim/stats.hh"

namespace vip {

class CancelToken;
class Json;

/** Full-machine configuration (defaults = the paper's system). */
struct SystemConfig
{
    MemConfig mem;
    unsigned pesPerVault = 4;
    unsigned nocX = 8;
    unsigned nocY = 4;

    /** Template for every PE (id/vault fields are filled per PE). */
    PeConfig pe;

    /** Give up if the machine makes no progress for this many cycles. */
    Cycles watchdogCycles = 2'000'000;

    /**
     * Warp over cycles in which no component can change state (see
     * sim/clocked.hh). Exact by construction — every statistic and
     * every byte of architectural state matches a cycle-by-cycle run —
     * but can be disabled (--no-fast-forward) to test exactly that.
     */
    bool fastForward = true;

    /**
     * Read by nothing. Kept only because perfbench/points.cc still
     * assigns it; it goes with the perfbench islands strategy in the
     * next benchmark change. Not on the wire: a spec that sends
     * "islands" gets the unknown-key ConfigError.
     */
    unsigned islands = 1;

    /**
     * Execute each PE's stall-free basic blocks functionally in bulk
     * (pe/decode.hh). Bit-identical to the per-cycle interpreter — a
     * host knob like fastForward — and false (--no-fast-path) keeps
     * the interpreter as the oracle. Omitted from the JSON wire form
     * when true, so existing RunSpec fingerprints are unchanged.
     */
    bool fastPath = true;

    /** Fault-injection campaign; disabled (and costless) by default. */
    FaultPlan faults;

    /**
     * The wire form: every knob above as a JSON object (nested
     * "mem"/"pe" sections mirroring the struct layout; the fault
     * plan as its canonical spec string under "faults", omitted when
     * injection is disabled; "islands" is never emitted).
     * fromJson(toJson(cfg)) reproduces every field but islands.
     */
    Json toJson() const;

    /**
     * Decode a config, starting from defaults: absent keys keep their
     * default, so a request only has to name what it changes. When
     * "mem.geom.vaults" is given without "nocX"/"nocY" the NoC grid
     * is derived with nocDimsFor(). Unknown keys anywhere in the
     * object throw ConfigError naming the offending key — a typo'd
     * knob must not silently fall back to the default. Does not
     * validate the result; VipSystem's constructor does.
     */
    static SystemConfig fromJson(const Json &j);
};

/**
 * Reject configurations that would wedge, corrupt, or UB downstream,
 * with messages naming the offending parameter. Throws ConfigError.
 * VipSystem's constructor calls this before building anything.
 */
void validateSystemConfig(const SystemConfig &cfg);

class VipSystem
{
  public:
    explicit VipSystem(const SystemConfig &cfg);

    unsigned numPes() const { return static_cast<unsigned>(pes_.size()); }
    Pe &pe(unsigned id) { return *pes_.at(id); }
    const Pe &pe(unsigned id) const { return *pes_.at(id); }

    /** The vault a PE sits in. */
    unsigned
    vaultOf(unsigned pe_id) const
    {
        return pe_id / cfg_.pesPerVault;
    }

    HmcStack &hmc() { return hmc_; }
    const HmcStack &hmc() const { return hmc_; }
    DramStorage &dram() { return hmc_.storage(); }
    const DramStorage &dram() const { return hmc_.storage(); }
    TorusNoc &noc() { return noc_; }
    const SystemConfig &config() const { return cfg_; }

    /** Start address of vault @p v's local DRAM region. */
    Addr
    vaultBase(unsigned v) const
    {
        return hmc_.mapper().vaultBase(v);
    }

    /** Advance the whole machine one cycle, ticking every component
     *  (the per-cycle oracle for fast-forward). */
    void tick();

    /**
     * Run until every PE is idle (halted, no outstanding memory) and
     * the memory system has drained, or @p max_cycles elapse.
     * @return total cycles simulated so far.
     *
     * The run is confined to the calling host thread: nothing in the
     * machine is synchronized, so concurrent run()/tick() calls on the
     * same instance are a caller bug (parallel sweeps must build one
     * system per job — see sim/sweep.hh). run() asserts this.
     *
     * @p cancel, when given, is polled cooperatively (every
     * kCancelPollCycles, and after every warp): a tripped token stops
     * the run at the next boundary and throws CancelledError /
     * TimeoutError (sim/cancel.hh). The machine is left mid-flight but
     * destructible; the run's partial results are discarded.
     */
    Cycles run(Cycles max_cycles = 0,
               const CancelToken *cancel = nullptr);

    Cycles now() const { return now_; }

    bool allIdle() const;

    /** What the event-horizon fast-forward skipped so far. */
    const FastForwardStats &fastForwardStats() const { return ff_; }

    /**
     * Earliest cycle >= now() at which any component of the machine
     * can change state; kIdleForever when fully drained. Exposed for
     * tests and for callers driving tick() themselves.
     */
    Cycles nextEventAt() const;

    StatGroup &stats() { return statGroup_; }

    /** The fault injector, or null when injection is disabled. */
    FaultInjector *faultInjector() { return injector_.get(); }
    const FaultInjector *faultInjector() const { return injector_.get(); }

    /**
     * Snapshot of the machine's stuck state, formatted for humans: the
     * non-idle PEs (PC, current instruction, stall reason, LSQ
     * occupancy), backed-up vaults (queued transactions, parked
     * ingress requests, next completion), and NoC in-flight count.
     * run() attaches this to the DeadlockError its watchdog throws.
     */
    std::string deadlockDiagnosis() const;

    /** Total vector ALU operations across all PEs. */
    std::uint64_t totalVectorOps() const;

    /** Achieved compute throughput in GOp/s over the interval. */
    double achievedGops() const;

    /** Achieved DRAM bandwidth in GB/s over the interval. */
    double achievedBandwidthGBs() const;

  private:
    /** The run loop. */
    Cycles serialRun(Cycles deadline, const CancelToken *cancel);

    /**
     * One cycle of the fast-forward serial loop: tick()'s order, but
     * the NoC, a vault or a PE ticks only when its cached due cycle
     * (nocDue_, vaultDue_, peDue_) has come, and each ticked entry is
     * refreshed to the component's nextEventAt(now + 1). Returns the
     * horizon: the minimum over the entries and the ingress drain,
     * which is what nextEventAt() would compute at the new now().
     * Exact under the sim/clocked.hh contract; skipped PEs charge
     * their stall cycles at their next tick or at the run's exit.
     */
    Cycles tickDue();

    /** Recompute nocDue_ and every vaultDue_/peDue_ entry from the
     *  components. */
    void refreshDue();

    /** Lower nocDue_ to the NoC's next event after a send. */
    void noteSend();

    void routeRequest(std::unique_ptr<MemRequest> req, unsigned src_vault);
    void deliverToVault(unsigned vault, std::unique_ptr<MemRequest> req);
    void onVaultComplete(unsigned vault, std::unique_ptr<MemRequest> req);

    /** Drain vault @p v's parked ingress queue into freed slots.
     *  @return true when at least one request reached the vault. */
    bool drainIngress(unsigned v);

    /**
     * The per-vault queues of requests that reached their home vault
     * while its transaction queue was full, modelled as a clocked
     * component so warps can never jump a drain opportunity: capacity
     * only frees when a vault completes a transaction, so the next
     * event of a backed-up queue is its vault's next completion.
     */
    class IngressDrain : public Clocked
    {
      public:
        explicit IngressDrain(VipSystem &sys) : sys_(sys) {}
        void tick(Cycles now) override;
        Cycles nextEventAt(Cycles now) const override;

      private:
        VipSystem &sys_;
    };

    SystemConfig cfg_;
    StatGroup statGroup_;
    HmcStack hmc_;
    TorusNoc noc_;
    std::vector<std::unique_ptr<Pe>> pes_;
    std::unique_ptr<FaultInjector> injector_;

    /** Requests that reached their vault but found its queue full. */
    std::vector<std::deque<std::unique_ptr<MemRequest>>> ingress_;
    IngressDrain ingressDrain_{*this};

    /** Requests parked across all of ingress_, so the fast-forward
     *  loop skips the drain and its horizon term when none are. */
    std::size_t parked_ = 0;

    /**
     * The fast-forward loop's cached due cycles, one per vault and one
     * per PE: the component's nextEventAt(now + 1) as of its last tick,
     * lowered to 0 by the events that can wake a skipped component
     * (deliverToVault's enqueue, a response landing at its PE) and
     * recomputed by tickDue() for a vault the ingress drain fed and by
     * refreshDue() when run() starts. An early entry only costs a
     * tick; a late one would be wrong. nocDue_ is the NoC's: its
     * nextEventAt(now + 1) after its last tick, lowered by every send
     * (noteSend).
     */
    std::vector<Cycles> vaultDue_;
    std::vector<Cycles> peDue_;
    Cycles nocDue_ = 0;

    /** Every tickable unit, in the machine's tick order. */
    std::vector<Clocked *> clocked_;

    FastForwardStats ff_;

    Cycles now_ = 0;

    /** Runtime check of the one-run-at-a-time invariant (see run()):
     *  the machine's state is confined to one thread, not
     *  synchronized, so concurrent entry is a caller bug, caught here
     *  instead of as a silent race. TSan builds (-DVIP_SANITIZE=thread)
     *  verify the confinement holds in the sweep and serve paths. */
    std::atomic<bool> running_{false};
};

} // namespace vip

#endif // VIP_SYSTEM_SYSTEM_HH
