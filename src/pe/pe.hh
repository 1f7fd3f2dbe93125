/**
 * @file
 * Cycle-level model of one VIP processing engine (Sec. III-B).
 *
 * Pipeline structure (matching Fig. 1): a unified fetch/decode/issue
 * front end feeding three independent back ends — the vector unit
 * (vertical element-wise stage chained into a horizontal reduction
 * stage, 64-bit subword datapath), the scalar unit (64 x 64-bit
 * register file with per-register valid bits), and the load-store unit
 * (64 outstanding accesses). Issue is strictly in order: a stalled
 * instruction stalls everything behind it. Completion is out of order
 * and there are no precise exceptions.
 *
 * Functional execution happens at issue, in program order; timing is
 * tracked alongside (vector completion times, DRAM round trips,
 * register valid bits). The vector pipeline's latency is exposed to the
 * programmer exactly as in the paper: the issue stage does *not*
 * interlock on scratchpad ranges written by earlier vector
 * instructions. A built-in hazard checker records (or, in strict mode,
 * fails the run on) reads scheduled inside a producer's timing shadow,
 * which is how we verify that generated kernels are legally scheduled.
 */

#ifndef VIP_PE_PE_HH
#define VIP_PE_PE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "isa/isa.hh"
#include "mem/addrmap.hh"
#include "mem/request.hh"
#include "mem/storage.hh"
#include "pe/arc.hh"
#include "pe/decode.hh"
#include "pe/scratchpad.hh"
#include "sim/clocked.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace vip {

class FaultInjector;

/** Static configuration of one PE. */
struct PeConfig
{
    unsigned peId = 0;        ///< global PE id (0..127)
    unsigned vault = 0;       ///< home vault
    unsigned lsqEntries = 64; ///< outstanding loads/stores (Sec. III-B)
    unsigned arcEntries = ArcTable::kEntries; ///< ARC table size
    unsigned mulStages = 4;   ///< multiplier pipeline depth
    unsigned aluStages = 1;   ///< add-like vertical op latency
    unsigned reduceStages = 2; ///< horizontal unit latency
    bool strictHazards = false; ///< ProgramError on vector timing hazards
    bool enableReduction = true; ///< false emulates a no-reduction ISA

    /**
     * Also allocate ARC entries for vector-pipeline destination
     * ranges, interlocking issue on every scratchpad hazard — the
     * hardware alternative to exposed latency the paper sketches in
     * Sec. III-B (bigger table, extra lookups, more power) in exchange
     * for schedule-free correctness.
     */
    bool arcCoversVector = false;

    /**
     * Execute stall-free basic blocks functionally in bulk (see
     * decode.hh). A host-speed knob only — results are bit-identical
     * either way — so it is not part of the serialized PE-config JSON.
     * False keeps the per-cycle interpreter, which issues from the same
     * decoded-µop stream, as the oracle.
     */
    bool fastPath = true;

    /**
     * Most cycles one fast-path tick may charge in bulk. Bounded so a
     * progress bump lands inside every watchdog window (the system
     * clamps this to half its watchdog period) — a mega-loop executed
     * natively would otherwise look like a hang to the deadlock check.
     */
    Cycles fastPathChunk = 65536;
};

/** How the PE hands memory transactions to the system. */
using MemIssueFn = std::function<void(std::unique_ptr<MemRequest>)>;

class Pe final : public Clocked
{
  public:
    Pe(const PeConfig &cfg, DramStorage &dram, const AddressMapper &mapper,
       MemIssueFn issue, StatGroup *parent);

    /** Load a program and reset PC; registers are preserved so the host
     *  can pass arguments via setReg() before or after. A program
     *  longer than the instruction buffer is a caller bug (the
     *  assembler and AsmBuilder reject it). */
    void loadProgram(std::vector<Instruction> prog);

    /** Host interface: seed an argument register. Like a memory
     *  completion, the write may break a stall, so the PE reports
     *  itself due (see nextEventAt()). */
    void setReg(unsigned r, std::uint64_t v);
    std::uint64_t reg(unsigned r) const;

    /** Per-issue trace hook: (cycle, pc, instruction). */
    using Tracer =
        std::function<void(Cycles, std::size_t, const Instruction &)>;

    void setTracer(Tracer t) { tracer_ = std::move(t); }

    /**
     * Advance one clock cycle (issue at most one instruction). Ticks
     * may skip cycles in which nextEventAt() reported nothing due: the
     * stall recorded at the last tick is first charged for the skipped
     * cycles (see settle()), exactly as per-cycle ticks would have.
     * Issue errors a program can cause throw ProgramError.
     */
    void tick(Cycles now) override;

    /**
     * Exclusive cycle bound of the current run: the fast path never
     * charges a block past it, so `run(N)` observes the same
     * cut-mid-loop architectural state either way (the partial final
     * block falls back to per-µop issue). VipSystem sets this at the
     * top of every run; the default never limits.
     */
    void setRunDeadline(Cycles deadline) { runDeadline_ = deadline; }

    /**
     * Earliest cycle the front end could make progress again. An
     * actively issuing PE reports @p now; a PE stalled on a resource
     * with a known completion time (vector occupancy, a register's
     * valid cycle, a pipeline ARC retirement, v.drain) reports that
     * time; a PE waiting on a memory response (or halted) reports
     * kIdleForever until the response lands: completing a transfer
     * piece (like setReg()) makes the PE report the cycle it lands
     * in, so a run loop that ticks only due PEs still sees it.
     */
    Cycles
    nextEventAt(Cycles now) const override
    {
        if (halted_) {
            // Outstanding responses (if any) are events of the memory
            // system; pending pipeline-ARC retirements are retired
            // lazily by the tick prologue and have no observable effect
            // while no instruction can issue.
            return kIdleForever;
        }
        if (now < fpBusyUntil_) {
            // Bulk-charged window: nothing to do until it ends.
            return fpBusyUntil_;
        }
        if (stallCounter_ == nullptr) {
            // Actively issuing (or not yet ticked): never skip it.
            return now;
        }
        return std::max(stallWakeAt_, now);
    }

    /**
     * Charge every cycle before @p now since the last tick (or the
     * last charge) that no tick accounted for. tick() does this first;
     * a run loop that skips PEs calls it on each one as it returns, so
     * the statistics are complete whenever the caller can read them.
     */
    void
    settle(Cycles now)
    {
        if (now > settledTo_)
            fastForward(settledTo_, now);
    }

    bool halted() const { return halted_; }

    /** Halted with no outstanding memory traffic. */
    bool idle() const { return halted_ && lsqLive_ == 0; }

    /**
     * Attach a fault injector: functional DRAM reads/writes pass
     * through it (transient flips + ECC scrub on the read path) and
     * each issued instruction rolls for a scratchpad upset. Null
     * detaches; the hooks cost nothing when detached.
     */
    void setFaultInjector(FaultInjector *f) { injector_ = f; }

    // --- deadlock-diagnosis observers (see VipSystem::run) ---

    /** Current program counter. */
    std::size_t pc() const { return pc_; }

    /** Outstanding LSQ entries (issued, response not yet seen). */
    unsigned lsqOutstanding() const { return lsqLive_; }

    /**
     * Why the front end is not issuing: the stall counter charged at
     * the last tick ("stall_lsq", "stall_scalar", ...), "halted" when
     * halted, or "ready" when actively issuing.
     */
    std::string stallReason() const;

    /** The instruction at the PC, or null when halted/out of range. */
    const Instruction *currentInstruction() const;

    Scratchpad &scratchpad() { return scratchpad_; }
    const Scratchpad &scratchpad() const { return scratchpad_; }

    const PeConfig &config() const { return cfg_; }

    /** Observable statistics. */
    struct Stats
    {
        Counter instructions;
        Counter vectorInstructions;
        Counter vectorLaneOps;   ///< 16-bit-equivalent ALU ops (Sec. VI-A)
        Counter stallScalar;
        Counter stallVectorBusy;
        Counter stallArc;
        Counter stallLsq;
        Counter stallFence;
        Counter stallDrain;
        Counter dramReadBytes;
        Counter dramWriteBytes;
        Counter timingHazards;
        Counter busyCycles;
    };

    const Stats &stats() const { return stats_; }

    /**
     * µop-cache / fast-path observability. These counters measure the
     * host-side execution strategy, not the simulated machine, so they
     * live in a standalone StatGroup *outside* the system stats tree:
     * RunResult counters (and thus run JSON, fingerprinted cache
     * entries, and every bit-identity test) are unchanged by the fast
     * path being on or off.
     */
    struct FastPathStats
    {
        Counter uopsTranslated;   ///< static instructions decoded
        Counter blocksTranslated; ///< pcs starting a fast block
        Counter blockRuns;        ///< blocks executed functionally
        Counter fastUops;         ///< µops retired via the fast path
        Counter fallbackIneligible; ///< block table says not eligible
        Counter fallbackRegs;     ///< live-in register not ready
        Counter fallbackHorizon;  ///< chunk/deadline cut the block
        Counter fallbackTracer;   ///< tracer attached (per-µop only)
    };

    const FastPathStats &fastPathStats() const { return fpStats_; }

    /** The standalone "pe<N>.fastpath" group holding FastPathStats. */
    const StatGroup &fastPathGroup() const { return fpGroup_; }

    /** Pool the PE's DRAM request descriptors recycle through. */
    const MemRequestPool &requestPool() const { return reqPool_; }

    /** Total 16-bit-equivalent vector ALU operations executed. */
    std::uint64_t vectorOps() const { return stats_.vectorLaneOps.value(); }

  private:
    // --- issue helpers; each returns true when the µop issued.
    // All issue-path semantics take the Uops translated at load, in
    // both modes, so there is one and only one semantic path.
    bool issueUop(const Uop &u, Cycles now);
    bool issueScalar(const Uop &u, Cycles now);
    bool issueBranch(const Uop &u, Cycles now);
    bool issueVector(const Uop &u, Cycles now);
    bool issueMemory(const Uop &u, Cycles now);
    bool issueConfig(const Uop &u, Cycles now);

    /** Apply set.vl / set.mr (ProgramError on an illegal length). */
    void setLengths(const Uop &u);

    /** Bytes an ld.sram/st.sram at @p sp moves (ProgramError when the
     *  range is empty or leaves the scratchpad). */
    unsigned sramTransferBytes(const Uop &u, SpAddr sp) const;

    bool regsReady(const Uop &u, Cycles now) const;
    bool regReady(unsigned r, Cycles now) const;

    /** Cycle every gating register becomes ready (kIdleForever if one
     *  waits on a memory response). */
    Cycles regsWakeAt(const Uop &u) const;

    /**
     * Execute as many whole fast blocks as fit before the chunk cap /
     * run deadline, charging their timing in bulk; true when at least
     * one block ran (the PE is then busy until fpBusyUntil_).
     */
    bool tryFastPath(Cycles now);

    /** Functionally execute one fast block entered at cycle @p at. */
    void execFastBlock(const FastBlock &b, Cycles at);

    /**
     * Replicate the per-cycle stall accounting for skipped cycles
     * [from, to): the stall reason recorded at the last tick cannot
     * change while the PE is not due, so the same counter is charged.
     */
    void fastForward(Cycles from, Cycles to);

    /** Earliest vector-pipeline ARC retirement (kIdleForever if none). */
    Cycles earliestVecArcRetireAt() const;

    /** Record a stall: bump @p counter, remember it and the wake cycle
     *  for nextEventAt()/fastForward(). Always returns false. */
    bool stallFor(Counter &counter, Cycles wake_at);

    /** An external event may have broken the stall: report due now. */
    void wake() { stallWakeAt_ = 0; }

    /** Throw ProgramError for the instruction at the PC. */
    [[noreturn]] void programError(const std::string &what) const;

    void execVector(const Uop &u, Cycles now, Cycles done_at);
    void checkReadHazard(SpAddr addr, unsigned bytes, Cycles now);

    /** Issue a DRAM transfer, splitting at vault boundaries.
     *  @return false if the LSQ cannot hold all the pieces. */
    bool issueDramTransfer(Addr dram, unsigned bytes, bool is_write,
                           int arc_id, int dest_reg, Cycles now);

    /**
     * In-flight multi-piece transfer bookkeeping. Slots live in a
     * free-listed vector so the completion lambdas capture only
     * (this, slot) — small enough for std::function's inline buffer,
     * so the steady-state DRAM loop allocates nothing.
     */
    struct Transfer
    {
        unsigned pending = 0; ///< outstanding vault-split pieces
        int arcId = -1;       ///< ARC entry to clear on last piece
        int destReg = -1;     ///< register made valid on last piece
        int nextFree = -1;    ///< free-list link when retired
    };

    int allocTransfer(unsigned pieces, int arc_id, int dest_reg);
    void completeTransferPiece(int slot, const MemRequest &done);

    void storeElemSaturating(SpAddr a, ElemWidth w, std::int64_t v);

    PeConfig cfg_;
    DramStorage &dram_;
    const AddressMapper &mapper_;
    MemIssueFn memIssue_;

    std::vector<Instruction> prog_;
    DecodedProgram decoded_; ///< µop stream + block table
    std::size_t pc_ = 0;
    bool halted_ = true;

    /**
     * End of the last bulk-charged fast-block window: ticks inside it
     * are no-ops (the work already happened functionally) and
     * nextEventAt() reports it so fast-forward warps the dead cycles.
     */
    Cycles fpBusyUntil_ = 0;

    /** Stall recorded at the last tick: which counter the front end
     *  charged and the earliest cycle the stall could break. Cleared
     *  when an instruction issues. Kept next to halted_ and
     *  fpBusyUntil_, the rest of what nextEventAt() reads, since the
     *  run loop polls it for every PE every cycle. */
    Counter *stallCounter_ = nullptr;
    Cycles stallWakeAt_ = 0;

    /** First cycle whose stall accounting is still owed: the cycle
     *  after the last tick, or the end of the last charge. */
    Cycles settledTo_ = 0;

    /** Exclusive run bound fast blocks may not charge past. */
    Cycles runDeadline_ = ~Cycles{0};

    std::array<std::uint64_t, kNumScalarRegs> regs_{};
    std::array<Cycles, kNumScalarRegs> regReadyAt_{};

    std::uint64_t vl_ = 0;  ///< vector length (elements)
    std::uint64_t mr_ = 0;  ///< matrix rows

    Scratchpad scratchpad_;
    ArcTable arc_;

    /** (completion time, ARC id) for vector writes when the ARC also
     *  covers the vector pipeline. */
    std::vector<std::pair<Cycles, int>> vecArcPending_;

    Cycles vectorBusyUntil_ = 0;   ///< structural: streaming occupancy
    Cycles vectorDrainedAt_ = 0;   ///< last vector completion time

    unsigned lsqLive_ = 0;
    std::uint64_t nextReqId_ = 0;
    FaultInjector *injector_ = nullptr;
    std::vector<Transfer> transfers_;
    int freeTransfer_ = -1;
    MemRequestPool reqPool_;
    Tracer tracer_;

    StatGroup statGroup_;
    Stats stats_;

    // Standalone on purpose — never parented into the system tree; see
    // FastPathStats.
    StatGroup fpGroup_;
    FastPathStats fpStats_;
};

} // namespace vip

#endif // VIP_PE_PE_HH
