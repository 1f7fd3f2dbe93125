#include "pe/pe.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "sim/error.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"

namespace vip {

namespace {

/** A register waiting on a memory response: ready only when the
 *  completion event (an external wake-up) lands. */
constexpr Cycles kNeverReady = kIdleForever;

/** [start, start + bytes) lies inside the scratchpad. Both come from
 *  program registers, so the test must not wrap. */
inline bool
inScratchpad(SpAddr start, std::uint64_t bytes)
{
    return bytes <= Scratchpad::kBytes && start <= Scratchpad::kBytes - bytes;
}

/** A set.vl / set.mr operand the vector unit can stream. */
inline bool
legalVectorLength(std::uint64_t v)
{
    return v > 0 && v <= Scratchpad::kBytes;
}

/** Scalar-class µop result — the one definition both the per-cycle
 *  issue path and the fast-block executor evaluate. */
inline std::int64_t
scalarResult(const Uop &u, const std::uint64_t regs[])
{
    switch (u.form) {
      case ScalarForm::RR:
        return applyScalarOp(u.sop, static_cast<std::int64_t>(regs[u.rs1]),
                             static_cast<std::int64_t>(regs[u.rs2]));
      case ScalarForm::RI:
        return applyScalarOp(u.sop, static_cast<std::int64_t>(regs[u.rs1]),
                             u.imm);
      case ScalarForm::Imm:
        return u.imm;
    }
    return u.imm;
}

/** Branch-class µop next-pc — shared like scalarResult. */
inline std::size_t
branchTarget(const Uop &u, const std::uint64_t regs[], std::size_t pc)
{
    if (u.op == Opcode::Jmp)
        return static_cast<std::size_t>(u.imm);
    const auto a = static_cast<std::int64_t>(regs[u.rs1]);
    const auto b = static_cast<std::int64_t>(regs[u.rs2]);
    bool taken = false;
    switch (u.cond) {
      case BranchCond::Lt: taken = a < b; break;
      case BranchCond::Ge: taken = a >= b; break;
      case BranchCond::Eq: taken = a == b; break;
      case BranchCond::Ne: taken = a != b; break;
    }
    return taken ? static_cast<std::size_t>(u.imm) : pc + 1;
}

} // namespace

Pe::Pe(const PeConfig &cfg, DramStorage &dram, const AddressMapper &mapper,
       MemIssueFn issue, StatGroup *parent)
    : cfg_(cfg), dram_(dram), mapper_(mapper), memIssue_(std::move(issue)),
      arc_(cfg.arcEntries),
      statGroup_("pe" + std::to_string(cfg.peId), parent),
      stats_{Counter(&statGroup_, "instructions", "instructions committed"),
             Counter(&statGroup_, "vector_instructions",
                     "vector instructions committed"),
             Counter(&statGroup_, "vector_ops",
                     "vector ALU lane operations"),
             Counter(&statGroup_, "stall_scalar",
                     "cycles stalled on scalar register valid bits"),
             Counter(&statGroup_, "stall_vector_busy",
                     "cycles stalled on vector unit occupancy"),
             Counter(&statGroup_, "stall_arc",
                     "cycles stalled on ARC overlap or capacity"),
             Counter(&statGroup_, "stall_lsq",
                     "cycles stalled on load-store queue capacity"),
             Counter(&statGroup_, "stall_fence",
                     "cycles stalled in memfence"),
             Counter(&statGroup_, "stall_drain",
                     "cycles stalled in v.drain"),
             Counter(&statGroup_, "dram_read_bytes",
                     "bytes loaded from DRAM"),
             Counter(&statGroup_, "dram_write_bytes",
                     "bytes stored to DRAM"),
             Counter(&statGroup_, "timing_hazards",
                     "reads issued inside a producer's timing shadow"),
             Counter(&statGroup_, "busy_cycles",
                     "cycles an instruction issued")},
      fpGroup_("pe" + std::to_string(cfg.peId) + ".fastpath"),
      fpStats_{Counter(&fpGroup_, "uops_translated",
                       "static instructions decoded to µops at load"),
               Counter(&fpGroup_, "blocks_translated",
                       "pcs from which a stall-free fast block starts"),
               Counter(&fpGroup_, "block_runs",
                       "fast blocks executed functionally in bulk"),
               Counter(&fpGroup_, "fast_uops",
                       "µops retired via the fast path"),
               Counter(&fpGroup_, "fallback_ineligible",
                       "fast-path attempts stopped by an ineligible µop"),
               Counter(&fpGroup_, "fallback_regs",
                       "fast-path attempts stopped by a not-ready live-in"),
               Counter(&fpGroup_, "fallback_horizon",
                       "fast-path attempts cut by the chunk cap or run "
                       "deadline"),
               Counter(&fpGroup_, "fallback_tracer",
                       "fast-path attempts skipped because a tracer is "
                       "attached")}
{
    vip_assert(memIssue_, "PE needs a memory issue function");
}

void
Pe::loadProgram(std::vector<Instruction> prog)
{
    vip_assert(prog.size() <= kInstBufferEntries, "program of ",
               prog.size(), " instructions exceeds the instruction buffer");
    prog_ = std::move(prog);
    decoded_ = translateProgram(prog_);
    fpStats_.uopsTranslated += decoded_.uops.size();
    fpStats_.blocksTranslated += decoded_.entryPoints;
    pc_ = 0;
    halted_ = prog_.empty();
    stallCounter_ = nullptr;
    stallWakeAt_ = 0;
    fpBusyUntil_ = 0;
}

void
Pe::setReg(unsigned r, std::uint64_t v)
{
    vip_assert(r < kNumScalarRegs, "register r", r, " out of range");
    regs_[r] = v;
    regReadyAt_[r] = 0;
    wake();
}

std::uint64_t
Pe::reg(unsigned r) const
{
    vip_assert(r < kNumScalarRegs, "register r", r, " out of range");
    return regs_[r];
}

bool
Pe::regReady(unsigned r, Cycles now) const
{
    return regReadyAt_[r] <= now;
}

bool
Pe::regsReady(const Uop &u, Cycles now) const
{
    for (unsigned i = 0; i < u.nGating; ++i) {
        if (!regReady(u.gating[i], now))
            return false;
    }
    return true;
}

Cycles
Pe::regsWakeAt(const Uop &u) const
{
    Cycles wake = 0;
    for (unsigned i = 0; i < u.nGating; ++i)
        wake = std::max(wake, regReadyAt_[u.gating[i]]);
    return wake;
}

Cycles
Pe::earliestVecArcRetireAt() const
{
    Cycles wake = kIdleForever;
    for (const auto &[at, id] : vecArcPending_)
        wake = std::min(wake, at);
    return wake;
}

bool
Pe::stallFor(Counter &counter, Cycles wake_at)
{
    counter += 1;
    stallCounter_ = &counter;
    stallWakeAt_ = wake_at;
    return false;
}

void
Pe::programError(const std::string &what) const
{
    std::string where = "pe" + std::to_string(cfg_.peId) + " pc " +
                        std::to_string(pc_);
    if (const Instruction *inst = currentInstruction())
        where += " '" + disassemble(*inst) + "'";
    throw ProgramError(where + ": " + what);
}

void
Pe::storeElemSaturating(SpAddr a, ElemWidth w, std::int64_t v)
{
    const std::int64_t s = saturateToWidth(v, w);
    switch (w) {
      case ElemWidth::W8:
        scratchpad_.store<std::int8_t>(a, static_cast<std::int8_t>(s));
        break;
      case ElemWidth::W16:
        scratchpad_.store<std::int16_t>(a, static_cast<std::int16_t>(s));
        break;
      case ElemWidth::W32:
        scratchpad_.store<std::int32_t>(a, static_cast<std::int32_t>(s));
        break;
      case ElemWidth::W64:
        scratchpad_.store<std::int64_t>(a, s);
        break;
    }
}

void
Pe::checkReadHazard(SpAddr addr, unsigned bytes, Cycles now)
{
    if (scratchpad_.hazardousStreamRead(addr, bytes, now)) {
        stats_.timingHazards += 1;
        if (cfg_.strictHazards) {
            programError(detail::formatArgs(
                "timing hazard reading sp[", addr, ", ", addr + bytes,
                ") at cycle ", now, " — kernel is mis-scheduled"));
        }
    }
}

bool
Pe::issueConfig(const Uop &u, Cycles now)
{
    if (!regsReady(u, now))
        return stallFor(stats_.stallScalar, regsWakeAt(u));
    setLengths(u);
    return true;
}

void
Pe::setLengths(const Uop &u)
{
    const std::uint64_t v = regs_[u.rs1];
    if (u.op == Opcode::SetVl) {
        if (!legalVectorLength(v))
            programError(detail::formatArgs("set.vl with illegal length ",
                                            v));
        vl_ = v;
    } else {
        if (!legalVectorLength(v))
            programError(detail::formatArgs(
                "set.mr with illegal row count ", v));
        mr_ = v;
    }
}

bool
Pe::issueScalar(const Uop &u, Cycles now)
{
    if (!regsReady(u, now))
        return stallFor(stats_.stallScalar, regsWakeAt(u));
    regs_[u.rd] = static_cast<std::uint64_t>(scalarResult(u, regs_.data()));
    regReadyAt_[u.rd] = now + 1;
    return true;
}

bool
Pe::issueBranch(const Uop &u, Cycles now)
{
    if (!regsReady(u, now))
        return stallFor(stats_.stallScalar, regsWakeAt(u));
    pc_ = branchTarget(u, regs_.data(), pc_);
    return true;
}

void
Pe::execVector(const Uop &u, Cycles now, Cycles done_at)
{
    const unsigned w = u.wBytes;
    const auto vl = static_cast<unsigned>(vl_);

    if (u.op == Opcode::VecVec || u.op == Opcode::VecScalar) {
        const auto dst = static_cast<SpAddr>(regs_[u.rd]);
        const auto src_a = static_cast<SpAddr>(regs_[u.rs1]);
        checkReadHazard(src_a, vl * w, now);
        std::uint8_t *dp = scratchpad_.bytePtr(dst);
        const std::uint8_t *ap = scratchpad_.bytePtr(src_a);
        if (u.op == Opcode::VecVec) {
            const auto src_b = static_cast<SpAddr>(regs_[u.rs2]);
            checkReadHazard(src_b, vl * w, now);
            u.vecVec(dp, ap, scratchpad_.bytePtr(src_b), vl);
        } else {
            const std::int64_t scalar = saturateToWidth(
                static_cast<std::int64_t>(regs_[u.rs2]), u.width);
            u.vecScalar(dp, ap, scalar, vl);
        }
        // The destination streams out behind the pipeline depth.
        scratchpad_.markReadyStream(dst, vl * w, done_at - (vl * w) / 8);
        stats_.vectorLaneOps += vl;
        return;
    }

    // MatVec: MR x VL row-major matrix at rs1, vector at rs2, MR results.
    const auto mr = static_cast<unsigned>(mr_);
    const auto dst = static_cast<SpAddr>(regs_[u.rd]);
    const auto mat = static_cast<SpAddr>(regs_[u.rs1]);
    const auto vec = static_cast<SpAddr>(regs_[u.rs2]);
    const Cycles row_cycles = std::max<Cycles>(1, (vl * w + 7) / 8);
    const Cycles depth = done_at - now - row_cycles * mr;

    checkReadHazard(vec, vl * w, now);
    const MatVecRowFn row_fn = u.matVecRow;
    const std::uint8_t *vp = scratchpad_.bytePtr(vec);
    for (unsigned r = 0; r < mr; ++r) {
        checkReadHazard(mat + r * vl * w, vl * w, now + r * row_cycles);
        const std::int64_t acc =
            row_fn(scratchpad_.bytePtr(mat + r * vl * w), vp, vl);
        storeElemSaturating(dst + r * w, u.width, acc);
        scratchpad_.markReadyAt(dst + r * w, w,
                                now + (r + 1) * row_cycles + depth);
    }
    stats_.vectorLaneOps += 2ull * mr * vl;
}

bool
Pe::issueVector(const Uop &u, Cycles now)
{
    if (!regsReady(u, now))
        return stallFor(stats_.stallScalar, regsWakeAt(u));
    if (now < vectorBusyUntil_)
        return stallFor(stats_.stallVectorBusy, vectorBusyUntil_);
    if (vl_ == 0)
        programError("vector instruction with VL unset");

    const unsigned w = u.wBytes;
    const auto vl = static_cast<unsigned>(vl_);

    // Gather the scratchpad ranges this instruction touches.
    struct Range { SpAddr start; unsigned bytes; };
    Range ranges[3];
    unsigned nranges = 0;
    Cycles occupancy = 0;

    if (u.op == Opcode::MatVec) {
        if (mr_ == 0)
            programError("m.v with MR unset");
        if (!cfg_.enableReduction) {
            programError("m.v issued on a configuration without the "
                         "reduction unit (Fig. 4 ablation)");
        }
        const auto mr = static_cast<unsigned>(mr_);
        ranges[nranges++] = {static_cast<SpAddr>(regs_[u.rs1]),
                             mr * vl * w};
        ranges[nranges++] = {static_cast<SpAddr>(regs_[u.rs2]), vl * w};
        ranges[nranges++] = {static_cast<SpAddr>(regs_[u.rd]), mr * w};
        occupancy = std::max<Cycles>(1, (vl * w + 7) / 8) * mr;
    } else {
        ranges[nranges++] = {static_cast<SpAddr>(regs_[u.rs1]), vl * w};
        if (u.op == Opcode::VecVec) {
            ranges[nranges++] = {static_cast<SpAddr>(regs_[u.rs2]),
                                 vl * w};
        }
        ranges[nranges++] = {static_cast<SpAddr>(regs_[u.rd]), vl * w};
        occupancy = std::max<Cycles>(1, (vl * w + 7) / 8);
    }

    for (unsigned i = 0; i < nranges; ++i) {
        if (!inScratchpad(ranges[i].start, ranges[i].bytes)) {
            programError(detail::formatArgs(
                "vector operand [", ranges[i].start, ", ",
                std::uint64_t{ranges[i].start} + ranges[i].bytes,
                ") outside the scratchpad"));
        }
        if (arc_.overlaps(ranges[i].start,
                          ranges[i].start + ranges[i].bytes)) {
            // The blocking entry is either a vector-pipeline entry
            // (known retirement time) or a memory entry cleared by a
            // completion event; either way the earliest pipeline
            // retirement is a safe (never-late) wake estimate.
            return stallFor(stats_.stallArc, earliestVecArcRetireAt());
        }
    }

    const Cycles alu = u.vop == VecOp::Mul ? cfg_.mulStages
                                           : cfg_.aluStages;
    const Cycles depth = alu + (u.op == Opcode::MatVec
                                    ? cfg_.reduceStages
                                    : 0);
    // The last element enters the pipe at now + occupancy - 1 and its
    // result is written `depth` stages later.
    const Cycles done_at = now + occupancy - 1 + depth;

    if (cfg_.arcCoversVector) {
        // Hardware interlock mode: the destination range gets an ARC
        // entry held until the pipeline writes it back, so later
        // instructions stall instead of observing the timing shadow.
        const auto &dst = ranges[nranges - 1];
        const int id = arc_.allocate(dst.start, dst.start + dst.bytes);
        if (id < 0)
            return stallFor(stats_.stallArc, earliestVecArcRetireAt());
        vecArcPending_.emplace_back(done_at, id);
    }

    execVector(u, now, done_at);

    vectorBusyUntil_ = now + occupancy;
    vectorDrainedAt_ = std::max(vectorDrainedAt_, done_at);
    stats_.vectorInstructions += 1;
    return true;
}

int
Pe::allocTransfer(unsigned pieces, int arc_id, int dest_reg)
{
    int idx;
    if (freeTransfer_ >= 0) {
        idx = freeTransfer_;
        freeTransfer_ = transfers_[idx].nextFree;
    } else {
        idx = static_cast<int>(transfers_.size());
        transfers_.emplace_back();
    }
    transfers_[idx] = Transfer{pieces, arc_id, dest_reg, -1};
    return idx;
}

void
Pe::completeTransferPiece(int slot, const MemRequest &done)
{
    vip_assert(lsqLive_ > 0, "LSQ underflow");
    --lsqLive_;
    // Delivered by the NoC ahead of this cycle's PE ticks: the freed
    // entry, ARC range, or register may break the current stall.
    wake();
    Transfer &t = transfers_[slot];
    vip_assert(t.pending > 0, "stray transfer completion");
    if (--t.pending == 0) {
        if (t.arcId >= 0)
            arc_.clear(t.arcId);
        if (t.destReg >= 0)
            regReadyAt_[t.destReg] = done.completedAt;
        t.nextFree = freeTransfer_;
        freeTransfer_ = slot;
    }
}

bool
Pe::issueDramTransfer(Addr dram, unsigned bytes, bool is_write, int arc_id,
                      int dest_reg, Cycles now)
{
    const auto &geom = mapper_.geometry();
    if (bytes > geom.capacity() || dram > geom.capacity() - bytes) {
        programError(detail::formatArgs(
            "DRAM access of ", bytes, " bytes at 0x", std::hex, dram,
            " beyond the DRAM capacity"));
    }
    // Split at vault-contiguity boundaries so each piece has one home.
    const std::uint64_t span = mapper_.scheme() == AddrMap::VaultRowBankCol
                                   ? geom.bytesPerVault()
                                   : geom.colBytes;

    // Count pieces first: the transfer issues atomically or not at all.
    unsigned pieces = 0;
    {
        Addr a = dram;
        std::uint64_t rem = bytes;
        while (rem > 0) {
            const std::uint64_t chunk = std::min<std::uint64_t>(
                rem, span - (a % span));
            ++pieces;
            a += chunk;
            rem -= chunk;
        }
    }
    if (lsqLive_ + pieces > cfg_.lsqEntries) {
        // Entries free when responses arrive: an external wake-up.
        return stallFor(stats_.stallLsq, kIdleForever);
    }

    // One pooled tracker slot per transfer (instead of a heap-allocated
    // shared counter), and pooled request descriptors: the steady-state
    // PE↔memory path allocates nothing. The [this, slot] capture fits
    // std::function's small-buffer storage, so assigning onComplete
    // does not allocate either.
    const int slot = allocTransfer(pieces, arc_id, dest_reg);
    Addr a = dram;
    std::uint64_t rem = bytes;
    while (rem > 0) {
        const auto chunk = static_cast<unsigned>(
            std::min<std::uint64_t>(rem, span - (a % span)));
        auto req = reqPool_.acquire();
        req->addr = a;
        req->bytes = chunk;
        req->isWrite = is_write;
        req->sourcePe = cfg_.peId;
        req->id = nextReqId_++;
        req->issuedAt = now;
        req->onComplete = [this, slot](MemRequest &done) {
            completeTransferPiece(slot, done);
        };
        ++lsqLive_;
        memIssue_(std::move(req));
        a += chunk;
        rem -= chunk;
    }

    if (is_write)
        stats_.dramWriteBytes += bytes;
    else
        stats_.dramReadBytes += bytes;
    return true;
}

unsigned
Pe::sramTransferBytes(const Uop &u, SpAddr sp) const
{
    const std::uint64_t count = regs_[u.rs2];
    if (count == 0 || count > Scratchpad::kBytes ||
        !inScratchpad(sp, count * u.wBytes)) {
        programError(detail::formatArgs(
            u.op == Opcode::LdSram ? "ld.sram" : "st.sram", " of ", count,
            " elements at sp ", sp, " outside the scratchpad"));
    }
    return static_cast<unsigned>(count * u.wBytes);
}

bool
Pe::issueMemory(const Uop &u, Cycles now)
{
    if (!regsReady(u, now))
        return stallFor(stats_.stallScalar, regsWakeAt(u));
    const unsigned w = u.wBytes;

    switch (u.op) {
      case Opcode::LdSram: {
        const auto sp = static_cast<SpAddr>(regs_[u.rd]);
        const Addr dram = regs_[u.rs1];
        const unsigned bytes = sramTransferBytes(u, sp);
        if (arc_.overlaps(sp, sp + bytes))
            return stallFor(stats_.stallArc, earliestVecArcRetireAt());
        if (arc_.full())
            return stallFor(stats_.stallArc, earliestVecArcRetireAt());
        const int arc_id = arc_.allocate(sp, sp + bytes);
        vip_assert(arc_id >= 0, "ARC allocation failed after full check");
        if (!issueDramTransfer(dram, bytes, false, arc_id, -1, now)) {
            arc_.clear(arc_id);
            return false;
        }
        // Function: data lands now, in program order — straight from
        // the DRAM pages into the scratchpad, no staging buffer. Fault
        // injection hooks the same functional boundary: flips (and ECC
        // correction) happen before the data is copied, so corruption
        // is architecturally visible exactly when ECC misses it.
        if (injector_)
            injector_->onDramRead(dram, bytes, cfg_.peId);
        dram_.copyTo(dram, scratchpad_, sp, bytes);
        return true;
      }
      case Opcode::StSram: {
        const auto sp = static_cast<SpAddr>(regs_[u.rd]);
        const Addr dram = regs_[u.rs1];
        const unsigned bytes = sramTransferBytes(u, sp);
        if (arc_.overlaps(sp, sp + bytes))
            return stallFor(stats_.stallArc, earliestVecArcRetireAt());
        checkReadHazard(sp, bytes, now);
        if (!issueDramTransfer(dram, bytes, true, -1, -1, now))
            return false;
        dram_.copyFrom(dram, scratchpad_, sp, bytes);
        if (injector_)
            injector_->onDramWrite(dram, bytes);
        return true;
      }
      case Opcode::LdReg: {
        const Addr dram = regs_[u.rs1];
        if (!issueDramTransfer(dram, w, false, -1,
                               static_cast<int>(u.rd), now)) {
            return false;
        }
        // Sign-extended functional load at issue.
        if (injector_)
            injector_->onDramRead(dram, w, cfg_.peId);
        std::int64_t v = 0;
        switch (u.width) {
          case ElemWidth::W8: v = dram_.load<std::int8_t>(dram); break;
          case ElemWidth::W16: v = dram_.load<std::int16_t>(dram); break;
          case ElemWidth::W32: v = dram_.load<std::int32_t>(dram); break;
          case ElemWidth::W64: v = dram_.load<std::int64_t>(dram); break;
        }
        regs_[u.rd] = static_cast<std::uint64_t>(v);
        regReadyAt_[u.rd] = kNeverReady;  // valid bit cleared
        return true;
      }
      case Opcode::StReg: {
        const Addr dram = regs_[u.rs1];
        if (!issueDramTransfer(dram, w, true, -1, -1, now))
            return false;
        const std::uint64_t v = regs_[u.rd];
        switch (u.width) {
          case ElemWidth::W8:
            dram_.store<std::uint8_t>(dram, static_cast<std::uint8_t>(v));
            break;
          case ElemWidth::W16:
            dram_.store<std::uint16_t>(dram,
                                       static_cast<std::uint16_t>(v));
            break;
          case ElemWidth::W32:
            dram_.store<std::uint32_t>(dram,
                                       static_cast<std::uint32_t>(v));
            break;
          case ElemWidth::W64:
            dram_.store<std::uint64_t>(dram, v);
            break;
        }
        if (injector_)
            injector_->onDramWrite(dram, w);
        return true;
      }
      default:
        vip_panic("not a memory instruction");
    }
}

bool
Pe::issueUop(const Uop &u, Cycles now)
{
    const std::size_t pc_at_issue = pc_;
    bool issued = false;

    switch (u.cls) {
      case UopClass::Config:
        issued = issueConfig(u, now);
        break;
      case UopClass::Drain:
        if (now < vectorDrainedAt_) {
            stallFor(stats_.stallDrain, vectorDrainedAt_);
        } else {
            issued = true;
        }
        break;
      case UopClass::Vector:
        issued = issueVector(u, now);
        break;
      case UopClass::Scalar:
        issued = issueScalar(u, now);
        break;
      case UopClass::Branch:
        issued = issueBranch(u, now);
        break;
      case UopClass::Memory:
        issued = issueMemory(u, now);
        break;
      case UopClass::Fence:
        if (lsqLive_ > 0) {
            // Drains on memory responses: an external wake-up.
            stallFor(stats_.stallFence, kIdleForever);
        } else {
            issued = true;
        }
        break;
      case UopClass::Halt:
        halted_ = true;
        issued = true;
        break;
      case UopClass::Nop:
        issued = true;
        break;
    }

    if (!issued)
        return false;

    stallCounter_ = nullptr;
    stallWakeAt_ = 0;
    if (tracer_)
        tracer_(now, pc_at_issue, prog_[pc_at_issue]);
    stats_.instructions += 1;
    stats_.busyCycles += 1;
    if (injector_) {
        // Scratchpad upsets: keyed by (PE, instruction ordinal),
        // never the cycle, so fast-forward injects identically.
        const long bit = injector_->spFlip(
            cfg_.peId, stats_.instructions.value(),
            std::uint64_t{Scratchpad::kBytes} * 8);
        if (bit >= 0) {
            *scratchpad_.bytePtr(static_cast<SpAddr>(bit / 8)) ^=
                static_cast<std::uint8_t>(1u << (bit % 8));
        }
    }
    // Branches set pc_ themselves; everything else — including
    // Halt, whose resume-at-next-instruction semantics the host
    // relies on when it reloads a program — falls through to the
    // next slot.
    if (u.cls != UopClass::Branch)
        ++pc_;
    return true;
}

void
Pe::execFastBlock(const FastBlock &b, Cycles at)
{
    const Uop *uops = decoded_.uops.data();
    for (unsigned i = 0; i < b.len; ++i) {
        const Uop &u = uops[pc_];
        switch (u.cls) {
          case UopClass::Scalar:
            regs_[u.rd] =
                static_cast<std::uint64_t>(scalarResult(u, regs_.data()));
            // µop i of the block issues at cycle at + i; the scalar
            // write is architecturally ready one cycle later, exactly
            // as issueScalar would have recorded.
            regReadyAt_[u.rd] = at + i + 1;
            ++pc_;
            break;
          case UopClass::Config:
            setLengths(u);
            ++pc_;
            break;
          case UopClass::Branch:
            pc_ = branchTarget(u, regs_.data(), pc_);
            break;
          default:  // Nop — no other class is block-eligible
            ++pc_;
            break;
        }
        if (injector_) {
            // Same per-µop ordinal roll as issueUop: the event-identity
            // key is (PE, instruction ordinal), so flips land on the
            // same instructions whether or not the block ran in bulk.
            stats_.instructions += 1;
            const long bit = injector_->spFlip(
                cfg_.peId, stats_.instructions.value(),
                std::uint64_t{Scratchpad::kBytes} * 8);
            if (bit >= 0) {
                *scratchpad_.bytePtr(static_cast<SpAddr>(bit / 8)) ^=
                    static_cast<std::uint8_t>(1u << (bit % 8));
            }
        }
    }
    if (!injector_)
        stats_.instructions += b.len;
    stats_.busyCycles += b.len;
    ++fpStats_.blockRuns;
    fpStats_.fastUops += b.len;
}

bool
Pe::tryFastPath(Cycles now)
{
    if (tracer_) {
        // The tracer observes every issue; stay on the per-µop path.
        ++fpStats_.fallbackTracer;
        return false;
    }

    const Cycles horizon =
        std::min(runDeadline_, now + cfg_.fastPathChunk);
    Cycles charged = 0;
    Counter *cause = nullptr;

    // Chain whole blocks (a self-looping block chains with itself, so
    // a hot loop executes natively until the horizon cuts it). Every
    // break either leaves the partial block to the cycle-accurate path
    // at the exact cycle the window ends, or records why nothing ran.
    while (pc_ < decoded_.blocks.size()) {
        const FastBlock &b = decoded_.blocks[pc_];
        if (b.len == 0) {
            cause = &fpStats_.fallbackIneligible;
            break;
        }
        const Cycles entry = now + charged;
        if (entry + b.len > horizon) {
            cause = &fpStats_.fallbackHorizon;
            break;
        }
        // A block may write a register whose ld.reg is still in flight.
        // A read of it cannot run early: the load cleared its valid
        // bit, so a block reading it before writing it fails the
        // live-in check below. For a write at block µop i, the
        // interpreter keeps the later of two stamps in regReadyAt_:
        // the write's entry + i + 1, or the load completion's delivery
        // cycle. The block stamps first, so a completion delivered at
        // or before entry + i leaves its own, earlier stamp instead.
        // Both stamps are at most entry + i + 1, and every reader after
        // the write in program order issues at or after that cycle. So
        // regsReady(), regsWakeAt() and this entry check answer the
        // same either way.
        bool ready = true;
        for (std::uint64_t m = b.liveIn; m != 0; m &= m - 1) {
            // Live-ins checked at block entry (conservative: the
            // cycle-accurate path could begin a block whose later
            // µops' inputs become ready mid-block; we just fall back
            // there, which is exact).
            if (regReadyAt_[std::countr_zero(m)] > entry) {
                ready = false;
                break;
            }
        }
        if (!ready) {
            cause = &fpStats_.fallbackRegs;
            break;
        }
        execFastBlock(b, entry);
        charged += b.len;
    }

    if (charged == 0) {
        if (cause)
            ++*cause;
        return false;
    }
    // The simulated work of cycles [now, now + charged) is done; ticks
    // inside the window are no-ops and nextEventAt() lets fast-forward
    // warp it.
    fpBusyUntil_ = now + charged;
    stallCounter_ = nullptr;
    stallWakeAt_ = 0;
    return true;
}

void
Pe::tick(Cycles now)
{
    settle(now);
    settledTo_ = now + 1;
    // Retire vector-pipeline ARC entries whose writeback completed.
    if (!vecArcPending_.empty()) {
        for (auto it = vecArcPending_.begin();
             it != vecArcPending_.end();) {
            if (it->first <= now) {
                arc_.clear(it->second);
                it = vecArcPending_.erase(it);
            } else {
                ++it;
            }
        }
    }
    if (halted_)
        return;
    if (now < fpBusyUntil_) {
        // Inside a bulk-charged fast-block window: the issue slots of
        // these cycles were consumed by execFastBlock already.
        return;
    }
    if (pc_ >= prog_.size())
        programError("PC ran off the end of the program");

    if (cfg_.fastPath && tryFastPath(now))
        return;
    issueUop(decoded_.uops[pc_], now);
}

std::string
Pe::stallReason() const
{
    if (halted_)
        return "halted";
    if (stallCounter_ == nullptr)
        return "ready";
    return stallCounter_->name();
}

const Instruction *
Pe::currentInstruction() const
{
    if (halted_ || pc_ >= prog_.size())
        return nullptr;
    return &prog_[pc_];
}

void
Pe::fastForward(Cycles from, Cycles to)
{
    // While the PE is not due nothing it depends on changes, so the
    // front end would have re-evaluated to the exact same stall every
    // cycle. Inside a fast-block busy window stallCounter_ is null and
    // the cycles were already charged as busy, so nothing accrues here.
    if (!halted_ && stallCounter_ != nullptr)
        *stallCounter_ += to - from;
    settledTo_ = to;
}

} // namespace vip
