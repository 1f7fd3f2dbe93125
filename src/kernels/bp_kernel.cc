#include "kernels/bp_kernel.hh"

#include <algorithm>

#include "isa/builder.hh"
#include "kernels/sync.hh"
#include "sim/logging.hh"

namespace vip {

namespace {

// --- Register conventions (see header) -------------------------------
constexpr unsigned RZ = 1;        // constant 0
constexpr unsigned RVL = 2;       // L
constexpr unsigned RMR = 3;       // L
constexpr unsigned RSTRIDE = 4;   // sequential stride (bytes, signed)
constexpr unsigned RLSTRIDE = 5;  // lane stride (bytes)
constexpr unsigned RSM = 6;       // sp addr of smoothness matrix
constexpr unsigned RTH = 7;       // sp addr of theta-hat
constexpr unsigned RCH0 = 8;      // sp addr of chain buffer 0
constexpr unsigned RCH32 = 9;     // sp addr of chain buffer 1
constexpr unsigned RS = 10;       // slot/working vector A
constexpr unsigned RS1 = 11;      // slot/working vector B
constexpr unsigned RS2 = 12;      // slot/working vector C
constexpr unsigned RCHO = 13;     // chain-out address
constexpr unsigned RCHI = 14;     // chain-in address
constexpr unsigned RT = 15;       // temporary
constexpr unsigned RT2 = 16;      // temporary
constexpr unsigned RSPBUF = 17;   // slot buffer base
constexpr unsigned RT3 = 18;      // temporary
constexpr unsigned RBIG = 19;     // 8*L (RF packed load length)
constexpr unsigned RLD_A = 20;    // load pointer: data
constexpr unsigned RLD_B = 21;    // load pointer: cross message 1
constexpr unsigned RLD_C = 22;    // load pointer: cross message 2
constexpr unsigned ROUT = 23;     // store pointer
constexpr unsigned RY = 24;       // sequential counter
constexpr unsigned RYEND = 25;    // update count
constexpr unsigned RCB_CH = 26;   // lane base: chain init
constexpr unsigned RSEVEN = 27;   // constant 7 (RF store guard)
constexpr unsigned RLANE = 28;
constexpr unsigned RLANEEND = 29;
constexpr unsigned RCB_D = 30;    // lane bases
constexpr unsigned RCB_A = 31;
constexpr unsigned RCB_B = 32;
constexpr unsigned RCB_O = 33;
constexpr unsigned RGEN = 34;     // barrier generation
constexpr unsigned RBA = 35;      // barrier temporaries
constexpr unsigned RBV = 36;
constexpr unsigned RITER = 37;
constexpr unsigned RITEREND = 38;
constexpr unsigned RRED = 39;     // sp addr of reduction buffer
constexpr unsigned RSROW = 40;    // walking smoothness-row address
constexpr unsigned RPK_A = 45;    // RF packed slot bases
constexpr unsigned RPK_B = 46;
constexpr unsigned RPK_C = 47;
constexpr unsigned RPK_O = 48;
constexpr unsigned RSTR8 = 58;    // 8 * seq stride
// r50..r53: halving VL values; r54..r57: RRED + half*2 addresses.
constexpr unsigned RHALF0 = 50;
constexpr unsigned RHADDR0 = 54;
// Normalization (BpVariant::normalize).
constexpr unsigned RZMAT = 59;    // sp address of the all-zero matrix
constexpr unsigned RCBC = 60;     // sp address of the broadcast vector
constexpr unsigned RNB = 61;      // normalization anchor width

// --- Scratchpad map ---------------------------------------------------
constexpr SpAddr SP_SM = 0;       // smoothness, <= 512 B (L <= 16)
constexpr SpAddr SP_TH = 512;
constexpr SpAddr SP_CH = 544;     // two 32 B chain buffers
constexpr SpAddr SP_RED = 608;    // 64 B (reduction + overrun pad)
constexpr SpAddr SP_BUF = 672;    // 4 slots x 128 B (scratchpad mode)
constexpr SpAddr SP_ZMAT = 1184;  // all-zero L x L matrix (never
                                  // written; the scratchpad powers up
                                  // zeroed) for min broadcasting
constexpr SpAddr SP_CBC = 1696;   // broadcast min(chain) vector
constexpr SpAddr SP_WRK = 672;    // 3 working vectors (RF mode)
constexpr SpAddr SP_PK_A = 1024;  // RF double-buffered packed slots,
constexpr SpAddr SP_PK_B = 1536;  // 512 B each
constexpr SpAddr SP_PK_C = 2048;
constexpr SpAddr SP_PK_O = 2560;  // RF output pack, 256 B

struct SweepPlan
{
    Addr ldA0, ldB0, ldC0;
    Addr out0;
    Addr chain0;
    std::int64_t seqStride;
    std::int64_t laneStride;
    unsigned count;
    unsigned lanes;
    bool chainFirst;
};

SweepPlan
planSweep(const MrfDramLayout &lay, const BpSweepJob &job)
{
    const unsigned W = lay.width(), H = lay.height();
    vip_assert(job.laneEnd > job.laneBegin, "empty lane range");
    SweepPlan p{};
    p.lanes = job.laneEnd - job.laneBegin;
    const auto row = static_cast<std::int64_t>(lay.rowStrideBytes());
    const auto col = static_cast<std::int64_t>(lay.colStrideBytes());
    const unsigned lb = job.laneBegin;

    switch (job.dir) {
      case SweepDir::Down:
        vip_assert(job.laneEnd <= W, "lane range exceeds width");
        p.count = H - 1;
        p.ldA0 = lay.dataAddr(lb, 0);
        p.ldB0 = lay.msgAddr(FromLeft, lb, 0);
        p.ldC0 = lay.msgAddr(FromRight, lb, 0);
        p.out0 = lay.msgAddr(FromUp, lb, 1);
        p.chain0 = lay.msgAddr(FromUp, lb, 0);
        p.seqStride = row;
        p.laneStride = col;
        p.chainFirst = false;
        break;
      case SweepDir::Up:
        vip_assert(job.laneEnd <= W, "lane range exceeds width");
        p.count = H - 1;
        p.ldA0 = lay.dataAddr(lb, H - 1);
        p.ldB0 = lay.msgAddr(FromLeft, lb, H - 1);
        p.ldC0 = lay.msgAddr(FromRight, lb, H - 1);
        p.out0 = lay.msgAddr(FromDown, lb, H - 2);
        p.chain0 = lay.msgAddr(FromDown, lb, H - 1);
        p.seqStride = -row;
        p.laneStride = col;
        p.chainFirst = false;
        break;
      case SweepDir::Right:
        vip_assert(job.laneEnd <= H, "lane range exceeds height");
        p.count = W - 1;
        p.ldA0 = lay.dataAddr(0, lb);
        p.ldB0 = lay.msgAddr(FromUp, 0, lb);
        p.ldC0 = lay.msgAddr(FromDown, 0, lb);
        p.out0 = lay.msgAddr(FromLeft, 1, lb);
        p.chain0 = lay.msgAddr(FromLeft, 0, lb);
        p.seqStride = col;
        p.laneStride = row;
        p.chainFirst = true;
        break;
      case SweepDir::Left:
        vip_assert(job.laneEnd <= H, "lane range exceeds height");
        p.count = W - 1;
        p.ldA0 = lay.dataAddr(W - 1, lb);
        p.ldB0 = lay.msgAddr(FromUp, W - 1, lb);
        p.ldC0 = lay.msgAddr(FromDown, W - 1, lb);
        p.out0 = lay.msgAddr(FromRight, W - 2, lb);
        p.chain0 = lay.msgAddr(FromRight, W - 1, lb);
        p.seqStride = -col;
        p.laneStride = row;
        p.chainFirst = true;
        break;
    }
    return p;
}

bool
isPow2(unsigned v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

unsigned
log2u(unsigned v)
{
    unsigned l = 0;
    while ((1u << l) < v)
        ++l;
    return l;
}

/** Emit the per-program constant setup (once per program). */
void
emitProgramInit(AsmBuilder &b, const MrfDramLayout &lay,
                const BpVariant &var)
{
    const unsigned L = lay.labels();
    vip_assert(L >= 2 && L <= 16, "BP kernel supports 2..16 labels");
    if (!var.reduction)
        vip_assert(isPow2(L),
                   "software reduction requires a power-of-two L");

    b.movImm(RZ, 0);
    b.movImm(RVL, L);
    b.movImm(RMR, L);
    b.movImm(RSM, SP_SM);
    b.movImm(RTH, SP_TH);
    b.movImm(RCH0, SP_CH);
    b.movImm(RCH32, SP_CH + 32);
    b.setVl(RVL);
    b.setMr(RMR);

    // Load the smoothness matrix once; it stays resident.
    b.movImm(RT, static_cast<std::int64_t>(L) * L);
    b.movImm(RT2, static_cast<std::int64_t>(lay.smoothAddr()));
    b.ldSram(RSM, RT2, RT);

    if (var.registerFile) {
        b.movImm(RS, SP_WRK);
        b.movImm(RS1, SP_WRK + 32);
        b.movImm(RS2, SP_WRK + 64);
        b.movImm(RPK_A, SP_PK_A);
        b.movImm(RPK_B, SP_PK_B);
        b.movImm(RPK_C, SP_PK_C);
        b.movImm(RPK_O, SP_PK_O);
        b.movImm(RSEVEN, 7);
        b.movImm(RBIG, 8ll * L);
    } else {
        b.movImm(RSPBUF, SP_BUF);
    }

    if (!var.reduction) {
        b.movImm(RRED, SP_RED);
        const unsigned steps = log2u(L);
        unsigned half = L / 2;
        for (unsigned k = 0; k < steps; ++k) {
            b.movImm(RHALF0 + k, half);
            b.movImm(RHADDR0 + k, SP_RED + half * 2);
            half /= 2;
        }
    }

    if (var.normalize) {
        vip_assert(var.reduction && !var.registerFile,
                   "normalization needs the reduction unit and the "
                   "scratchpad configuration");
        b.movImm(RZMAT, SP_ZMAT);
        b.movImm(RCBC, SP_CBC);
        b.movImm(RNB, std::min(L, kBpNormWidth));
    }
}

/** Emit theta-hat computation and the message reduction into RCHO. */
void
emitCompute(AsmBuilder &b, const MrfDramLayout &lay, const BpVariant &var,
            bool chain_first)
{
    const unsigned L = lay.labels();

    if (chain_first) {
        b.vv(VecOp::Add, RTH, RS, RCHI);   // data + chained message
        b.vv(VecOp::Add, RTH, RTH, RS1);
        b.vv(VecOp::Add, RTH, RTH, RS2);
    } else {
        b.vv(VecOp::Add, RTH, RS, RS1);
        b.vv(VecOp::Add, RTH, RTH, RS2);
        b.vv(VecOp::Add, RTH, RTH, RCHI); // chained message last
    }

    if (var.reduction) {
        // The paper's composed operation (Fig. 2 line 7).
        b.mv(VecOp::Add, RedOp::Min, RCHO, RSM, RTH);
        return;
    }

    // Fig. 4 ablation: divide-and-conquer software reduction per
    // output label on the vertical unit only.
    const unsigned steps = log2u(L);
    b.mov(RSROW, RSM);
    for (unsigned lo = 0; lo < L; ++lo) {
        b.vv(VecOp::Add, RRED, RSROW, RTH);  // S row + theta-hat
        for (unsigned k = 0; k < steps; ++k) {
            b.setVl(RHALF0 + k);
            b.vv(VecOp::Min, RRED, RRED, RHADDR0 + k);
        }
        // VL is now 1: copy the surviving scalar into the message.
        b.addImm(RT, RCHO, 2ll * lo);
        b.vs(VecOp::Add, RT, RRED, RZ);
        b.setVl(RVL);
        b.addImm(RSROW, RSROW, 2ll * L);
    }
}

/** Emit one full sweep (lane loop + pipelined sequential loop). */
void
emitSweep(AsmBuilder &b, const MrfDramLayout &lay, const BpVariant &var,
          const BpSweepJob &job)
{
    const SweepPlan p = planSweep(lay, job);
    const unsigned L = lay.labels();
    vip_assert(p.count >= 1, "sweep needs at least one update");
    if (var.registerFile) {
        vip_assert(p.seqStride ==
                       static_cast<std::int64_t>(lay.colStrideBytes()),
                   "register-file variant needs a sequentially "
                   "contiguous layout (use SweepDir::Right)");
    }

    b.movImm(RSTRIDE, p.seqStride);
    b.movImm(RLSTRIDE, p.laneStride);
    if (var.registerFile)
        b.movImm(RSTR8, 8 * p.seqStride);
    b.movImm(RCB_D, static_cast<std::int64_t>(p.ldA0));
    b.movImm(RCB_A, static_cast<std::int64_t>(p.ldB0));
    b.movImm(RCB_B, static_cast<std::int64_t>(p.ldC0));
    b.movImm(RCB_O, static_cast<std::int64_t>(p.out0));
    b.movImm(RCB_CH, static_cast<std::int64_t>(p.chain0));
    b.movImm(RLANE, 0);
    b.movImm(RLANEEND, p.lanes);
    b.movImm(RYEND, p.count);

    const auto lane_top = b.newLabel();
    b.bind(lane_top);

    b.mov(RLD_A, RCB_D);
    b.mov(RLD_B, RCB_A);
    b.mov(RLD_C, RCB_B);
    b.mov(ROUT, RCB_O);
    // Chain-in for iteration 0 comes from DRAM (it may be seeded, e.g.
    // by hierarchical BP's copy phase).
    b.ldSram(RCH32, RCB_CH, RVL);
    b.movImm(RY, 0);

    const unsigned pd = var.prefetchDepth;
    vip_assert(pd >= 1 && pd <= 4, "prefetch depth must be 1..4");
    if (!var.registerFile) {
        // Software-pipeline prologue: prefetch slots for i = 0..pd-1.
        for (unsigned pf = 0; pf < pd; ++pf) {
            b.movImm(RS, SP_BUF + pf * 128);
            b.addImm(RS1, RS, 32);
            b.addImm(RS2, RS, 64);
            b.ldSram(RS, RLD_A, RVL);
            b.ldSram(RS1, RLD_B, RVL);
            b.ldSram(RS2, RLD_C, RVL);
            b.scalar(ScalarOp::Add, RLD_A, RLD_A, RSTRIDE);
            b.scalar(ScalarOp::Add, RLD_B, RLD_B, RSTRIDE);
            b.scalar(ScalarOp::Add, RLD_C, RLD_C, RSTRIDE);
        }
    } else {
        // RF prologue: one contiguous 256 B load per operand fills
        // bank 0 with eight packed vectors (rows 0..7).
        b.ldSram(RPK_A, RLD_A, RBIG);
        b.ldSram(RPK_B, RLD_B, RBIG);
        b.ldSram(RPK_C, RLD_C, RBIG);
        b.scalar(ScalarOp::Add, RLD_A, RLD_A, RSTR8);
        b.scalar(ScalarOp::Add, RLD_B, RLD_B, RSTR8);
        b.scalar(ScalarOp::Add, RLD_C, RLD_C, RSTR8);
    }

    const auto loop_top = b.newLabel();
    b.bind(loop_top);

    if (!var.registerFile) {
        // Slot and chain addressing.
        b.scalarImm(ScalarOp::And, RT, RY, 3);
        b.scalarImm(ScalarOp::Sll, RT, RT, 7);
        b.scalar(ScalarOp::Add, RS, RT, RSPBUF);
        b.addImm(RS1, RS, 32);
        b.addImm(RS2, RS, 64);
        b.scalarImm(ScalarOp::And, RT3, RY, 1);
        b.scalarImm(ScalarOp::Sll, RT3, RT3, 5);
        b.scalar(ScalarOp::Add, RCHO, RT3, RCH0);
        b.scalar(ScalarOp::Sub, RCHI, RCH32, RT3);

        if (var.normalize) {
            // Broadcast the anchor min(chain[0..kBpNormWidth)) via the
            // resident zero matrix (a short-VL m.v.add.min) and
            // subtract it from the chained message. Zero staleness,
            // no scalar round trip; min-sum BP is invariant to the
            // shift and 16-bit messages stay bounded (see BpState).
            b.setVl(RNB);
            b.mv(VecOp::Add, RedOp::Min, RCBC, RZMAT, RCHI);
            b.setVl(RVL);
            // The short reduction's tail is still in flight when its
            // occupancy clears; drain the two-cycle remainder.
            b.vdrain();
            b.vv(VecOp::Sub, RCHI, RCHI, RCBC);
        }

        // Deferred store: write out(i-1), which finished long ago (and
        // was just normalized, so the field holds normalized values).
        const auto no_store = b.newLabel();
        b.branch(BranchCond::Eq, RY, RZ, no_store);
        b.stSram(RCHI, ROUT, RVL);
        b.scalar(ScalarOp::Add, ROUT, ROUT, RSTRIDE);
        b.bind(no_store);

        emitCompute(b, lay, var, p.chainFirst);

        // Prefetch i+pd. At full depth that is the slot just consumed;
        // at shallower depths compute the (i+pd) & 3 slot explicitly.
        if (pd != 4) {
            b.addImm(RT, RY, pd);
            b.scalarImm(ScalarOp::And, RT, RT, 3);
            b.scalarImm(ScalarOp::Sll, RT, RT, 7);
            b.scalar(ScalarOp::Add, RS, RT, RSPBUF);
            b.addImm(RS1, RS, 32);
            b.addImm(RS2, RS, 64);
        }
        b.ldSram(RS, RLD_A, RVL);
        b.ldSram(RS1, RLD_B, RVL);
        b.ldSram(RS2, RLD_C, RVL);
        b.scalar(ScalarOp::Add, RLD_A, RLD_A, RSTRIDE);
        b.scalar(ScalarOp::Add, RLD_B, RLD_B, RSTRIDE);
        b.scalar(ScalarOp::Add, RLD_C, RLD_C, RSTRIDE);

    } else {
        // RF mode: reload the spare bank every 8 iterations. A packed
        // row is L*2 bytes; a bank of eight rows is 8*L*2 bytes.
        const unsigned row_shift = log2u(L * 2);
        b.scalarImm(ScalarOp::And, RT, RY, 7);
        b.scalarImm(ScalarOp::And, RT2, RY, 15);
        b.scalarImm(ScalarOp::Sll, RT2, RT2, row_shift);

        const auto no_load = b.newLabel();
        b.branch(BranchCond::Ne, RT, RZ, no_load);
        b.scalarImm(ScalarOp::Srl, RT3, RY, 3);
        b.scalarImm(ScalarOp::And, RT3, RT3, 1);
        b.scalarImm(ScalarOp::Xor, RT3, RT3, 1);
        b.scalarImm(ScalarOp::Sll, RT3, RT3, row_shift + 3);
        b.scalar(ScalarOp::Add, RT, RT3, RPK_A);
        b.ldSram(RT, RLD_A, RBIG);
        b.scalar(ScalarOp::Add, RLD_A, RLD_A, RSTR8);
        b.scalar(ScalarOp::Add, RT, RT3, RPK_B);
        b.ldSram(RT, RLD_B, RBIG);
        b.scalar(ScalarOp::Add, RLD_B, RLD_B, RSTR8);
        b.scalar(ScalarOp::Add, RT, RT3, RPK_C);
        b.ldSram(RT, RLD_C, RBIG);
        b.scalar(ScalarOp::Add, RLD_C, RLD_C, RSTR8);
        b.bind(no_load);

        // Unpack the three operands into the working vectors.
        b.scalar(ScalarOp::Add, RT, RPK_A, RT2);
        b.vs(VecOp::Add, RS, RT, RZ);
        b.scalar(ScalarOp::Add, RT, RPK_B, RT2);
        b.vs(VecOp::Add, RS1, RT, RZ);
        b.scalar(ScalarOp::Add, RT, RPK_C, RT2);
        b.vs(VecOp::Add, RS2, RT, RZ);

        b.scalarImm(ScalarOp::And, RT3, RY, 1);
        b.scalarImm(ScalarOp::Sll, RT3, RT3, 5);
        b.scalar(ScalarOp::Add, RCHO, RT3, RCH0);
        b.scalar(ScalarOp::Sub, RCHI, RCH32, RT3);

        // Deferred store path: repack out(i-1); flush every 8th.
        const auto no_store = b.newLabel();
        const auto no_flush = b.newLabel();
        b.branch(BranchCond::Eq, RY, RZ, no_store);
        b.addImm(RT, RY, -1);
        b.scalarImm(ScalarOp::And, RT, RT, 7);
        b.scalarImm(ScalarOp::Sll, RT, RT, row_shift);
        b.scalar(ScalarOp::Add, RT, RT, RPK_O);
        b.vs(VecOp::Add, RT, RCHI, RZ);  // repack
        b.addImm(RT, RY, -1);
        b.scalarImm(ScalarOp::And, RT, RT, 7);
        b.branch(BranchCond::Ne, RT, RSEVEN, no_flush);
        b.stSram(RPK_O, ROUT, RBIG);
        b.scalar(ScalarOp::Add, ROUT, ROUT, RSTR8);
        b.bind(no_flush);
        b.bind(no_store);

        emitCompute(b, lay, var, p.chainFirst);
    }

    b.addImm(RY, RY, 1);
    b.branch(BranchCond::Lt, RY, RYEND, loop_top);

    // Epilogue: drain the vector pipe, then store the final output.
    b.vdrain();
    if (!var.registerFile) {
        b.movImm(RT, SP_CH + ((p.count - 1) & 1) * 32);
        b.stSram(RT, ROUT, RVL);
    } else {
        // Repack the final message, then flush the partial block.
        b.movImm(RT, SP_PK_O + ((p.count - 1) & 7) * 2 * L);
        b.movImm(RT2, SP_CH + ((p.count - 1) & 1) * 32);
        b.setVl(RVL);  // VL is L here already; explicit for clarity
        b.vs(VecOp::Add, RT, RT2, RZ);
        b.vdrain();
        b.movImm(RT, (((p.count - 1) & 7) + 1) *
                         static_cast<std::int64_t>(L));
        b.stSram(RPK_O, ROUT, RT);
    }

    // Next lane.
    b.scalar(ScalarOp::Add, RCB_D, RCB_D, RLSTRIDE);
    b.scalar(ScalarOp::Add, RCB_A, RCB_A, RLSTRIDE);
    b.scalar(ScalarOp::Add, RCB_B, RCB_B, RLSTRIDE);
    b.scalar(ScalarOp::Add, RCB_O, RCB_O, RLSTRIDE);
    b.scalar(ScalarOp::Add, RCB_CH, RCB_CH, RLSTRIDE);
    b.addImm(RLANE, RLANE, 1);
    b.branch(BranchCond::Lt, RLANE, RLANEEND, lane_top);
}

} // namespace

std::vector<Instruction>
genBpSweep(const MrfDramLayout &layout, const BpVariant &variant,
           const BpSweepJob &job)
{
    AsmBuilder b;
    emitProgramInit(b, layout, variant);
    emitSweep(b, layout, variant, job);
    b.memfence();
    b.halt();
    return b.finish();
}

std::vector<Instruction>
genBpIterations(const MrfDramLayout &layout, const BpVariant &variant,
                std::span<const BpSweepJob, 4> jobs, unsigned iterations,
                Addr flag_base, unsigned pe_index, unsigned num_pes)
{
    vip_assert(variant.reduction && !variant.registerFile,
               "full BP-M iterations are generated for the baseline "
               "configuration only (Fig. 4 variants use genBpSweep)");
    vip_assert(iterations >= 1, "need at least one iteration");

    AsmBuilder b;
    emitProgramInit(b, layout, variant);
    b.movImm(RGEN, 0);
    b.movImm(RITER, 0);
    b.movImm(RITEREND, iterations);

    const auto iter_top = b.newLabel();
    b.bind(iter_top);

    const SyncRegs sync{RGEN, RBA, RBV};
    static constexpr SweepDir order[4] = {SweepDir::Right, SweepDir::Left,
                                          SweepDir::Down, SweepDir::Up};
    for (const SweepDir dir : order) {
        const BpSweepJob &job = jobs[static_cast<unsigned>(dir)];
        vip_assert(job.dir == dir, "jobs[] must be indexed by SweepDir");
        if (job.laneEnd > job.laneBegin)
            emitSweep(b, layout, variant, job);
        else
            b.memfence();  // idle PE still participates in the barrier
        emitBarrier(b, flag_base, pe_index, num_pes, sync);
    }

    b.addImm(RITER, RITER, 1);
    b.branch(BranchCond::Lt, RITER, RITEREND, iter_top);
    b.memfence();
    b.halt();
    return b.finish();
}

std::array<BpSweepJob, 4>
bpTileJobs(unsigned width, unsigned height, unsigned pe, unsigned num_pes)
{
    const auto slice = [&](SweepDir dir, unsigned lanes) {
        const unsigned per = (lanes + num_pes - 1) / num_pes;
        const unsigned begin = std::min(lanes, pe * per);
        return BpSweepJob{dir, begin, std::min(lanes, begin + per)};
    };
    return {slice(SweepDir::Right, height), slice(SweepDir::Left, height),
            slice(SweepDir::Down, width), slice(SweepDir::Up, width)};
}

} // namespace vip
