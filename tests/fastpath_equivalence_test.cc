/**
 * @file
 * Decoded-µop fast-path equivalence harness: replaying pre-decoded
 * µops and executing eligible basic blocks in one step (cfg.fastPath,
 * pe/decode.hh) must be invisible in every deterministic observable —
 * the full RunResult JSON (cycles, the complete stats tree, fault
 * section), the DRAM fingerprint, and the fault counters — while the
 * fast-path counters themselves (which live outside the stats tree)
 * prove the fast path actually ran. Scenarios cover a tight scalar
 * loop (the fast path's best case), the BP and CNN kernels (vector /
 * memory heavy, mostly fallback), a fault campaign (per-µop ordinal
 * keys must not shift), and a 16-vault BP run.
 *
 * Four scenarios additionally pin the seed goldens from
 * hotpath_equivalence_test with the fast path on AND off, so the two
 * execution strategies cannot drift together unnoticed.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "isa/builder.hh"
#include "kernels/bp_kernel.hh"
#include "kernels/conv_kernel.hh"
#include "kernels/fc_kernel.hh"
#include "kernels/layout.hh"
#include "kernels/pool_kernel.hh"
#include "sim/fault.hh"
#include "sim/json.hh"
#include "sim/rng.hh"
#include "system/simulation.hh"
#include "workloads/mrf.hh"
#include "workloads/nn.hh"

namespace vip {
namespace {

/** Everything the fast path must not perturb, plus the counters that
 *  prove it ran. */
struct Observed
{
    Cycles cycles = 0;
    std::string resultJson;
    std::uint64_t dramDigest = 0;
    FaultStats faults;
    std::uint64_t fastUops = 0;
    std::uint64_t blockRuns = 0;
    bool halted = false;
};

Observed
observe(SystemConfig cfg, bool fast,
        const std::function<void(Simulation &)> &drive)
{
    cfg.fastPath = fast;
    Simulation sim(cfg);
    drive(sim);
    const RunResult result = sim.run(50'000'000);
    Observed o;
    o.cycles = result.cycles;
    o.resultJson = result.toJson().str();
    o.dramDigest = sim.system().dram().fingerprint();
    o.faults = result.faults;
    const auto fu = result.fastpath.find("fast_uops");
    if (fu != result.fastpath.end())
        o.fastUops = fu->second;
    const auto br = result.fastpath.find("block_runs");
    if (br != result.fastpath.end())
        o.blockRuns = br->second;
    o.halted = result.haltedCleanly;
    return o;
}

/**
 * The core assertion: with the fast path on and off, runs are
 * indistinguishable in every deterministic observable. Returns the
 * fast-path-on observation so scenarios can additionally pin goldens
 * or require coverage.
 */
Observed
expectFastPathEquivalent(const SystemConfig &cfg,
                         const std::function<void(Simulation &)> &drive)
{
    const Observed off = observe(cfg, false, drive);
    const Observed on = observe(cfg, true, drive);
    EXPECT_TRUE(off.halted);
    EXPECT_TRUE(on.halted);
    EXPECT_EQ(off.cycles, on.cycles);
    EXPECT_EQ(off.resultJson, on.resultJson);
    EXPECT_EQ(off.dramDigest, on.dramDigest);
    EXPECT_TRUE(off.faults == on.faults);
    // The interpreter must not touch the µop machinery at all;
    // the replay must account every issued µop.
    EXPECT_EQ(off.fastUops, 0u);
    EXPECT_EQ(off.blockRuns, 0u);
    return on;
}

MrfProblem
makeProblem(unsigned w, unsigned h, unsigned labels, std::uint64_t seed)
{
    Rng rng(seed);
    MrfProblem p;
    p.width = w;
    p.height = h;
    p.labels = labels;
    p.smoothCost = truncatedLinearSmoothness(labels, 3, 12);
    p.dataCost.resize(static_cast<std::size_t>(w) * h * labels);
    for (auto &c : p.dataCost)
        c = static_cast<Fx16>(rng.nextBelow(25));
    return p;
}

TEST(FastPathEquivalence, ScalarLoop)
{
    // The headline case (BM_PeScalarLoop's program): a pure scalar
    // loop whose body is one eligible block, so nearly every µop
    // should retire through block replay.
    SystemConfig cfg = makeSystemConfig(1, 1);
    const Observed on =
        expectFastPathEquivalent(cfg, [](Simulation &sim) {
            AsmBuilder b;
            b.movImm(1, 0);
            b.movImm(2, 10000);
            const auto loop = b.newLabel();
            b.bind(loop);
            b.addImm(1, 1, 1);
            b.branch(BranchCond::Lt, 1, 2, loop);
            b.halt();
            sim.loadProgram(0, b.finish());
        });
    EXPECT_GT(on.blockRuns, 0u);
    // 20000 loop µops plus prologue; the fast path must carry the
    // overwhelming majority of them.
    EXPECT_GT(on.fastUops, 15000u);
}

TEST(FastPathEquivalence, BpSweepFourPes)
{
    // The hotpath_equivalence_test BP scenario, pinned to the same
    // seed golden with the fast path off and on.
    const unsigned W = 12, H = 8, L = 8;
    const MrfProblem problem = makeProblem(W, H, L, 42);
    SystemConfig cfg = makeSystemConfig(1, 4);
    cfg.pe.strictHazards = true;

    auto drive = [&](Simulation &sim) {
        VipSystem &sys = sim.system();
        MrfDramLayout layout(sys.vaultBase(0), W, H, L);
        layout.upload(problem, sys.dram());
        const unsigned per = H / 4;
        for (unsigned pe = 0; pe < 4; ++pe) {
            sim.loadProgram(pe, genBpSweep(
                layout, BpVariant{},
                BpSweepJob{SweepDir::Right, pe * per, (pe + 1) * per}));
        }
    };
    const Observed on = expectFastPathEquivalent(cfg, drive);
    EXPECT_EQ(on.cycles, 2048u);
    EXPECT_EQ(observe(cfg, false, drive).dramDigest,
              8335395983873963827ull);
    EXPECT_EQ(on.dramDigest, 8335395983873963827ull);
}

TEST(FastPathEquivalence, ConvSingleShard)
{
    // The hotpath CNN slice: vector/memory dominated, so the fast
    // path mostly falls back — the equivalence still has to hold at
    // every fallback boundary. Pinned to the seed golden.
    const unsigned C = 8, H = 10, W = 12, OC = 4, K = 3;
    Rng rng(11);
    FeatureMap in(C, H, W);
    for (auto &v : in.data)
        v = static_cast<Fx16>(rng.nextRange(-10, 10));
    const auto filters = randomWeights(
        static_cast<std::size_t>(OC) * C * K * K, rng, 3);
    const auto bias = randomWeights(OC, rng, 20);

    SystemConfig cfg = makeSystemConfig(1, 1);
    cfg.pe.strictHazards = true;

    auto drive = [&](Simulation &sim) {
        VipSystem &sys = sim.system();
        const Addr base = sys.vaultBase(0);
        FmapDramLayout in_lay(base, C, H, W, 1);
        FmapDramLayout out_lay(in_lay.end() + 64, OC, H, W, 0);
        const Addr filt_addr = out_lay.end() + 64;
        const auto blob = packFilters(filters, C, K, 0, OC, 0, C);
        sys.dram().write(filt_addr, blob.data(), blob.size() * 2);
        const Addr bias_addr = filt_addr + blob.size() * 2 + 64;
        sys.dram().write(bias_addr, bias.data(), bias.size() * 2);
        in_lay.upload(in, sys.dram());

        ConvJob job;
        job.in = &in_lay;
        job.out = &out_lay;
        job.filterBlob = filt_addr;
        job.biasBlob = bias_addr;
        job.zShard = C;
        job.filters = OC;
        job.rowBegin = 0;
        job.rowEnd = H;
        job.width = W;
        sim.loadProgram(0, genConvPass(job));
    };
    const Observed on = expectFastPathEquivalent(cfg, drive);
    EXPECT_EQ(on.cycles, 14448u);
    EXPECT_EQ(on.dramDigest, 17936303181918984730ull);
}

TEST(FastPathEquivalence, PoolLayer)
{
    const unsigned C = 16, H = 8, W = 12;
    Rng rng(14);
    FeatureMap in(C, H, W);
    for (auto &v : in.data)
        v = static_cast<Fx16>(rng.nextRange(-1000, 1000));

    SystemConfig cfg = makeSystemConfig(1, 1);
    cfg.pe.strictHazards = true;

    const Observed on =
        expectFastPathEquivalent(cfg, [&](Simulation &sim) {
            VipSystem &sys = sim.system();
            FmapDramLayout in_lay(sys.vaultBase(0), C, H, W, 0);
            FmapDramLayout out_lay(in_lay.end() + 64, C, H / 2, W / 2,
                                   0);
            in_lay.upload(in, sys.dram());

            PoolJob job;
            job.in = &in_lay;
            job.out = &out_lay;
            job.rowBegin = 0;
            job.rowEnd = H / 2;
            job.width = W / 2;
            job.chunk = C;
            sim.loadProgram(0, genPool(job));
        });
    EXPECT_EQ(on.cycles, 1834u);
    EXPECT_EQ(on.dramDigest, 8116046076812699434ull);
}

TEST(FastPathEquivalence, FcPartialOnePass)
{
    // The FC partial pass from the hotpath FC scenario (the accum
    // pass there reloads programs between runs, which the one-run
    // Simulation harness here doesn't model — the partial pass alone
    // still exercises the matvec/accumulate hot loop).
    const unsigned IN = 128, OUT = 64, SEGS = 4;
    Rng rng(16);
    const auto input = randomWeights(IN, rng, 30);
    const auto weights = randomWeights(
        static_cast<std::size_t>(OUT) * IN, rng, 5);

    SystemConfig cfg = makeSystemConfig(1, 4);
    cfg.pe.strictHazards = true;

    expectFastPathEquivalent(cfg, [&](Simulation &sim) {
        VipSystem &sys = sim.system();
        const Addr base = sys.vaultBase(0);
        const Addr w_addr = base;
        const Addr in_addr = w_addr + weights.size() * 2 + 64;
        const Addr part_base = in_addr + input.size() * 2 + 64;
        const std::uint64_t part_stride = OUT * 2 + 64;
        sys.dram().write(w_addr, weights.data(), weights.size() * 2);
        sys.dram().write(in_addr, input.data(), input.size() * 2);

        for (unsigned s = 0; s < SEGS; ++s) {
            FcPartialJob job;
            job.weightBase = w_addr;
            job.inputBase = in_addr;
            job.outBase = part_base + s * part_stride;
            job.inputs = IN;
            job.segOffset = s * (IN / SEGS);
            job.segLen = IN / SEGS;
            job.rowBegin = 0;
            job.rowEnd = OUT;
            job.outBlock = 32;
            sim.loadProgram(s, genFcPartial(job));
        }
    });
}

TEST(FastPathEquivalence, FaultCampaign)
{
    // Scratchpad flips are keyed by (peId, committed-instruction
    // ordinal): block replay must charge the exact same ordinals the
    // interpreter does, or flips land on different instructions and
    // the DRAM image diverges.
    SystemConfig cfg = makeSystemConfig(1, 4);
    cfg.faults = FaultPlan::parse(
        "seed=7,dram-read=1e-3,retention=1e-4,sp-flip=1e-4,ecc=on");

    auto drive = [](Simulation &sim) {
        VipSystem &sys = sim.system();
        Rng rng(11);
        for (unsigned pe = 0; pe < 4; ++pe) {
            std::vector<std::int16_t> data(4096);
            for (auto &d : data)
                d = static_cast<std::int16_t>(rng.nextRange(-99, 99));
            const Addr src =
                sys.vaultBase(0) + pe * (16ull << 20);
            sys.dram().write(src, data.data(), data.size() * 2);
            AsmBuilder b;
            b.movImm(1, 0);
            b.movImm(2, 8);  // chunks
            b.movImm(3, static_cast<std::int64_t>(src));
            b.movImm(4, static_cast<std::int64_t>(src + (4ull << 20)));
            b.movImm(5, 1024);
            b.movImm(6, 512);
            b.movImm(7, 0);
            const auto loop = b.newLabel();
            b.bind(loop);
            b.ldSram(7, 3, 6);
            b.stSram(7, 4, 6);
            b.memfence();
            b.scalar(ScalarOp::Add, 3, 3, 5);
            b.scalar(ScalarOp::Add, 4, 4, 5);
            b.addImm(1, 1, 1);
            b.branch(BranchCond::Lt, 1, 2, loop);
            b.halt();
            sim.loadProgram(pe, b.finish());
        }
    };
    expectFastPathEquivalent(cfg, drive);

    // The campaign must actually fire for the equivalence to mean
    // anything.
    const Observed on = observe(cfg, true, drive);
    EXPECT_GT(on.faults.dramBitFlips + on.faults.retentionErrors +
                  on.faults.spBitFlips,
              0u);
}

TEST(FastPathEquivalence, SixteenVaultBp)
{
    // Every vault of a 16-vault machine runs the BP sweep; the fast
    // path must still match the interpreter bit for bit.
    const unsigned W = 12, H = 8, L = 8;
    const MrfProblem problem = makeProblem(W, H, L, 42);
    SystemConfig cfg = makeSystemConfig(16, 4);
    cfg.pe.strictHazards = true;

    expectFastPathEquivalent(cfg, [&](Simulation &sim) {
        VipSystem &sys = sim.system();
        for (unsigned v = 0; v < 16; ++v) {
            MrfDramLayout layout(sys.vaultBase(v), W, H, L);
            layout.upload(problem, sys.dram());
            const unsigned per = H / 4;
            for (unsigned pe = 0; pe < 4; ++pe) {
                sim.loadProgram(v * 4 + pe, genBpSweep(
                    layout, BpVariant{},
                    BpSweepJob{SweepDir::Right, pe * per,
                               (pe + 1) * per}));
            }
        }
    });
}

} // namespace
} // namespace vip
