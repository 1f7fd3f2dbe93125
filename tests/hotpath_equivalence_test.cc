/**
 * @file
 * Hot-path equivalence pin: the inner-loop overhauls (width-templated
 * vector kernels, zero-copy DMA, pooled MemRequests, per-bank vault
 * queues) must be invisible in every architectural observable. Each
 * scenario runs a representative kernel (BP, conv, pool, FC) and
 * asserts the final cycle count, the committed-instruction count, and
 * the DRAM fingerprint against golden values captured from the seed
 * implementation — a regression pin that complements
 * ff_equivalence_test (which checks warped-vs-ticked equivalence but
 * would not notice both runs drifting together).
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
#include "sim/rng.hh"
#include "system/simulation.hh"
#include "workloads/mrf.hh"
#include "workloads/nn.hh"

namespace vip {
namespace {

/** The observables the optimizations must not perturb. */
struct Golden
{
    Cycles cycles;
    std::uint64_t instructions;
    std::uint64_t dramDigest;
};

void
expectGolden(SystemConfig cfg,
             const std::function<void(VipSystem &)> &drive,
             const Golden &want)
{
    VipSystem sys(cfg);
    drive(sys);
    ASSERT_TRUE(sys.allIdle());
    std::uint64_t instructions = 0;
    for (unsigned pe = 0; pe < sys.numPes(); ++pe)
        instructions += sys.pe(pe).stats().instructions.value();
    EXPECT_EQ(sys.now(), want.cycles);
    EXPECT_EQ(instructions, want.instructions);
    EXPECT_EQ(sys.dram().fingerprint(), want.dramDigest);
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

TEST(HotpathEquivalence, BpSweepFourPes)
{
    const unsigned W = 12, H = 8, L = 8;
    const MrfProblem problem = makeProblem(W, H, L, 42);
    SystemConfig cfg = makeSystemConfig(1, 4);
    cfg.pe.strictHazards = true;

    expectGolden(cfg, [&](VipSystem &sys) {
        MrfDramLayout layout(sys.vaultBase(0), W, H, L);
        layout.upload(problem, sys.dram());
        const unsigned per = H / 4;
        for (unsigned pe = 0; pe < 4; ++pe) {
            sys.pe(pe).loadProgram(genBpSweep(
                layout, BpVariant{},
                BpSweepJob{SweepDir::Right, pe * per, (pe + 1) * per}));
        }
        sys.run(50'000'000);
        // Cycles re-pinned (2043 -> 2048) when NoC events gained the
        // canonical (cycle, node, lane key) total order: same-cycle
        // deliveries at one router now tie-break by packet identity
        // instead of heap happenstance, which shifts link-contention
        // timing slightly. Instructions and the DRAM
        // digest are order-invariant and did not move.
    }, Golden{2048, 3064, 8335395983873963827ull});
}

TEST(HotpathEquivalence, ConvSingleShard)
{
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

    expectGolden(cfg, [&](VipSystem &sys) {
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
        sys.pe(0).loadProgram(genConvPass(job));
        sys.run(50'000'000);
    }, Golden{14448, 7337, 17936303181918984730ull});
}

TEST(HotpathEquivalence, PoolLayer)
{
    const unsigned C = 16, H = 8, W = 12;
    Rng rng(14);
    FeatureMap in(C, H, W);
    for (auto &v : in.data)
        v = static_cast<Fx16>(rng.nextRange(-1000, 1000));

    SystemConfig cfg = makeSystemConfig(1, 1);
    cfg.pe.strictHazards = true;

    expectGolden(cfg, [&](VipSystem &sys) {
        FmapDramLayout in_lay(sys.vaultBase(0), C, H, W, 0);
        FmapDramLayout out_lay(in_lay.end() + 64, C, H / 2, W / 2, 0);
        in_lay.upload(in, sys.dram());

        PoolJob job;
        job.in = &in_lay;
        job.out = &out_lay;
        job.rowBegin = 0;
        job.rowEnd = H / 2;
        job.width = W / 2;
        job.chunk = C;
        sys.pe(0).loadProgram(genPool(job));
        sys.run(50'000'000);
    }, Golden{1834, 563, 8116046076812699434ull});
}

TEST(HotpathEquivalence, FcPartialThenAccum)
{
    const unsigned IN = 128, OUT = 64, SEGS = 4;
    Rng rng(16);
    const auto input = randomWeights(IN, rng, 30);
    const auto weights = randomWeights(
        static_cast<std::size_t>(OUT) * IN, rng, 5);
    const auto bias = randomWeights(OUT, rng, 50);

    SystemConfig cfg = makeSystemConfig(1, 4);
    cfg.pe.strictHazards = true;

    expectGolden(cfg, [&](VipSystem &sys) {
        const Addr base = sys.vaultBase(0);
        const Addr w_addr = base;
        const Addr in_addr = w_addr + weights.size() * 2 + 64;
        const Addr bias_addr = in_addr + input.size() * 2 + 64;
        const Addr out_addr = bias_addr + bias.size() * 2 + 64;
        const Addr part_base = out_addr + OUT * 2 + 64;
        const std::uint64_t part_stride = OUT * 2 + 64;
        sys.dram().write(w_addr, weights.data(), weights.size() * 2);
        sys.dram().write(in_addr, input.data(), input.size() * 2);
        sys.dram().write(bias_addr, bias.data(), bias.size() * 2);

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
            sys.pe(s).loadProgram(genFcPartial(job));
        }
        sys.run(50'000'000);

        FcAccumJob acc;
        acc.partialBase0 = part_base;
        acc.strideOuter = part_stride;
        acc.countOuter = SEGS;
        acc.strideInner = 0;
        acc.countInner = 1;
        acc.outBase = out_addr;
        acc.biasBase = bias_addr;
        acc.outBegin = 0;
        acc.outEnd = OUT;
        acc.chunk = 32;
        sys.pe(0).loadProgram(genFcAccum(acc));
        sys.run(50'000'000);
       // Cycles re-pinned (3676 -> 3667) with the canonical NoC event
       // order (see BpSweepFourPes); instructions/digest unchanged.
    }, Golden{3667, 3592, 2280018211753887088ull});
}

} // namespace
} // namespace vip
