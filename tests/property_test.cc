/**
 * @file
 * Property-style sweeps: kernel/reference bit-exactness across
 * parameterized shapes, and a random-program fuzzer that exercises the
 * PE's issue logic, interlocks, and memory plumbing with arbitrary
 * (but structurally valid) instruction sequences.
 */

#include <gtest/gtest.h>

#include <string>

#include "equivalence.hh"
#include "isa/builder.hh"
#include "kernels/bp_kernel.hh"
#include "kernels/conv_kernel.hh"
#include "kernels/fc_kernel.hh"
#include "kernels/layout.hh"
#include "kernels/pool_kernel.hh"
#include "random_program.hh"
#include "sim/rng.hh"
#include "system/simulation.hh"
#include "workloads/flow.hh"
#include "workloads/nn.hh"

namespace vip {
namespace {

// --- BP sweeps over grid shapes and label counts ----------------------

struct BpShape
{
    unsigned w, h, labels;
    SweepDir dir;
};

class BpShapeSweep : public ::testing::TestWithParam<BpShape>
{
};

TEST_P(BpShapeSweep, KernelMatchesReference)
{
    const auto [W, H, L, dir] = GetParam();
    Rng rng(W * 131 + H * 17 + L);
    MrfProblem p;
    p.width = W;
    p.height = H;
    p.labels = L;
    p.smoothCost = truncatedLinearSmoothness(L, 2, 9);
    p.dataCost.resize(static_cast<std::size_t>(W) * H * L);
    for (auto &c : p.dataCost)
        c = static_cast<Fx16>(rng.nextBelow(30));

    BpState ref(p);
    switch (dir) {
      case SweepDir::Right: ref.sweepRight(); break;
      case SweepDir::Left: ref.sweepLeft(); break;
      case SweepDir::Down: ref.sweepDown(); break;
      case SweepDir::Up: ref.sweepUp(); break;
    }

    SystemConfig cfg = makeSystemConfig(1, 1);
    cfg.pe.strictHazards = true;
    VipSystem sys(cfg);
    MrfDramLayout layout(sys.vaultBase(0), W, H, L);
    layout.upload(p, sys.dram());
    const bool vertical = dir == SweepDir::Down || dir == SweepDir::Up;
    sys.pe(0).loadProgram(genBpSweep(
        layout, BpVariant{}, BpSweepJob{dir, 0, vertical ? W : H}));
    sys.run(50'000'000);
    ASSERT_TRUE(sys.allIdle());

    BpState got(p);
    layout.downloadMessages(got, sys.dram());
    for (unsigned d = 0; d < NumMsgDirs; ++d) {
        for (unsigned y = 0; y < H; ++y) {
            for (unsigned x = 0; x < W; ++x) {
                for (unsigned l = 0; l < L; ++l) {
                    ASSERT_EQ(ref.msgAt(static_cast<MsgDir>(d), x, y)[l],
                              got.msgAt(static_cast<MsgDir>(d), x, y)[l])
                        << W << "x" << H << " L" << L;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BpShapeSweep,
    ::testing::Values(BpShape{6, 5, 2, SweepDir::Right},
                      BpShape{5, 9, 4, SweepDir::Down},
                      BpShape{17, 3, 8, SweepDir::Left},
                      BpShape{3, 13, 16, SweepDir::Up},
                      BpShape{9, 9, 9, SweepDir::Right},   // odd L
                      BpShape{2, 2, 16, SweepDir::Down},   // minimal
                      BpShape{31, 2, 5, SweepDir::Left},
                      BpShape{2, 33, 12, SweepDir::Up}));

// --- Convolution shapes ------------------------------------------------

struct ConvShape
{
    unsigned c, oc, h, w, f;  // channels, filters, fmap, group size
};

class ConvShapeSweep : public ::testing::TestWithParam<ConvShape>
{
};

TEST_P(ConvShapeSweep, KernelMatchesReference)
{
    const auto [C, OC, H, W, F] = GetParam();
    Rng rng(C * 7 + OC * 5 + H + W);
    FeatureMap in(C, H, W);
    for (auto &v : in.data)
        v = static_cast<Fx16>(rng.nextRange(-12, 12));
    const auto filters = randomWeights(
        static_cast<std::size_t>(OC) * C * 9, rng, 3);
    const auto bias = randomWeights(OC, rng, 15);
    const FeatureMap want = convLayerVip(in, filters, bias, OC, 3, C);

    for (bool col_major : {false, true}) {
        SystemConfig cfg = makeSystemConfig(1, 1);
        cfg.pe.strictHazards = true;
        VipSystem sys(cfg);
        FmapDramLayout in_lay(sys.vaultBase(0), C, H, W, 1, col_major);
        FmapDramLayout out_lay(in_lay.end() + 4096, OC, H, W, 0,
                               col_major);
        const Addr filt = out_lay.end() + 4096;
        Addr cursor = filt;
        for (unsigned g = 0; g < OC / F; ++g) {
            const auto blob = packFilters(filters, C, 3, g * F, F, 0, C);
            sys.dram().write(cursor, blob.data(), blob.size() * 2);
            cursor += blob.size() * 2;
        }
        const Addr bias_addr = cursor + 64;
        sys.dram().write(bias_addr, bias.data(), bias.size() * 2);
        in_lay.upload(in, sys.dram());

        ConvJob job;
        job.in = &in_lay;
        job.out = &out_lay;
        job.filterBlob = filt;
        job.biasBlob = bias_addr;
        job.zShard = C;
        job.filters = F;
        job.groups = OC / F;
        job.rowBegin = 0;
        job.rowEnd = H;
        job.width = W;
        sys.pe(0).loadProgram(genConvPass(job));
        sys.run(100'000'000);
        ASSERT_TRUE(sys.allIdle());
        EXPECT_EQ(want.data, out_lay.download(sys.dram()).data)
            << "col_major=" << col_major;
        EXPECT_EQ(sys.pe(0).stats().timingHazards.value(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvShapeSweep,
    ::testing::Values(ConvShape{4, 4, 5, 6, 2},
                      ConvShape{8, 8, 4, 9, 4},
                      ConvShape{3, 32, 4, 6, 16},   // c1_1-like
                      ConvShape{16, 2, 7, 5, 2},
                      ConvShape{8, 12, 3, 8, 4},    // uneven groups? 12/4=3
                      ConvShape{2, 6, 6, 4, 6}));

// --- Pooling shapes -----------------------------------------------------

struct PoolShape
{
    unsigned c, h, w, chunk;
};

class PoolShapeSweep : public ::testing::TestWithParam<PoolShape>
{
};

TEST_P(PoolShapeSweep, KernelMatchesReference)
{
    const auto [C, H, W, chunk] = GetParam();
    Rng rng(C + H * 3 + W * 11);
    FeatureMap in(C, H, W);
    for (auto &v : in.data)
        v = static_cast<Fx16>(rng.nextRange(-30000, 30000));
    const FeatureMap want = maxPool(in, 2);

    SystemConfig cfg = makeSystemConfig(1, 1);
    cfg.pe.strictHazards = true;
    VipSystem sys(cfg);
    FmapDramLayout in_lay(sys.vaultBase(0), C, H, W, 0);
    FmapDramLayout out_lay(in_lay.end() + 4096, C, H / 2, W / 2, 0);
    in_lay.upload(in, sys.dram());

    PoolJob job;
    job.in = &in_lay;
    job.out = &out_lay;
    job.rowBegin = 0;
    job.rowEnd = H / 2;
    job.width = W / 2;
    job.chunk = chunk;
    sys.pe(0).loadProgram(genPool(job));
    sys.run(50'000'000);
    ASSERT_TRUE(sys.allIdle());
    EXPECT_EQ(want.data, out_lay.download(sys.dram()).data);
}

INSTANTIATE_TEST_SUITE_P(Shapes, PoolShapeSweep,
                         ::testing::Values(PoolShape{4, 4, 4, 4},
                                           PoolShape{8, 6, 10, 2},
                                           PoolShape{64, 4, 8, 64},
                                           PoolShape{6, 8, 6, 3},
                                           PoolShape{512, 2, 4, 256}));

// --- FC shapes ----------------------------------------------------------

struct FcShape
{
    unsigned in, out, block;
};

class FcShapeSweep : public ::testing::TestWithParam<FcShape>
{
};

TEST_P(FcShapeSweep, KernelMatchesReference)
{
    const auto [IN, OUT, OB] = GetParam();
    Rng rng(IN + OUT * 3);
    const auto input = randomWeights(IN, rng, 25);
    const auto weights = randomWeights(
        static_cast<std::size_t>(OUT) * IN, rng, 4);
    const auto bias = randomWeights(OUT, rng, 40);
    const auto want = fcLayerSegmented(input, weights, bias, OUT, 1);

    SystemConfig cfg = makeSystemConfig(1, 1);
    cfg.pe.strictHazards = true;
    VipSystem sys(cfg);
    const Addr base = sys.vaultBase(0);
    const Addr w_addr = base;
    const Addr in_addr = w_addr + weights.size() * 2 + 64;
    const Addr bias_addr = in_addr + input.size() * 2 + 64;
    const Addr out_addr = bias_addr + bias.size() * 2 + 64;
    sys.dram().write(w_addr, weights.data(), weights.size() * 2);
    sys.dram().write(in_addr, input.data(), input.size() * 2);
    sys.dram().write(bias_addr, bias.data(), bias.size() * 2);

    FcPartialJob job;
    job.weightBase = w_addr;
    job.inputBase = in_addr;
    job.outBase = out_addr;
    job.biasBase = bias_addr;
    job.inputs = IN;
    job.segLen = IN;
    job.rowBegin = 0;
    job.rowEnd = OUT;
    job.outBlock = OB;
    job.finalize = true;
    sys.pe(0).loadProgram(genFcPartial(job));
    sys.run(50'000'000);
    ASSERT_TRUE(sys.allIdle());

    std::vector<Fx16> got(OUT);
    sys.dram().read(out_addr, got.data(), got.size() * 2);
    EXPECT_EQ(want, got);
}

INSTANTIATE_TEST_SUITE_P(Shapes, FcShapeSweep,
                         ::testing::Values(FcShape{16, 8, 8},
                                           FcShape{100, 32, 16},
                                           FcShape{33, 64, 64},
                                           FcShape{512, 16, 8},
                                           FcShape{7, 128, 32}));

// --- Random-program fuzzing --------------------------------------------

/** Block replays and fast-forward warps seen by a fuzz campaign. */
struct Coverage
{
    std::uint64_t blockRuns = 0;
    std::uint64_t warps = 0;

    void
    add(const Runs &runs)
    {
        for (const Observed &o : runs) {
            blockRuns += o.blockRuns;
            warps += o.warps;
        }
    }
};

TEST(Fuzz, RandomProgramsRunToCompletion)
{
    // Every trial runs under every execution strategy against the
    // oracle. The two PEs share a vault; between them ld.sram, ld.reg,
    // memfence and v.drain reach every external wake-up a PE skipped
    // by the fast-forward loop can get, and the bounded backward loops
    // give the fast path blocks to chain.
    Rng rng(20260704);
    Coverage seen;
    for (unsigned trial = 0; trial < 60; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        const SystemConfig cfg = makeSystemConfig(1, 2);
        const Addr base = VipSystem(cfg).vaultBase(0);
        const auto prog0 = randomProgram(rng, base);
        const auto prog1 = randomProgram(rng, base);
        seen.add(expectEquivalent(
            cfg, [&](VipSystem &sys, const RunHook &run) {
                sys.pe(0).loadProgram(prog0);
                sys.pe(1).loadProgram(prog1);
                run(2'000'000);
            }));
    }
    EXPECT_GT(seen.blockRuns, 0u);
    EXPECT_GT(seen.warps, 0u);
}

TEST(Fuzz, RandomProgramsAcrossVaultsMatchTheOracle)
{
    // The multi-vault variant: eight PEs on four vaults, each program
    // addressing the next vault's DRAM, behind a two-entry transaction
    // queue. Remote deliveries, parked requests and ingress drains
    // reach every wake-up a vault skipped by the fast-forward loop can
    // get. Short run() phases let the test see requests parked.
    Rng rng(20261017);
    bool parked = false;
    Coverage seen;
    for (unsigned trial = 0; trial < 30; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        SystemConfig cfg = makeSystemConfig(4, 2);
        cfg.mem.transQueueDepth = 2;
        std::vector<std::vector<Instruction>> progs;
        {
            const VipSystem shape(cfg);
            for (unsigned pe = 0; pe < shape.numPes(); ++pe) {
                const unsigned v = (shape.vaultOf(pe) + 1) % 4;
                progs.push_back(randomProgram(rng, shape.vaultBase(v)));
            }
        }
        seen.add(expectEquivalent(
            cfg, [&](VipSystem &sys, const RunHook &run) {
                for (unsigned pe = 0; pe < sys.numPes(); ++pe)
                    sys.pe(pe).loadProgram(progs[pe]);
                for (unsigned i = 0; !sys.allIdle(); ++i) {
                    ASSERT_LT(i, 100'000u);
                    run(23);
                    parked |= parkedInIngress(sys);
                }
            }));
    }
    EXPECT_TRUE(parked) << "no trial parked a request in ingress";
    EXPECT_GT(seen.blockRuns, 0u);
    EXPECT_GT(seen.warps, 0u);
}

TEST(Fuzz, RandomProgramsSurviveEncodingRoundTrip)
{
    Rng rng(99887766);
    for (unsigned trial = 0; trial < 40; ++trial) {
        const auto prog = randomProgram(rng, 0);
        const auto back = decodeProgram(encodeProgram(prog));
        ASSERT_EQ(back.size(), prog.size());
        for (std::size_t i = 0; i < prog.size(); ++i)
            EXPECT_EQ(encode(back[i]), encode(prog[i]));
    }
}

// --- Optical flow end to end -------------------------------------------

TEST(OpticalFlow, KernelRecoversMotionBitExact)
{
    Rng rng(5);
    const FlowPair pair = makeSyntheticFlow(24, 16, 1, rng);
    MrfProblem mrf = flowMrf(pair, 20, 5, 20);

    BpState ref(mrf);
    ref.iterate();
    ref.iterate();

    SystemConfig cfg = makeSystemConfig(1, 4);
    cfg.pe.strictHazards = true;
    VipSystem sys(cfg);
    MrfDramLayout layout(sys.vaultBase(0), 24, 16, mrf.labels);
    layout.upload(mrf, sys.dram());
    const Addr flags = layout.end() + 64;
    for (unsigned pe = 0; pe < 4; ++pe) {
        auto slice = [&](unsigned lanes) {
            const unsigned per = (lanes + 3) / 4;
            const unsigned b2 = std::min(lanes, pe * per);
            return std::make_pair(b2, std::min(lanes, b2 + per));
        };
        const auto [hb, he] = slice(16u);
        const auto [vb, ve] = slice(24u);
        BpSweepJob jobs[4] = {{SweepDir::Right, hb, he},
                              {SweepDir::Left, hb, he},
                              {SweepDir::Down, vb, ve},
                              {SweepDir::Up, vb, ve}};
        sys.pe(pe).loadProgram(
            genBpIterations(layout, BpVariant{}, jobs, 2, flags, pe, 4));
    }
    sys.run(100'000'000);
    ASSERT_TRUE(sys.allIdle());

    BpState got(mrf);
    layout.downloadMessages(got, sys.dram());
    const auto labels = got.decode();
    EXPECT_EQ(ref.decode(), labels);
    EXPECT_GT(flowAccuracy(pair, labels), 0.7);
}

} // namespace
} // namespace vip
