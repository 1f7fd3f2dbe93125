/**
 * @file
 * Verification of the generated convolution, pooling, and
 * fully-connected kernels against the reference implementations
 * (Sec. V-A methodology), with strict hazard checking throughout.
 */

#include <gtest/gtest.h>

#include "kernels/conv_kernel.hh"
#include "kernels/fc_kernel.hh"
#include "kernels/pool_kernel.hh"
#include "sim/rng.hh"
#include "system/simulation.hh"
#include "workloads/nn.hh"

namespace vip {
namespace {

FeatureMap
randomFmap(unsigned c, unsigned h, unsigned w, Rng &rng, int magnitude)
{
    FeatureMap f(c, h, w);
    for (auto &v : f.data)
        v = static_cast<Fx16>(rng.nextRange(-magnitude, magnitude));
    return f;
}

TEST(ConvKernel, SingleShardMatchesReference)
{
    const unsigned C = 8, H = 10, W = 12, OC = 4, K = 3;
    Rng rng(11);
    FeatureMap in = randomFmap(C, H, W, rng, 10);
    const auto filters = randomWeights(
        static_cast<std::size_t>(OC) * C * K * K, rng, 3);
    const auto bias = randomWeights(OC, rng, 20);

    const FeatureMap want = convLayerVip(in, filters, bias, OC, K, C);
    // With these magnitudes nothing saturates, so the plain reference
    // agrees too — a cross-check of the tiled semantics.
    ASSERT_EQ(want.data, convLayer(in, filters, bias, OC, K).data);

    SystemConfig cfg = makeSystemConfig(1, 1);
    cfg.pe.strictHazards = true;
    VipSystem sys(cfg);

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
    ASSERT_TRUE(sys.allIdle());

    const FeatureMap got = out_lay.download(sys.dram());
    for (unsigned c = 0; c < OC; ++c) {
        for (unsigned y = 0; y < H; ++y) {
            for (unsigned x = 0; x < W; ++x) {
                ASSERT_EQ(want.at(c, y, x), got.at(c, y, x))
                    << "c=" << c << " y=" << y << " x=" << x;
            }
        }
    }
    EXPECT_EQ(sys.pe(0).stats().timingHazards.value(), 0u);
}

TEST(ConvKernel, FilterGroupsAndRowSlices)
{
    // Two filter groups x two row slices on four PEs of one vault.
    const unsigned C = 8, H = 8, W = 10, OC = 8, K = 3;
    Rng rng(12);
    FeatureMap in = randomFmap(C, H, W, rng, 10);
    const auto filters = randomWeights(
        static_cast<std::size_t>(OC) * C * K * K, rng, 3);
    const auto bias = randomWeights(OC, rng, 20);
    const FeatureMap want = convLayerVip(in, filters, bias, OC, K, C);

    SystemConfig cfg = makeSystemConfig(1, 4);
    cfg.pe.strictHazards = true;
    VipSystem sys(cfg);
    const Addr base = sys.vaultBase(0);
    FmapDramLayout in_lay(base, C, H, W, 1);
    FmapDramLayout out_lay(in_lay.end() + 64, OC, H, W, 0);
    in_lay.upload(in, sys.dram());

    Addr cursor = out_lay.end() + 64;
    unsigned pe = 0;
    for (unsigned g = 0; g < 2; ++g) {
        const auto blob = packFilters(filters, C, K, g * 4, 4, 0, C);
        sys.dram().write(cursor, blob.data(), blob.size() * 2);
        const Addr blob_addr = cursor;
        cursor += blob.size() * 2 + 64;
        sys.dram().write(cursor, bias.data() + g * 4, 4 * 2);
        const Addr bias_addr = cursor;
        cursor += 64;
        for (unsigned slice = 0; slice < 2; ++slice) {
            ConvJob job;
            job.in = &in_lay;
            job.out = &out_lay;
            job.filterBlob = blob_addr;
            job.biasBlob = bias_addr;
            job.zShard = C;
            job.filters = 4;
            job.filterOffset = g * 4;
            job.rowBegin = slice * (H / 2);
            job.rowEnd = (slice + 1) * (H / 2);
            job.width = W;
            sys.pe(pe).loadProgram(genConvPass(job));
            ++pe;
        }
    }
    sys.run(50'000'000);
    ASSERT_TRUE(sys.allIdle());
    EXPECT_EQ(want.data, out_lay.download(sys.dram()).data);
}

TEST(ConvKernel, ZShardedWithAccumulationPass)
{
    const unsigned C = 16, H = 6, W = 8, OC = 4, K = 3;
    const unsigned ZS = 8;  // two shards
    Rng rng(13);
    FeatureMap in = randomFmap(C, H, W, rng, 8);
    const auto filters = randomWeights(
        static_cast<std::size_t>(OC) * C * K * K, rng, 3);
    const auto bias = randomWeights(OC, rng, 20);
    const FeatureMap want = convLayerVip(in, filters, bias, OC, K, ZS);

    SystemConfig cfg = makeSystemConfig(1, 4);
    cfg.pe.strictHazards = true;
    VipSystem sys(cfg);
    const Addr base = sys.vaultBase(0);
    FmapDramLayout in_lay(base, C, H, W, 1);
    FmapDramLayout part0(in_lay.end() + 64, OC, H, W, 0);
    FmapDramLayout part1(part0.end() + 64, OC, H, W, 0);
    FmapDramLayout out_lay(part1.end() + 64, OC, H, W, 0);
    in_lay.upload(in, sys.dram());

    Addr cursor = out_lay.end() + 64;
    const FmapDramLayout *parts[2] = {&part0, &part1};
    for (unsigned s = 0; s < 2; ++s) {
        const auto blob = packFilters(filters, C, K, 0, OC, s * ZS, ZS);
        sys.dram().write(cursor, blob.data(), blob.size() * 2);
        ConvJob job;
        job.in = &in_lay;
        job.out = parts[s];
        job.filterBlob = cursor;
        job.zShard = ZS;
        job.zOffset = s * ZS;
        job.filters = OC;
        job.rowBegin = 0;
        job.rowEnd = H;
        job.width = W;
        job.finalize = false;
        cursor += blob.size() * 2 + 64;
        sys.pe(s).loadProgram(genConvPass(job));
    }

    // Run the partial passes to completion, then accumulate.
    sys.run(50'000'000);
    ASSERT_TRUE(sys.allIdle());

    const unsigned chunk = W * OC;  // one row per chunk
    const auto bias_row = makeBiasRow(bias, chunk);
    sys.dram().write(cursor, bias_row.data(), bias_row.size() * 2);
    ConvAccumJob acc;
    acc.partials = {&part0, &part1};
    acc.out = &out_lay;
    acc.biasRowBlob = cursor;
    acc.rowBegin = 0;
    acc.rowEnd = H;
    acc.chunkElems = chunk;
    acc.chunksPerRow = 1;
    sys.pe(2).loadProgram(genConvAccum(acc));
    sys.run(50'000'000);
    ASSERT_TRUE(sys.allIdle());

    EXPECT_EQ(want.data, out_lay.download(sys.dram()).data);
    for (unsigned pe = 0; pe < 3; ++pe)
        EXPECT_EQ(sys.pe(pe).stats().timingHazards.value(), 0u) << pe;
}

TEST(PoolKernel, MatchesReference)
{
    const unsigned C = 16, H = 8, W = 12;
    Rng rng(14);
    FeatureMap in = randomFmap(C, H, W, rng, 1000);
    const FeatureMap want = maxPool(in, 2);

    SystemConfig cfg = makeSystemConfig(1, 1);
    cfg.pe.strictHazards = true;
    VipSystem sys(cfg);
    FmapDramLayout in_lay(sys.vaultBase(0), C, H, W, 0);
    FmapDramLayout out_lay(in_lay.end() + 64, C, H / 2, W / 2, 0);
    in_lay.upload(in, sys.dram());

    PoolJob job;
    job.in = &in_lay;
    job.out = &out_lay;
    job.rowBegin = 0;
    job.rowEnd = H / 2;
    job.width = W / 2;
    job.chunk = 8;  // two chunks per pixel
    sys.pe(0).loadProgram(genPool(job));
    sys.run(50'000'000);
    ASSERT_TRUE(sys.allIdle());
    EXPECT_EQ(want.data, out_lay.download(sys.dram()).data);
    EXPECT_EQ(sys.pe(0).stats().timingHazards.value(), 0u);
}

TEST(FcKernel, SinglePeFinalizedMatchesReference)
{
    const unsigned IN = 96, OUT = 64;
    Rng rng(15);
    const auto input = randomWeights(IN, rng, 30);
    const auto weights = randomWeights(
        static_cast<std::size_t>(OUT) * IN, rng, 5);
    const auto bias = randomWeights(OUT, rng, 50);
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
    job.outBlock = 32;
    job.finalize = true;
    sys.pe(0).loadProgram(genFcPartial(job));
    sys.run(50'000'000);
    ASSERT_TRUE(sys.allIdle());

    std::vector<Fx16> got(OUT);
    sys.dram().read(out_addr, got.data(), got.size() * 2);
    EXPECT_EQ(want, got);
    EXPECT_EQ(sys.pe(0).stats().timingHazards.value(), 0u);
}

TEST(FcKernel, SegmentedWithAccumulationMatchesReference)
{
    const unsigned IN = 128, OUT = 64, SEGS = 4;
    Rng rng(16);
    const auto input = randomWeights(IN, rng, 30);
    const auto weights = randomWeights(
        static_cast<std::size_t>(OUT) * IN, rng, 5);
    const auto bias = randomWeights(OUT, rng, 50);
    const auto want = fcLayerSegmented(input, weights, bias, OUT, SEGS);

    SystemConfig cfg = makeSystemConfig(1, 4);
    cfg.pe.strictHazards = true;
    VipSystem sys(cfg);
    const Addr base = sys.vaultBase(0);
    const Addr w_addr = base;
    const Addr in_addr = w_addr + weights.size() * 2 + 64;
    const Addr bias_addr = in_addr + input.size() * 2 + 64;
    const Addr part_base = bias_addr + bias.size() * 2 + 64;
    const std::uint64_t part_stride = OUT * 2 + 64;
    const Addr out_addr = part_base + part_stride * (SEGS + 1);
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
    ASSERT_TRUE(sys.allIdle());

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
    ASSERT_TRUE(sys.allIdle());

    std::vector<Fx16> got(OUT);
    sys.dram().read(out_addr, got.data(), got.size() * 2);
    EXPECT_EQ(want, got);
}

} // namespace
} // namespace vip
