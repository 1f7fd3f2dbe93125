/**
 * @file
 * A miniature VGG-style network — conv/ReLU, max-pool, and a
 * fully-connected classifier — running end to end on the simulated
 * VIP machine (Sec. IV-B/IV-C kernels) and verified bit-for-bit
 * against the reference implementation.
 *
 *   $ ./examples/vgg_inference
 *
 * Architecture (channel-last layouts throughout, as the paper's code
 * keeps "outputs in the right location to be consumed by the next
 * layer"):
 *   input 8x8x8 -> conv3x3(16) + ReLU -> pool2x2 -> fc(10)
 */

#include <cstdio>

#include "kernels/conv_kernel.hh"
#include "kernels/fc_kernel.hh"
#include "kernels/layout.hh"
#include "kernels/pool_kernel.hh"
#include "sim/rng.hh"
#include "system/simulation.hh"
#include "workloads/nn.hh"

using namespace vip;

int
main()
{
    const unsigned C = 8, H = 8, W = 8, OC = 16, CLASSES = 10;
    Rng rng(7);

    // Network parameters and input.
    FeatureMap input(C, H, W);
    for (auto &v : input.data)
        v = static_cast<Fx16>(rng.nextRange(-20, 20));
    const auto conv_w = randomWeights(
        static_cast<std::size_t>(OC) * C * 9, rng, 3);
    const auto conv_b = randomWeights(OC, rng, 20);
    const unsigned flat = OC * (H / 2) * (W / 2);
    const auto fc_w = randomWeights(
        static_cast<std::size_t>(CLASSES) * flat, rng, 2);
    const auto fc_b = randomWeights(CLASSES, rng, 30);

    // Reference pipeline.
    const FeatureMap ref_conv = convLayerVip(input, conv_w, conv_b, OC,
                                             3, C);
    const FeatureMap ref_pool = maxPool(ref_conv, 2);
    // The FC consumes the pooled map in the kernel's [y][x][c] order.
    std::vector<Fx16> ref_flat;
    for (unsigned y = 0; y < ref_pool.height; ++y) {
        for (unsigned x = 0; x < ref_pool.width; ++x) {
            for (unsigned c = 0; c < OC; ++c)
                ref_flat.push_back(ref_pool.at(c, y, x));
        }
    }
    const auto ref_out = fcLayerSegmented(ref_flat, fc_w, fc_b, CLASSES,
                                          1, false);

    // Simulated machine: one vault, 4 PEs.
    SystemConfig cfg = makeSystemConfig(1, 4);
    cfg.pe.strictHazards = true;
    VipSystem sys(cfg);
    const Addr base = sys.vaultBase(0);

    FmapDramLayout in_lay(base, C, H, W, 1);
    FmapDramLayout conv_lay(in_lay.end() + 4096, OC, H, W, 0);
    FmapDramLayout pool_lay(conv_lay.end() + 4096, OC, H / 2, W / 2, 0);
    const Addr filt = pool_lay.end() + 4096;
    const Addr bias = filt + (1 << 16);
    const Addr fcw = bias + 4096;
    const Addr fcb = fcw + fc_w.size() * 2 + 4096;
    const Addr logits = fcb + 4096;

    in_lay.upload(input, sys.dram());
    const auto blob = packFilters(conv_w, C, 3, 0, OC, 0, C);
    sys.dram().write(filt, blob.data(), blob.size() * 2);
    sys.dram().write(bias, conv_b.data(), conv_b.size() * 2);
    sys.dram().write(fcw, fc_w.data(), fc_w.size() * 2);
    sys.dram().write(fcb, fc_b.data(), fc_b.size() * 2);

    // Layer 1: convolution, rows split across the 4 PEs.
    for (unsigned pe = 0; pe < 4; ++pe) {
        ConvJob job;
        job.in = &in_lay;
        job.out = &conv_lay;
        job.filterBlob = filt;
        job.biasBlob = bias;
        job.zShard = C;
        job.filters = OC;
        job.rowBegin = pe * (H / 4);
        job.rowEnd = (pe + 1) * (H / 4);
        job.width = W;
        sys.pe(pe).loadProgram(genConvPass(job));
    }
    Cycles t0 = sys.now();
    sys.run();
    std::printf("conv  : %6llu cycles\n",
                static_cast<unsigned long long>(sys.now() - t0));

    // Layer 2: 2x2 max pooling.
    for (unsigned pe = 0; pe < 4; ++pe) {
        PoolJob job;
        job.in = &conv_lay;
        job.out = &pool_lay;
        job.rowBegin = pe * (H / 8);
        job.rowEnd = (pe + 1) * (H / 8);
        job.width = W / 2;
        job.chunk = OC;
        sys.pe(pe).loadProgram(genPool(job));
    }
    t0 = sys.now();
    sys.run();
    std::printf("pool  : %6llu cycles\n",
                static_cast<unsigned long long>(sys.now() - t0));

    // Layer 3: the classifier on one PE. The pooled map's flat order
    // is exactly the FC input vector.
    FcPartialJob fc;
    fc.weightBase = fcw;
    fc.inputBase = pool_lay.at(0, 0);
    fc.outBase = logits;
    fc.biasBase = fcb;
    fc.inputs = flat;
    fc.segLen = flat;
    fc.rowBegin = 0;
    fc.rowEnd = 16;  // padded to the out-block; extras read zero rows
    fc.outBlock = 16;
    fc.finalize = true;
    sys.pe(0).loadProgram(genFcPartial(fc));
    t0 = sys.now();
    sys.run();
    std::printf("fc    : %6llu cycles\n",
                static_cast<unsigned long long>(sys.now() - t0));

    // Verify every layer bit-for-bit.
    const bool conv_ok = conv_lay.download(sys.dram()).data ==
                         ref_conv.data;
    const bool pool_ok = pool_lay.download(sys.dram()).data ==
                         ref_pool.data;
    std::printf("\nconv matches reference: %s\n", conv_ok ? "yes" : "NO");
    std::printf("pool matches reference: %s\n", pool_ok ? "yes" : "NO");

    std::printf("\n%-6s %10s %10s\n", "class", "simulated", "reference");
    bool fc_ok = true;
    int best = 0;
    for (unsigned k = 0; k < CLASSES; ++k) {
        const Fx16 got = sys.dram().load<Fx16>(logits + 2 * k);
        // finalize applies ReLU; compare against clamped reference.
        const Fx16 want = reluFx(ref_out[k]);
        std::printf("%-6u %10d %10d\n", k, got, want);
        fc_ok = fc_ok && got == want;
        if (got > sys.dram().load<Fx16>(logits + 2 * best))
            best = static_cast<int>(k);
    }
    std::printf("\npredicted class: %d\n", best);
    std::printf("fc matches reference: %s\n", fc_ok ? "yes" : "NO");
    return conv_ok && pool_ok && fc_ok ? 0 : 1;
}
