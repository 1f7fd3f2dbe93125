/**
 * @file
 * MRF image de-noising on VIP — another of the labeling tasks the
 * paper's introduction motivates (Sec. II-A: "image de-noising,
 * depth-from-stereo, or detecting optical flow"). The labels are
 * intensity levels; data costs penalize deviation from the observed
 * noisy pixel and the truncated-linear smoothness prior favors
 * piecewise-constant reconstructions.
 *
 *   $ ./examples/denoise [width height levels iterations]
 */

#include <cstdio>
#include <cstdlib>

#include "kernels/bp_kernel.hh"
#include "kernels/layout.hh"
#include "sim/rng.hh"
#include "system/simulation.hh"
#include "workloads/mrf.hh"

using namespace vip;

namespace {

void
printImage(const char *title, const std::vector<std::uint8_t> &img,
           unsigned w, unsigned h, unsigned levels)
{
    std::printf("%s\n", title);
    const char *ramp = " .:-=+*#%@";
    for (unsigned y = 0; y < h; y += 2) {
        for (unsigned x = 0; x < w; ++x) {
            const unsigned v = img[y * w + x] * 9 / (levels - 1);
            std::printf("%c", ramp[std::min(v, 9u)]);
        }
        std::printf("\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned W = argc > 1 ? std::atoi(argv[1]) : 56;
    const unsigned H = argc > 2 ? std::atoi(argv[2]) : 28;
    const unsigned L = argc > 3 ? std::atoi(argv[3]) : 8;
    const unsigned iters = argc > 4 ? std::atoi(argv[4]) : 3;

    // Ground truth: flat background with two rectangles, then salt
    // noise flipping 20% of pixels to random levels.
    Rng rng(77);
    std::vector<std::uint8_t> truth(W * H, 1);
    for (unsigned y = H / 4; y < 3 * H / 4; ++y) {
        for (unsigned x = W / 6; x < W / 2; ++x)
            truth[y * W + x] = static_cast<std::uint8_t>(L - 2);
    }
    for (unsigned y = H / 3; y < 2 * H / 3; ++y) {
        for (unsigned x = 3 * W / 5; x < 9 * W / 10; ++x)
            truth[y * W + x] = static_cast<std::uint8_t>(L / 2);
    }
    std::vector<std::uint8_t> noisy = truth;
    unsigned flipped = 0;
    for (auto &v : noisy) {
        if (rng.nextBelow(100) < 20) {
            v = static_cast<std::uint8_t>(rng.nextBelow(L));
            ++flipped;
        }
    }

    // The MRF: quadratic-ish data cost, truncated-linear smoothness.
    MrfProblem mrf;
    mrf.width = W;
    mrf.height = H;
    mrf.labels = L;
    mrf.smoothCost = truncatedLinearSmoothness(L, 6, 24);
    mrf.dataCost.resize(static_cast<std::size_t>(W) * H * L);
    for (unsigned y = 0; y < H; ++y) {
        for (unsigned x = 0; x < W; ++x) {
            Fx16 *cost = mrf.dataCost.data() + mrf.pixelIndex(x, y);
            const int obs = noisy[y * W + x];
            for (unsigned l = 0; l < L; ++l) {
                const int d = std::abs(static_cast<int>(l) - obs);
                cost[l] = static_cast<Fx16>(std::min(4 * d * d, 36));
            }
        }
    }

    // Run on one vault (4 PEs) of the simulated machine.
    SystemConfig cfg = makeSystemConfig(1, 4);
    cfg.pe.strictHazards = true;
    VipSystem sys(cfg);
    MrfDramLayout layout(sys.vaultBase(0), W, H, L);
    layout.upload(mrf, sys.dram());
    const Addr flags = layout.end() + 64;
    for (unsigned pe = 0; pe < 4; ++pe) {
        const auto jobs = bpTileJobs(W, H, pe, 4);
        sys.pe(pe).loadProgram(genBpIterations(layout, BpVariant{}, jobs,
                                               iters, flags, pe, 4));
    }
    const Cycles cycles = sys.run();

    BpState result(mrf);
    layout.downloadMessages(result, sys.dram());
    const auto denoised = result.decode();

    printImage("\nnoisy input:", noisy, W, H, L);
    printImage("\nVIP de-noised:", denoised, W, H, L);

    unsigned noisy_err = 0, clean_err = 0;
    for (unsigned i = 0; i < truth.size(); ++i) {
        noisy_err += noisy[i] != truth[i];
        clean_err += denoised[i] != truth[i];
    }
    std::printf("\nflipped pixels: %u; wrong before: %u, wrong after: "
                "%u\n", flipped, noisy_err, clean_err);
    std::printf("simulated %llu cycles (%.3f ms of VIP time)\n",
                static_cast<unsigned long long>(cycles),
                cyclesToMs(cycles));
    const bool improved = clean_err * 2 < noisy_err;
    std::printf("de-noising %s\n",
                improved ? "recovered the image" : "FAILED");
    return improved ? 0 : 1;
}
