/**
 * @file
 * Depth from stereo with belief propagation — the application VIP was
 * designed around (Sec. II-A) — running end to end on the simulated
 * machine: a synthetic random-dot stereogram becomes an MRF, four PEs
 * of one vault run BP-M iterations with barriers, and the decoded
 * disparity map is printed next to the ground truth.
 *
 *   $ ./examples/stereo_depth [width height labels iterations]
 */

#include <cstdio>
#include <cstdlib>

#include "kernels/bp_kernel.hh"
#include "kernels/layout.hh"
#include "sim/rng.hh"
#include "system/simulation.hh"
#include "workloads/stereo.hh"

using namespace vip;

namespace {

void
printMap(const char *title, const std::vector<std::uint8_t> &map,
         unsigned w, unsigned h)
{
    std::printf("%s\n", title);
    // Downsample to at most ~64 columns of ASCII.
    const unsigned step = std::max(1u, w / 64);
    for (unsigned y = 0; y < h; y += 2 * step) {
        for (unsigned x = 0; x < w; x += step)
            std::printf("%c", " .:-=+*#%@"[std::min<unsigned>(
                                 map[y * w + x], 9)]);
        std::printf("\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned W = argc > 1 ? std::atoi(argv[1]) : 64;
    const unsigned H = argc > 2 ? std::atoi(argv[2]) : 32;
    const unsigned L = argc > 3 ? std::atoi(argv[3]) : 8;
    const unsigned iters = argc > 4 ? std::atoi(argv[4]) : 3;

    std::printf("synthesizing a %ux%u stereo pair (%u disparities)...\n",
                W, H, L);
    Rng rng(2024);
    const StereoPair pair = makeSyntheticStereo(W, H, L, rng);
    MrfProblem mrf = stereoMrf(pair, L, 20, 4, 16);

    // One vault, four PEs — one of the paper's 32 parallel tiles.
    SystemConfig cfg = makeSystemConfig(1, 4);
    cfg.pe.strictHazards = true;  // prove the kernel is well-scheduled
    VipSystem sys(cfg);
    MrfDramLayout layout(sys.vaultBase(0), W, H, L);
    layout.upload(mrf, sys.dram());
    const Addr flags = layout.end() + 64;

    const unsigned num_pes = 4;
    for (unsigned pe = 0; pe < num_pes; ++pe) {
        const auto jobs = bpTileJobs(W, H, pe, num_pes);
        sys.pe(pe).loadProgram(genBpIterations(layout, BpVariant{}, jobs,
                                               iters, flags, pe,
                                               num_pes));
    }

    std::printf("running %u BP-M iterations on 4 PEs...\n", iters);
    const Cycles cycles = sys.run();
    std::printf("done in %llu cycles = %.3f ms of VIP time "
                "(%.1f GOp/s/vault, %.1f GB/s/vault)\n",
                static_cast<unsigned long long>(cycles),
                cyclesToMs(cycles), sys.achievedGops(),
                sys.achievedBandwidthGBs());

    // Decode from the simulated messages.
    BpState result(mrf);
    layout.downloadMessages(result, sys.dram());
    const auto labels = result.decode();

    printMap("\nground truth:", pair.groundTruth, W, H);
    printMap("\nVIP disparity:", labels, W, H);

    const double acc = disparityAccuracy(pair, labels, 1);
    std::printf("\ndisparity accuracy (within 1 level): %.1f%%\n",
                100.0 * acc);

    // Cross-check against the reference implementation, bit for bit.
    BpState ref(mrf);
    for (unsigned i = 0; i < iters; ++i)
        ref.iterate();
    const bool exact = ref.decode() == labels;
    std::printf("bit-exact vs reference BP-M: %s\n",
                exact ? "yes" : "NO");
    return exact && acc > 0.5 ? 0 : 1;
}
