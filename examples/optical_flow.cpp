/**
 * @file
 * Optical flow on VIP — the third labeling task from the paper's
 * introduction (Sec. II-A). Labels enumerate 2D displacements, so the
 * smoothness cost is a genuinely two-dimensional table: exactly the
 * "no assumptions on the structure of the smoothness cost" generality
 * the paper claims over fixed-function BP accelerators (Sec. V-B).
 *
 *   $ ./examples/optical_flow [width height radius iterations]
 */

#include <cstdio>
#include <cstdlib>

#include "kernels/bp_kernel.hh"
#include "kernels/layout.hh"
#include "sim/rng.hh"
#include "system/simulation.hh"
#include "workloads/flow.hh"

using namespace vip;

namespace {

void
printFlow(const char *title, const FlowPair &pair,
          const std::vector<std::uint8_t> &labels)
{
    // One arrow glyph per motion vector.
    std::printf("%s\n", title);
    for (unsigned y = 0; y < pair.height; y += 2) {
        for (unsigned x = 0; x < pair.width; ++x) {
            const auto [dx, dy] =
                pair.displacement(labels[y * pair.width + x]);
            char c = '.';
            if (dx == 0 && dy == 0) c = 'o';
            else if (dx > 0 && dy == 0) c = '>';
            else if (dx < 0 && dy == 0) c = '<';
            else if (dy > 0 && dx == 0) c = 'v';
            else if (dy < 0 && dx == 0) c = '^';
            else c = 'x';
            std::printf("%c", c);
        }
        std::printf("\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned W = argc > 1 ? std::atoi(argv[1]) : 48;
    const unsigned H = argc > 2 ? std::atoi(argv[2]) : 24;
    const unsigned R = argc > 3 ? std::atoi(argv[3]) : 1;
    const unsigned iters = argc > 4 ? std::atoi(argv[4]) : 3;

    Rng rng(4096);
    const FlowPair pair = makeSyntheticFlow(W, H, R, rng);
    MrfProblem mrf = flowMrf(pair, 20, 5, 20);
    std::printf("flow MRF: %ux%u pixels, %u displacement labels\n", W, H,
                pair.labels());

    SystemConfig cfg = makeSystemConfig(1, 4);
    cfg.pe.strictHazards = true;
    VipSystem sys(cfg);
    MrfDramLayout layout(sys.vaultBase(0), W, H, mrf.labels);
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
    const auto labels = result.decode();

    printFlow("\nground-truth motion:", pair, pair.groundTruth);
    printFlow("\nVIP motion field:", pair, labels);

    const double acc = flowAccuracy(pair, labels);
    std::printf("\nexact-displacement accuracy: %.1f%%\n", 100.0 * acc);
    std::printf("simulated %llu cycles (%.3f ms of VIP time)\n",
                static_cast<unsigned long long>(cycles),
                cyclesToMs(cycles));

    BpState ref(mrf);
    for (unsigned i = 0; i < iters; ++i)
        ref.iterate();
    const bool exact = ref.decode() == labels;
    std::printf("bit-exact vs reference BP-M: %s\n", exact ? "yes" : "NO");
    return exact && acc > 0.7 ? 0 : 1;
}
