/**
 * @file
 * Regenerates Sec. VII (RTL synthesis): per-PE area breakdown and
 * activity-driven power for the BP and CNN kernels, scaled to the
 * 128-PE array, plus the HMC power estimates the paper quotes.
 */

#include <cstdio>

#include "common.hh"
#include "kernels/bp_kernel.hh"
#include "kernels/conv_kernel.hh"
#include "kernels/layout.hh"
#include "model/power.hh"
#include "sim/rng.hh"
#include "system/simulation.hh"

using namespace vip;

namespace {

/** Run a BP sweep on one PE and return (stats-driven) power. */
double
bpPeWatts(const PePowerModel &model)
{
    SystemConfig cfg = makeSystemConfig(1, 1);
    VipSystem sys(cfg);
    MrfDramLayout layout(sys.vaultBase(0), 64, 32, 16);
    sys.pe(0).loadProgram(genBpSweep(
        layout, BpVariant{},
        BpSweepJob{SweepDir::Right, 0, 32}));
    const Cycles cycles = sys.run();
    return model.peWatts(sys.pe(0).stats(), cycles, /*mul_fraction=*/0.0);
}

/** Run a conv pass on one PE and return power. */
double
cnnPeWatts(const PePowerModel &model)
{
    SystemConfig cfg = makeSystemConfig(1, 1);
    VipSystem sys(cfg);
    FmapDramLayout in_lay(sys.vaultBase(0), 64, 16, 28, 1);
    FmapDramLayout out_lay(in_lay.end() + 4096, 64, 16, 28, 1);
    ConvJob job;
    job.in = &in_lay;
    job.out = &out_lay;
    job.filterBlob = out_lay.end() + 4096;
    job.biasBlob = job.filterBlob + (1 << 16);
    job.zShard = 64;
    job.filters = 2;
    job.rowBegin = 0;
    job.rowEnd = 16;
    job.width = 28;
    sys.pe(0).loadProgram(genConvPass(job));
    const Cycles cycles = sys.run();
    // m.v.mul lanes are half multiply (vertical), half add (reduce).
    return model.peWatts(sys.pe(0).stats(), cycles, 0.5);
}

} // namespace

int
main()
{
    std::printf("=== Sec. VII: area and power ===\n\n");

    const PeAreaBreakdown area;
    std::printf("PE area breakdown (mm2, 28 nm):\n");
    std::printf("  scratchpad (8x 512x8 SRAM) : %.3f\n", area.scratchpad);
    std::printf("  vector units (vert+horiz)  : %.3f\n", area.vectorUnits);
    std::printf("  instruction buffer         : %.3f\n", area.instBuffer);
    std::printf("  scalar unit + regfile      : %.3f\n", area.scalarUnit);
    std::printf("  load-store unit            : %.3f\n", area.loadStore);
    std::printf("  front end                  : %.3f\n", area.frontend);
    std::printf("  ARC                        : %.3f\n", area.arc);
    std::printf("  total                      : %.3f  (paper: 0.141)\n",
                area.total());

    const PePowerModel model;
    const double bp_w = bpPeWatts(model);
    const double cnn_w = cnnPeWatts(model);
    const ArrayPowerSummary s = arrayPowerSummary(bp_w, cnn_w);

    std::printf("\nper-PE power from simulated activity:\n");
    std::printf("  BP kernel  : %5.1f mW  (paper: 27)\n", bp_w * 1e3);
    std::printf("  CNN kernel : %5.1f mW  (paper: 38)\n", cnn_w * 1e3);

    std::printf("\n128-PE array:\n");
    std::printf("  area  : %5.1f mm2        (paper: 18)\n",
                s.arrayAreaMm2);
    std::printf("  power : %4.2f - %4.2f W   (paper: 3.5 - 4.8)\n",
                s.bpWatts, s.cnnWatts);

    std::printf("\nmemory-stack power (paper's quoted estimates):\n");
    std::printf("  early HMC prototype, 10 pJ/bit at 320 GB/s: %.1f W "
                "(paper: 25.6)\n", s.hmcProtoWatts);
    std::printf("  IBM 14 nm estimate: %.1f W (paper: 5)\n",
                s.hmcIbmWatts);
    return 0;
}
