/**
 * @file
 * Tests of the analytical models: roofline geometry, the paper's
 * normalization arithmetic, the GPU BP-M model's calibration, and the
 * area/power model's agreement with the Sec. VII synthesis numbers.
 */

#include <gtest/gtest.h>

#include "isa/builder.hh"
#include "kernels/bp_kernel.hh"
#include "kernels/layout.hh"
#include "model/baselines.hh"
#include "model/gpu_model.hh"
#include "model/power.hh"
#include "model/roofline.hh"
#include "system/simulation.hh"

namespace vip {
namespace {

TEST(Roofline, VipPeaksMatchThePaper)
{
    const Roofline roof = vipRoofline();
    // 1,280 GOp/s at 16-bit (Sec. III) and 320 GB/s.
    EXPECT_NEAR(roof.peakGops, 1280.0, 1.0);
    EXPECT_NEAR(roof.peakBandwidthGBs, 320.0, 0.1);
    EXPECT_NEAR(roof.knee(), 4.0, 0.1);
    // Memory-bound region slopes up; compute-bound region is flat.
    EXPECT_NEAR(roof.attainable(1.0), 320.0, 0.5);
    EXPECT_NEAR(roof.attainable(100.0), 1280.0, 0.5);
}

TEST(Roofline, PointArithmetic)
{
    const RooflinePoint p = makePoint("x", 1000, 500, 125);
    EXPECT_NEAR(p.opsPerByte, 2.0, 1e-9);
    // 1000 ops in 125 cycles at 1.25 GHz = 10 GOp/s.
    EXPECT_NEAR(p.gops, 10.0, 1e-6);
}

TEST(Baselines, EyerissNormalizationMatchesPaperNarrative)
{
    // The paper: after area, technology, and clock scaling, VIP's
    // 91.6 ms is "less than 10% worse" than Eyeriss' 4,309 ms.
    const double scaled = eyerissScaledTimeMs(4309.0);
    EXPECT_GT(scaled, 80.0);
    EXPECT_LT(scaled, 105.0);
    EXPECT_LT(std::abs(91.6 - scaled) / scaled, 0.12);
}

TEST(Baselines, VoltaAreaRatioIsAbout250x)
{
    const double ratio = areaRatioVsVip(815.0, 12.0);
    EXPECT_GT(ratio, 220.0);
    EXPECT_LT(ratio, 270.0);
}

TEST(Baselines, TableIvRowsPresent)
{
    const auto rows = tableIvBaselines();
    EXPECT_EQ(rows.size(), 7u);
    unsigned mrf = 0;
    for (const auto &r : rows) {
        if (r.workload == "MRF")
            ++mrf;
    }
    EXPECT_EQ(mrf, 3u);
}

TEST(GpuModel, CalibratedToTheMeasuredIteration)
{
    const GpuBpEstimate e = gpuBpIteration(1920, 1080, 16);
    EXPECT_NEAR(e.iterationMs, 11.5, 0.4);
    // The paper's profiling: latency-limited, not throughput-limited.
    EXPECT_GT(e.latencyBoundFraction, 0.9);
}

TEST(GpuModel, LargerProblemsBecomeThroughputBound)
{
    // With far more parallel work per step, the floor stops binding.
    const GpuBpEstimate big = gpuBpIteration(1920, 16384, 64);
    EXPECT_LT(big.latencyBoundFraction, 1.0);
}

TEST(GpuModel, ScalesWithProblemSize)
{
    const double fhd = gpuBpIteration(1920, 1080, 16).iterationMs;
    const double qhd = gpuBpIteration(960, 540, 16).iterationMs;
    EXPECT_GT(fhd, qhd);
    EXPECT_NEAR(fhd / qhd, 2.0, 0.3);  // steps halve, floor dominates
}

TEST(Power, AreaBreakdownSumsToSynthesis)
{
    const PeAreaBreakdown area;
    EXPECT_NEAR(area.total(), 0.141, 0.002);
    EXPECT_NEAR(128 * area.total(), 18.0, 0.3);
}

TEST(Power, ActivityModelReproducesSynthesisRange)
{
    const PePowerModel model;

    // BP kernel on one PE.
    SystemConfig cfg = makeSystemConfig(1, 1);
    VipSystem bp_sys(cfg);
    MrfDramLayout layout(bp_sys.vaultBase(0), 64, 32, 16);
    bp_sys.pe(0).loadProgram(genBpSweep(
        layout, BpVariant{},
        BpSweepJob{SweepDir::Right, 0, 32}));
    const Cycles bp_cycles = bp_sys.run();
    const double bp_w = model.peWatts(bp_sys.pe(0).stats(), bp_cycles,
                                      0.0);
    EXPECT_GT(bp_w, 0.018);
    EXPECT_LT(bp_w, 0.036);  // paper: 27 mW

    // An idle PE burns only leakage.
    EXPECT_NEAR(model.peWatts(Pe::Stats{}, 0, 0.0) * 1e3,
                model.staticW * 1e3, 1e-9);

    const ArrayPowerSummary s = arrayPowerSummary(bp_w, bp_w * 1.4);
    EXPECT_GT(s.bpWatts, 2.0);
    EXPECT_LT(s.cnnWatts, 6.5);  // paper: 3.5 - 4.8 W
    EXPECT_NEAR(s.hmcProtoWatts, 25.6, 0.1);
}

TEST(Power, MultipliesCostMoreThanAdds)
{
    const PePowerModel model;
    Pe::Stats fake{};
    // Counters can't be set directly; drive two tiny sims instead —
    // the mul_fraction parameter is the lever.
    SystemConfig cfg = makeSystemConfig(1, 1);
    VipSystem sys(cfg);
    AsmBuilder b;
    b.movImm(1, 64);
    b.setVl(1);
    b.movImm(2, 0);
    b.movImm(3, 256);
    for (int i = 0; i < 16; ++i)
        b.vv(VecOp::Add, 3, 2, 2);
    b.halt();
    sys.pe(0).loadProgram(b.finish());
    const Cycles c = sys.run();
    const double as_adds = model.peWatts(sys.pe(0).stats(), c, 0.0);
    const double as_muls = model.peWatts(sys.pe(0).stats(), c, 1.0);
    EXPECT_GT(as_muls, as_adds);
    (void)fake;
}

} // namespace
} // namespace vip
