/**
 * @file
 * End-to-end verification of the generated BP-M kernels against the
 * reference implementation — the paper's own correctness methodology
 * (Sec. V-A): run the simulated code and compare outputs with a
 * reference C++ implementation, bit for bit.
 *
 * strictHazards is enabled throughout: a mis-scheduled kernel (one
 * that reads a vector result inside its producer's timing shadow)
 * panics instead of silently passing, proving the generated schedules
 * are legal on hardware with exposed vector latency.
 */

#include <gtest/gtest.h>

#include "kernels/bp_kernel.hh"
#include "kernels/layout.hh"
#include "sim/rng.hh"
#include "system/simulation.hh"
#include "workloads/mrf.hh"

namespace vip {
namespace {

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

/** Run one sweep on one PE and compare the produced field. */
void
checkSingleSweep(SweepDir dir, const BpVariant &variant)
{
    const unsigned W = 12, H = 10, L = 8;
    MrfProblem problem = makeProblem(W, H, L, 42);

    // Reference (normalized when the kernel variant normalizes).
    BpState ref(problem, variant.normalize);
    switch (dir) {
      case SweepDir::Right: ref.sweepRight(); break;
      case SweepDir::Left: ref.sweepLeft(); break;
      case SweepDir::Down: ref.sweepDown(); break;
      case SweepDir::Up: ref.sweepUp(); break;
    }

    // Simulation.
    SystemConfig cfg = makeSystemConfig(1, 1);
    cfg.pe.strictHazards = true;
    VipSystem sys(cfg);
    MrfDramLayout layout(sys.vaultBase(0), W, H, L);
    layout.upload(problem, sys.dram());

    const bool vertical = dir == SweepDir::Down || dir == SweepDir::Up;
    BpSweepJob job{dir, 0, vertical ? W : H};
    sys.pe(0).loadProgram(genBpSweep(layout, variant, job));
    sys.run(20'000'000);
    ASSERT_TRUE(sys.allIdle()) << "simulation did not finish";

    BpState got(problem);
    layout.downloadMessages(got, sys.dram());

    for (unsigned d = 0; d < NumMsgDirs; ++d) {
        for (unsigned y = 0; y < H; ++y) {
            for (unsigned x = 0; x < W; ++x) {
                for (unsigned l = 0; l < L; ++l) {
                    ASSERT_EQ(ref.msgAt(static_cast<MsgDir>(d), x, y)[l],
                              got.msgAt(static_cast<MsgDir>(d), x, y)[l])
                        << "dir=" << d << " x=" << x << " y=" << y
                        << " l=" << l;
                }
            }
        }
    }
    EXPECT_EQ(sys.pe(0).stats().timingHazards.value(), 0u);
}

TEST(BpKernel, SweepRightMatchesReference)
{
    checkSingleSweep(SweepDir::Right, BpVariant{});
}

TEST(BpKernel, SweepLeftMatchesReference)
{
    checkSingleSweep(SweepDir::Left, BpVariant{});
}

TEST(BpKernel, SweepDownMatchesReference)
{
    checkSingleSweep(SweepDir::Down, BpVariant{});
}

TEST(BpKernel, SweepUpMatchesReference)
{
    checkSingleSweep(SweepDir::Up, BpVariant{});
}

TEST(BpKernel, SoftwareReductionVariantMatchesReference)
{
    checkSingleSweep(SweepDir::Right,
                     BpVariant{false, false, 4, false});
}

TEST(BpKernel, RegisterFileVariantMatchesReference)
{
    checkSingleSweep(SweepDir::Right,
                     BpVariant{true, true, 4, false});
}

TEST(BpKernel, RegisterFileNoReductionVariantMatchesReference)
{
    checkSingleSweep(SweepDir::Right,
                     BpVariant{false, true, 4, false});
}

/** Full iterations on four PEs with barriers, against the reference. */
TEST(BpKernel, MultiPeIterationsMatchReference)
{
    const unsigned W = 16, H = 12, L = 8;
    const unsigned iterations = 2;
    MrfProblem problem = makeProblem(W, H, L, 7);

    BpState ref(problem);
    for (unsigned i = 0; i < iterations; ++i)
        ref.iterate();

    SystemConfig cfg = makeSystemConfig(1, 4);
    cfg.pe.strictHazards = true;
    VipSystem sys(cfg);
    MrfDramLayout layout(sys.vaultBase(0), W, H, L);
    layout.upload(problem, sys.dram());
    const Addr flag_base = layout.end() + 64;

    const unsigned num_pes = 4;
    for (unsigned pe = 0; pe < num_pes; ++pe) {
        const auto jobs = bpTileJobs(W, H, pe, num_pes);
        sys.pe(pe).loadProgram(genBpIterations(
            layout, BpVariant{}, jobs, iterations, flag_base, pe,
            num_pes));
    }
    sys.run(50'000'000);
    ASSERT_TRUE(sys.allIdle()) << "simulation did not finish";

    BpState got(problem);
    layout.downloadMessages(got, sys.dram());
    for (unsigned d = 0; d < NumMsgDirs; ++d) {
        for (unsigned y = 0; y < H; ++y) {
            for (unsigned x = 0; x < W; ++x) {
                for (unsigned l = 0; l < L; ++l) {
                    ASSERT_EQ(ref.msgAt(static_cast<MsgDir>(d), x, y)[l],
                              got.msgAt(static_cast<MsgDir>(d), x, y)[l])
                        << "dir=" << d << " x=" << x << " y=" << y
                        << " l=" << l;
                }
            }
        }
    }
    // Decoded labelings must agree as well.
    EXPECT_EQ(ref.decode(), got.decode());
}

} // namespace
} // namespace vip
