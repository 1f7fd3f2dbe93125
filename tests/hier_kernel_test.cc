/**
 * @file
 * Verification of the hierarchical BP construct/copy kernels against
 * the reference coarsen()/copyMessages(), and the full four-phase
 * hierarchical pipeline with every phase on the simulator.
 */

#include <gtest/gtest.h>

#include "kernels/bp_kernel.hh"
#include "kernels/hier_kernel.hh"
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

TEST(HierKernel, ConstructMatchesCoarsen)
{
    const unsigned W = 12, H = 8, L = 8;
    MrfProblem fine = makeProblem(W, H, L, 61);
    const MrfProblem want = coarsen(fine);

    SystemConfig cfg = makeSystemConfig(1, 2);
    cfg.pe.strictHazards = true;
    VipSystem sys(cfg);
    MrfDramLayout fine_lay(sys.vaultBase(0), W, H, L);
    MrfDramLayout coarse_lay(fine_lay.end() + 64, W / 2, H / 2, L);
    fine_lay.upload(fine, sys.dram());

    // Two PEs split the coarse rows.
    for (unsigned pe = 0; pe < 2; ++pe) {
        ConstructJob job;
        job.fine = &fine_lay;
        job.coarse = &coarse_lay;
        job.rowBegin = pe * (H / 4);
        job.rowEnd = (pe + 1) * (H / 4);
        sys.pe(pe).loadProgram(genConstruct(job));
    }
    sys.run(10'000'000);
    ASSERT_TRUE(sys.allIdle());

    for (unsigned y = 0; y < H / 2; ++y) {
        for (unsigned x = 0; x < W / 2; ++x) {
            for (unsigned l = 0; l < L; ++l) {
                ASSERT_EQ(sys.dram().load<Fx16>(
                              coarse_lay.dataAddr(x, y) + 2 * l),
                          want.dataAt(x, y)[l])
                    << x << "," << y << " l" << l;
            }
        }
    }
    EXPECT_EQ(sys.pe(0).stats().timingHazards.value(), 0u);
}

TEST(HierKernel, CopyMatchesReferenceUpsampling)
{
    const unsigned W = 10, H = 6, L = 4;
    MrfProblem fine = makeProblem(W, H, L, 62);
    const MrfProblem coarse_p = coarsen(fine);

    // Seed the coarse messages with something nontrivial.
    BpState coarse_bp(coarse_p);
    coarse_bp.iterate();
    BpState want(fine);
    copyMessages(coarse_bp, want);

    SystemConfig cfg = makeSystemConfig(1, 2);
    cfg.pe.strictHazards = true;
    VipSystem sys(cfg);
    MrfDramLayout fine_lay(sys.vaultBase(0), W, H, L);
    MrfDramLayout coarse_lay(fine_lay.end() + 64, W / 2, H / 2, L);
    coarse_lay.uploadMessages(coarse_bp, sys.dram());

    for (unsigned pe = 0; pe < 2; ++pe) {
        CopyJob job;
        job.coarse = &coarse_lay;
        job.fine = &fine_lay;
        job.rowBegin = pe * (H / 2);
        job.rowEnd = (pe + 1) * (H / 2);
        sys.pe(pe).loadProgram(genCopyMessages(job));
    }
    sys.run(10'000'000);
    ASSERT_TRUE(sys.allIdle());

    BpState got(fine);
    fine_lay.downloadMessages(got, sys.dram());
    for (unsigned d = 0; d < NumMsgDirs; ++d) {
        for (unsigned y = 0; y < H; ++y) {
            for (unsigned x = 0; x < W; ++x) {
                for (unsigned l = 0; l < L; ++l) {
                    ASSERT_EQ(want.msgAt(static_cast<MsgDir>(d), x, y)[l],
                              got.msgAt(static_cast<MsgDir>(d), x, y)[l])
                        << d << " " << x << "," << y;
                }
            }
        }
    }
}

TEST(HierKernel, FullPipelineOnSimulator)
{
    // construct -> coarse BP -> copy -> fine BP, all four phases as
    // VIP programs, against the all-reference flow.
    const unsigned W = 16, H = 8, L = 4;
    MrfProblem fine = makeProblem(W, H, L, 63);
    MrfProblem coarse_p = coarsen(fine);

    BpState ref_coarse(coarse_p);
    ref_coarse.iterate();
    BpState ref_fine(fine);
    copyMessages(ref_coarse, ref_fine);
    ref_fine.iterate();

    SystemConfig cfg = makeSystemConfig(1, 4);
    cfg.pe.strictHazards = true;
    VipSystem sys(cfg);
    MrfDramLayout fine_lay(sys.vaultBase(0), W, H, L);
    MrfDramLayout coarse_lay(fine_lay.end() + 64, W / 2, H / 2, L);
    const Addr flags = coarse_lay.end() + 64;
    fine_lay.upload(fine, sys.dram());
    // The coarse layout needs its smoothness matrix staged; data costs
    // come from the construct kernel.
    sys.dram().write(coarse_lay.smoothAddr(), coarse_p.smoothCost.data(),
                     coarse_p.smoothCost.size() * 2);

    // Phase 1: construct on 4 PEs.
    for (unsigned pe = 0; pe < 4; ++pe) {
        ConstructJob job;
        job.fine = &fine_lay;
        job.coarse = &coarse_lay;
        job.rowBegin = pe * (H / 8);
        job.rowEnd = (pe + 1) * (H / 8);
        sys.pe(pe).loadProgram(genConstruct(job));
    }
    sys.run(10'000'000);
    ASSERT_TRUE(sys.allIdle());

    auto run_bp = [&](const MrfDramLayout &lay, unsigned w, unsigned h,
                      Addr flag_base) {
        for (unsigned pe = 0; pe < 4; ++pe) {
            const auto jobs = bpTileJobs(w, h, pe, 4);
            sys.pe(pe).loadProgram(genBpIterations(
                lay, BpVariant{}, jobs, 1, flag_base, pe, 4));
        }
        sys.run(100'000'000);
        ASSERT_TRUE(sys.allIdle());
    };

    // Phase 2: coarse BP-M iteration.
    run_bp(coarse_lay, W / 2, H / 2, flags);

    // Phase 3: copy messages up.
    for (unsigned pe = 0; pe < 4; ++pe) {
        CopyJob job;
        job.coarse = &coarse_lay;
        job.fine = &fine_lay;
        job.rowBegin = pe * (H / 4);
        job.rowEnd = (pe + 1) * (H / 4);
        sys.pe(pe).loadProgram(genCopyMessages(job));
    }
    sys.run(10'000'000);
    ASSERT_TRUE(sys.allIdle());

    // Phase 4: fine BP-M iteration.
    run_bp(fine_lay, W, H, flags + 4096);

    BpState got(fine);
    fine_lay.downloadMessages(got, sys.dram());
    EXPECT_EQ(ref_fine.decode(), got.decode());
    for (unsigned d = 0; d < NumMsgDirs; ++d) {
        for (unsigned y = 0; y < H; ++y) {
            for (unsigned x = 0; x < W; ++x) {
                for (unsigned l = 0; l < L; ++l) {
                    ASSERT_EQ(ref_fine.msgAt(static_cast<MsgDir>(d), x,
                                             y)[l],
                              got.msgAt(static_cast<MsgDir>(d), x, y)[l]);
                }
            }
        }
    }
}

} // namespace
} // namespace vip
