/**
 * @file
 * Advanced integration tests: the ARC-covers-vector interlock mode,
 * multi-vault execution over the torus, seeded (hierarchical) BP,
 * shallow software-pipeline variants, large filter groups, and direct
 * unit tests of the scratchpad and ARC structures.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "isa/builder.hh"
#include "kernels/bp_kernel.hh"
#include "kernels/conv_kernel.hh"
#include "kernels/layout.hh"
#include "pe/arc.hh"
#include "pe/scratchpad.hh"
#include "sim/rng.hh"
#include "system/simulation.hh"
#include "workloads/nn.hh"

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

TEST(ArcCoversVector, MakesUnscheduledCodeHazardFree)
{
    // The short-mul-into-add sequence that IS a hazard on the baseline
    // machine (see pe_test) becomes a stall instead when the ARC also
    // interlocks the vector pipe — correct results, zero hazards.
    for (bool covered : {false, true}) {
        SystemConfig cfg = makeSystemConfig(1, 1);
        cfg.pe.arcCoversVector = covered;
        VipSystem sys(cfg);
        for (unsigned i = 0; i < 4; ++i)
            sys.pe(0).scratchpad().store<Fx16>(i * 2,
                                               static_cast<Fx16>(i + 2));
        AsmBuilder b;
        b.movImm(1, 4);
        b.setVl(1);
        b.movImm(2, 0);
        b.movImm(3, 64);
        b.movImm(4, 128);
        b.vv(VecOp::Mul, 3, 2, 2);
        b.vv(VecOp::Add, 4, 3, 3);
        b.halt();
        sys.pe(0).loadProgram(b.finish());
        sys.run(1'000'000);
        ASSERT_TRUE(sys.allIdle());
        for (unsigned i = 0; i < 4; ++i) {
            const int v = (i + 2) * (i + 2);
            EXPECT_EQ(sys.pe(0).scratchpad().load<Fx16>(128 + 2 * i),
                      2 * v);
        }
        if (covered) {
            EXPECT_EQ(sys.pe(0).stats().timingHazards.value(), 0u);
            EXPECT_GT(sys.pe(0).stats().stallArc.value(), 0u);
        } else {
            EXPECT_GT(sys.pe(0).stats().timingHazards.value(), 0u);
        }
    }
}

TEST(ArcCoversVector, BpKernelStaysBitExact)
{
    const unsigned W = 10, H = 8, L = 8;
    MrfProblem problem = makeProblem(W, H, L, 31);
    BpState ref(problem);
    ref.sweepDown();

    SystemConfig cfg = makeSystemConfig(1, 1);
    cfg.pe.arcCoversVector = true;
    cfg.pe.strictHazards = true;
    VipSystem sys(cfg);
    MrfDramLayout layout(sys.vaultBase(0), W, H, L);
    layout.upload(problem, sys.dram());
    sys.pe(0).loadProgram(genBpSweep(
        layout, BpVariant{},
        BpSweepJob{SweepDir::Down, 0, W}));
    sys.run(20'000'000);
    ASSERT_TRUE(sys.allIdle());

    BpState got(problem);
    layout.downloadMessages(got, sys.dram());
    for (unsigned y = 0; y < H; ++y) {
        for (unsigned x = 0; x < W; ++x) {
            for (unsigned l = 0; l < L; ++l) {
                ASSERT_EQ(ref.msgAt(FromUp, x, y)[l],
                          got.msgAt(FromUp, x, y)[l]);
            }
        }
    }
    EXPECT_EQ(sys.pe(0).stats().timingHazards.value(), 0u);
}

TEST(MultiVault, BpIterationAcrossTwoVaults)
{
    // Eight PEs in two vaults cooperate on one tile that lives in
    // vault 0: vault 1's PEs fetch everything over the torus. The
    // result must still be bit-exact — this exercises remote requests,
    // responses, and the barrier across vaults.
    const unsigned W = 16, H = 12, L = 8, iterations = 2;
    MrfProblem problem = makeProblem(W, H, L, 32);
    BpState ref(problem);
    for (unsigned i = 0; i < iterations; ++i)
        ref.iterate();

    SystemConfig cfg = makeSystemConfig(2, 4);
    cfg.pe.strictHazards = true;
    VipSystem sys(cfg);
    MrfDramLayout layout(sys.vaultBase(0), W, H, L);
    layout.upload(problem, sys.dram());
    const Addr flags = layout.end() + 64;

    const unsigned num_pes = 8;
    for (unsigned pe = 0; pe < num_pes; ++pe) {
        const auto jobs = bpTileJobs(W, H, pe, num_pes);
        sys.pe(pe).loadProgram(genBpIterations(layout, BpVariant{}, jobs,
                                               iterations, flags, pe,
                                               num_pes));
    }
    sys.run(100'000'000);
    ASSERT_TRUE(sys.allIdle());

    BpState got(problem);
    layout.downloadMessages(got, sys.dram());
    EXPECT_EQ(ref.decode(), got.decode());
    for (unsigned d = 0; d < NumMsgDirs; ++d) {
        for (unsigned y = 0; y < H; ++y) {
            for (unsigned x = 0; x < W; ++x) {
                for (unsigned l = 0; l < L; ++l) {
                    ASSERT_EQ(ref.msgAt(static_cast<MsgDir>(d), x, y)[l],
                              got.msgAt(static_cast<MsgDir>(d), x, y)[l])
                        << d << " " << x << " " << y << " " << l;
                }
            }
        }
    }
    // The remote vault's PEs really did work through the torus.
    EXPECT_GT(sys.noc().delivered(), 100u);
}

TEST(HierarchicalBp, SimulatedCoarseToFineMatchesReference)
{
    // The full hierarchical flow of Sec. VI-A with both BP phases on
    // the simulator: coarse BP-M, host-side construct/copy (pure data
    // movement), fine BP-M seeded with the coarse messages.
    const unsigned W = 12, H = 8, L = 4;
    MrfProblem fine_p = makeProblem(W, H, L, 33);
    const MrfProblem coarse_p = coarsen(fine_p);

    // Reference flow.
    BpState ref_coarse(coarse_p);
    ref_coarse.iterate();
    BpState ref_fine(fine_p);
    copyMessages(ref_coarse, ref_fine);
    ref_fine.iterate();

    // Simulated flow (coarse).
    SystemConfig cfg = makeSystemConfig(1, 4);
    cfg.pe.strictHazards = true;
    VipSystem sys(cfg);
    MrfDramLayout c_layout(sys.vaultBase(0), coarse_p.width,
                           coarse_p.height, L);
    MrfDramLayout f_layout(c_layout.end() + 64, W, H, L);
    const Addr flags = f_layout.end() + 64;
    c_layout.upload(coarse_p, sys.dram());
    f_layout.upload(fine_p, sys.dram());

    auto run_phase = [&](const MrfDramLayout &layout, unsigned width,
                         unsigned height, Addr flag_base) {
        for (unsigned pe = 0; pe < 4; ++pe) {
            const auto jobs = bpTileJobs(width, height, pe, 4);
            sys.pe(pe).loadProgram(genBpIterations(
                layout, BpVariant{}, jobs, 1, flag_base, pe, 4));
        }
        sys.run(100'000'000);
        ASSERT_TRUE(sys.allIdle());
    };

    run_phase(c_layout, coarse_p.width, coarse_p.height, flags);

    // Copy phase (host-side data movement, like construct).
    BpState sim_coarse(coarse_p);
    c_layout.downloadMessages(sim_coarse, sys.dram());
    BpState seeded(fine_p);
    copyMessages(sim_coarse, seeded);
    f_layout.uploadMessages(seeded, sys.dram());

    run_phase(f_layout, W, H, flags + 4096);

    BpState got(fine_p);
    f_layout.downloadMessages(got, sys.dram());
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

TEST(BpVariants, ShallowPrefetchDepthsStayBitExact)
{
    const unsigned W = 10, H = 8, L = 8;
    MrfProblem problem = makeProblem(W, H, L, 34);
    BpState ref(problem);
    ref.sweepRight();

    for (unsigned depth : {1u, 2u, 3u}) {
        SystemConfig cfg = makeSystemConfig(1, 1);
        cfg.pe.strictHazards = true;
        VipSystem sys(cfg);
        MrfDramLayout layout(sys.vaultBase(0), W, H, L);
        layout.upload(problem, sys.dram());
        BpVariant variant;
        variant.prefetchDepth = depth;
        sys.pe(0).loadProgram(genBpSweep(
            layout, variant,
            BpSweepJob{SweepDir::Right, 0, H}));
        sys.run(20'000'000);
        ASSERT_TRUE(sys.allIdle()) << "depth " << depth;
        BpState got(problem);
        layout.downloadMessages(got, sys.dram());
        for (unsigned y = 0; y < H; ++y) {
            for (unsigned x = 0; x < W; ++x) {
                for (unsigned l = 0; l < L; ++l) {
                    ASSERT_EQ(ref.msgAt(FromLeft, x, y)[l],
                              got.msgAt(FromLeft, x, y)[l])
                        << "depth " << depth;
                }
            }
        }
    }
}

TEST(ConvKernel, LargeFilterGroupFirstLayerStyle)
{
    // c1_1-style: 3 input channels, all 32 filters of a group resident
    // (exercises the wide parity accumulators).
    const unsigned C = 3, H = 6, W = 8, OC = 32, K = 3;
    Rng rng(35);
    FeatureMap in(C, H, W);
    for (auto &v : in.data)
        v = static_cast<Fx16>(rng.nextRange(-30, 30));
    const auto filters = randomWeights(
        static_cast<std::size_t>(OC) * C * K * K, rng, 4);
    const auto bias = randomWeights(OC, rng, 30);
    const FeatureMap want = convLayerVip(in, filters, bias, OC, K, C);

    ASSERT_GE(convFiltersResident(C), OC);

    SystemConfig cfg = makeSystemConfig(1, 1);
    cfg.pe.strictHazards = true;
    VipSystem sys(cfg);
    FmapDramLayout in_lay(sys.vaultBase(0), C, H, W, 1, true);
    FmapDramLayout out_lay(in_lay.end() + 4096, OC, H, W, 0, true);
    const Addr filt = out_lay.end() + 4096;
    const auto blob = packFilters(filters, C, K, 0, OC, 0, C);
    sys.dram().write(filt, blob.data(), blob.size() * 2);
    const Addr bias_addr = filt + blob.size() * 2 + 64;
    sys.dram().write(bias_addr, bias.data(), bias.size() * 2);
    in_lay.upload(in, sys.dram());

    ConvJob job;
    job.in = &in_lay;
    job.out = &out_lay;
    job.filterBlob = filt;
    job.biasBlob = bias_addr;
    job.zShard = C;
    job.filters = OC;
    job.rowBegin = 0;
    job.rowEnd = H;
    job.width = W;
    sys.pe(0).loadProgram(genConvPass(job));
    sys.run(50'000'000);
    ASSERT_TRUE(sys.allIdle());
    EXPECT_EQ(want.data, out_lay.download(sys.dram()).data);
    EXPECT_EQ(sys.pe(0).stats().timingHazards.value(), 0u);
}

TEST(Scratchpad, ReadyTimeTracking)
{
    Scratchpad sp;
    EXPECT_EQ(sp.readyAt(0, 64), 0u);
    sp.markReadyAt(10, 4, 100, 0);
    EXPECT_EQ(sp.readyAt(10, 4), 100u);
    EXPECT_EQ(sp.readyAt(0, 10), 0u);
    EXPECT_TRUE(sp.hazardousRead(8, 8, 50));
    EXPECT_FALSE(sp.hazardousRead(8, 8, 100));
    // Streamed marks ramp by 8 bytes per cycle.
    sp.markReadyStream(100, 32, 200);
    EXPECT_EQ(sp.readyAt(100, 1), 200u);
    EXPECT_EQ(sp.readyAt(124, 1), 203u);
    // A streamed read starting at the same base chases the writer.
    EXPECT_FALSE(sp.hazardousStreamRead(100, 32, 200));
    EXPECT_TRUE(sp.hazardousStreamRead(100, 32, 199));
}

TEST(Scratchpad, MatchesPerByteModelOnRandomTraffic)
{
    // The scratchpad keeps its per-byte ready clock as 16-bit offsets
    // above a floor that rises with the issue cycle, and skips blocks
    // by a per-block maximum; a plain 64-bit per-byte model must give
    // the same hazard answer to every query, and the same ready time
    // wherever the model's is above the floor. Ranges are drawn to
    // start anywhere, straddle block edges, sit at offset 0 or on the
    // last byte, and stream across most of the scratchpad.
    //
    // The short runs keep the clock and every lead small, so the floor
    // never moves. The long runs take the clock past 4 x 2^16 cycles
    // with marks leading it by up to Scratchpad::kMaxLead, so the
    // floor rises many times, past bytes marked both just before and
    // far ahead of it.
    constexpr unsigned kBytes = Scratchpad::kBytes;
    constexpr unsigned kBlock = Scratchpad::kBlockBytes;
    constexpr Cycles kLead = Scratchpad::kMaxLead;
    struct Traffic
    {
        std::uint64_t seed;
        Cycles maxStep;  ///< clock advance per step is below this
        bool longLeads;  ///< marks and queries reach kMaxLead ahead
    };
    const Traffic runs[] = {{1, 6, false},   {2, 6, false},
                            {3, 6, false},   {4, 200, true},
                            {5, 200, true},  {6, 200, true}};
    for (const Traffic &run : runs) {
        const std::uint64_t seed = run.seed;
        Scratchpad sp;
        std::vector<Cycles> model(kBytes, 0);
        Rng rng(seed);
        Cycles now = 0;
        unsigned floorRises = 0;

        auto range = [&](SpAddr *addr, unsigned *bytes) {
            switch (rng.nextBelow(6)) {
              case 0:  // anywhere, short
                *addr = static_cast<SpAddr>(rng.nextBelow(kBytes));
                *bytes = static_cast<unsigned>(rng.nextBelow(40));
                break;
              case 1: {  // straddles a block edge
                const unsigned edge = static_cast<unsigned>(
                    (1 + rng.nextBelow(kBytes / kBlock - 1)) * kBlock);
                *addr = edge - 1 - static_cast<SpAddr>(rng.nextBelow(9));
                *bytes = 2 + static_cast<unsigned>(rng.nextBelow(150));
                break;
              }
              case 2:  // block-aligned start
                *addr = static_cast<SpAddr>(
                    rng.nextBelow(kBytes / kBlock) * kBlock);
                *bytes = static_cast<unsigned>(rng.nextBelow(3 * kBlock));
                break;
              case 3:  // the last bytes
                *bytes = 1 + static_cast<unsigned>(rng.nextBelow(8));
                *addr = kBytes - *bytes;
                break;
              case 4:  // from byte 0
                *addr = 0;
                *bytes = 1 + static_cast<unsigned>(rng.nextBelow(200));
                break;
              default:  // a long stream
                *addr = static_cast<SpAddr>(rng.nextBelow(kBytes / 4));
                *bytes = static_cast<unsigned>(
                    rng.nextBelow(kBytes - *addr + 1));
                break;
            }
            *bytes = std::min(*bytes, kBytes - *addr);
        };

        // How far past the clock a mark or query lands: short runs stay
        // within 80 cycles; long runs also draw anywhere up to
        // @p most, and exactly @p most.
        auto lead = [&](Cycles most) -> Cycles {
            if (!run.longLeads)
                return rng.nextBelow(80);
            switch (rng.nextBelow(4)) {
              case 0: return rng.nextBelow(80);
              case 1: return rng.nextBelow(most + 1);
              case 2: return most - std::min<Cycles>(most,
                                                     rng.nextBelow(200));
              default: return most;
            }
        };

        for (unsigned step = 0; step < 4000 || (run.longLeads &&
                                                now <= 4 * (kLead + 1));
             ++step) {
            now += rng.nextBelow(run.maxStep);
            SpAddr addr = 0;
            unsigned bytes = 0;
            range(&addr, &bytes);
            const Cycles before = sp.floor();
            switch (rng.nextBelow(4)) {
              case 0: {
                const Cycles t = now + lead(kLead);
                sp.markReadyAt(addr, bytes, t, now);
                for (unsigned i = 0; i < bytes; ++i)
                    model[addr + i] = std::max(model[addr + i], t);
                break;
              }
              case 1: {
                const Cycles span = bytes == 0 ? 0 : (bytes - 1) / 8;
                const Cycles t = now + lead(kLead - span);
                sp.markReadyStream(addr, bytes, t, now);
                for (unsigned i = 0; i < bytes; ++i)
                    model[addr + i] = std::max(model[addr + i], t + i / 8);
                break;
              }
              case 2: {
                const Cycles t = now + lead(kLead);
                bool want = false;
                for (unsigned i = 0; i < bytes; ++i)
                    want = want || model[addr + i] > t + i / 8;
                ASSERT_EQ(sp.hazardousStreamRead(addr, bytes, t), want)
                    << "seed " << seed << " step " << step << " sp["
                    << addr << ", +" << bytes << ") at " << t
                    << " floor " << sp.floor();
                break;
              }
              default: {
                Cycles want = 0;
                for (unsigned i = 0; i < bytes; ++i)
                    want = std::max(want, model[addr + i]);
                // Bytes ready by the floor read back as the floor.
                ASSERT_EQ(sp.readyAt(addr, bytes),
                          std::max(want, sp.floor()))
                    << "seed " << seed << " step " << step << " sp["
                    << addr << ", +" << bytes << ") floor "
                    << sp.floor();
                break;
              }
            }
            ASSERT_LE(sp.floor(), now) << "seed " << seed;
            floorRises += sp.floor() != before;
        }
        if (run.longLeads)
            EXPECT_GE(floorRises, 4u) << "seed " << seed;
        else
            EXPECT_EQ(sp.floor(), 0u) << "seed " << seed;
    }
}

TEST(Arc, AllocateOverlapClear)
{
    ArcTable arc(3);
    EXPECT_EQ(arc.capacity(), 3u);
    const int a = arc.allocate(0, 32);
    const int b = arc.allocate(64, 128);
    EXPECT_GE(a, 0);
    EXPECT_GE(b, 0);
    EXPECT_TRUE(arc.overlaps(16, 48));
    EXPECT_TRUE(arc.overlaps(100, 101));
    EXPECT_FALSE(arc.overlaps(32, 64));
    EXPECT_FALSE(arc.overlaps(128, 256));
    const int c = arc.allocate(200, 201);
    EXPECT_GE(c, 0);
    EXPECT_TRUE(arc.full());
    EXPECT_EQ(arc.allocate(300, 301), -1);
    arc.clear(b);
    EXPECT_FALSE(arc.overlaps(64, 128));
    EXPECT_FALSE(arc.full());
    EXPECT_EQ(arc.liveCount(), 2u);
}

/** The slot-array ARC the packed table replaced: every slot scanned on
 *  every check, a new entry in the lowest free slot. */
class NaiveArc
{
  public:
    explicit NaiveArc(unsigned entries) : slots_(entries) {}

    int
    allocate(SpAddr start, SpAddr end)
    {
        for (unsigned i = 0; i < slots_.size(); ++i) {
            if (!slots_[i].live) {
                slots_[i] = {start, end, true};
                return static_cast<int>(i);
            }
        }
        return -1;
    }

    void clear(int id) { slots_[id].live = false; }

    bool
    overlaps(SpAddr start, SpAddr end) const
    {
        for (const Slot &e : slots_) {
            if (e.live && start < e.end && e.start < end)
                return true;
        }
        return false;
    }

    unsigned
    liveCount() const
    {
        return static_cast<unsigned>(
            std::count_if(slots_.begin(), slots_.end(),
                          [](const Slot &e) { return e.live; }));
    }

  private:
    struct Slot
    {
        SpAddr start = 0;
        SpAddr end = 0;
        bool live = false;
    };
    std::vector<Slot> slots_;
};

TEST(Arc, PackedTableMatchesSlotArray)
{
    // Random allocate/clear/overlaps against the slot array. Ranges sit
    // on a coarse grid in a small window, so most ranges touch or
    // overlap others and the [a, b) ends are exercised; clears pick a
    // random live entry, so they come out of order; allocation
    // pressure runs the table full.
    for (const unsigned entries : {1u, 3u, ArcTable::kEntries}) {
        for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
            SCOPED_TRACE("entries " + std::to_string(entries) + " seed " +
                         std::to_string(seed));
            ArcTable arc(entries);
            NaiveArc ref(entries);
            std::vector<int> live;
            Rng rng(seed);
            unsigned fulls = 0;
            const auto range = [&rng](SpAddr *start, SpAddr *end) {
                *start = static_cast<SpAddr>(8 * rng.nextBelow(32));
                *end = *start +
                       static_cast<SpAddr>(8 * (1 + rng.nextBelow(4)));
            };
            for (unsigned step = 0; step < 4000; ++step) {
                SpAddr start, end;
                range(&start, &end);
                const std::uint64_t op = rng.nextBelow(8);
                if (op < 3) {
                    const int id = arc.allocate(start, end);
                    ASSERT_EQ(id, ref.allocate(start, end)) << step;
                    if (id >= 0)
                        live.push_back(id);
                    else
                        ++fulls;
                } else if (op < 5 && !live.empty()) {
                    const std::size_t k = rng.nextBelow(live.size());
                    arc.clear(live[k]);
                    ref.clear(live[k]);
                    live[k] = live.back();
                    live.pop_back();
                } else {
                    ASSERT_EQ(arc.overlaps(start, end),
                              ref.overlaps(start, end))
                        << step << " [" << start << ", " << end << ")";
                    // Ranges that only touch a live range's ends.
                    ASSERT_EQ(arc.overlaps(end, end + 8),
                              ref.overlaps(end, end + 8));
                    if (start >= 8) {
                        ASSERT_EQ(arc.overlaps(start - 8, start),
                                  ref.overlaps(start - 8, start));
                    }
                }
                ASSERT_EQ(arc.liveCount(), ref.liveCount());
                ASSERT_EQ(arc.full(), ref.liveCount() == entries);
            }
            EXPECT_GT(fulls, 0u) << "the table never filled";
        }
    }
}

TEST(Arc, EmptyTableOverlapsNothingAndIdsAreLowestFree)
{
    ArcTable arc(4);
    EXPECT_FALSE(arc.overlaps(0, ~SpAddr{0}));
    EXPECT_EQ(arc.allocate(0, 8), 0);
    EXPECT_EQ(arc.allocate(8, 16), 1);
    EXPECT_EQ(arc.allocate(16, 24), 2);
    arc.clear(0);
    arc.clear(2);
    // The packed ranges moved; ids did not.
    EXPECT_TRUE(arc.overlaps(8, 9));
    EXPECT_FALSE(arc.overlaps(0, 8));
    EXPECT_FALSE(arc.overlaps(16, 24));
    EXPECT_EQ(arc.allocate(32, 40), 0);
    EXPECT_EQ(arc.allocate(40, 48), 2);
    arc.clear(1);
    arc.clear(0);
    arc.clear(2);
    EXPECT_EQ(arc.liveCount(), 0u);
    EXPECT_FALSE(arc.overlaps(0, ~SpAddr{0}));
}

} // namespace
} // namespace vip
