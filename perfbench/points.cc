/**
 * @file
 * The sweep workloads: cnn_tiles, mrf_tiles and fc_layers.
 *
 * Each point follows the shape of the matching bench/common.cc helper
 * (runConvShare, runPoolShare, runBpTilePhase, runConstructPhase,
 * runCopyPhase, runFcLayer) so the simulated cycles are those of
 * table4_cnn and table4_mrf at the same fractions. Unlike those
 * helpers, every point stages seeded input data, so the DRAM
 * fingerprint the correctness gate checks covers computed values, not
 * just zeros.
 */

#include <algorithm>
#include <cmath>
#include <numeric>

#include "bench.hh"
#include "kernels/bp_kernel.hh"
#include "kernels/conv_kernel.hh"
#include "kernels/fc_kernel.hh"
#include "kernels/hier_kernel.hh"
#include "kernels/layout.hh"
#include "kernels/pool_kernel.hh"
#include "sim/json.hh"
#include "sim/sweep.hh"
#include "workloads/mrf.hh"
#include "workloads/nn.hh"

namespace perfbench {

using namespace vip;

// ---- PointCtx ---------------------------------------------------------

PointCtx::PointCtx(const Strategy &strategy, SpanLog &spans,
                   std::uint64_t parent_span, std::string point,
                   std::uint64_t data_seed)
    : strategy_(strategy), spans_(spans), parent_(parent_span),
      point_(std::move(point)), rng_(data_seed)
{}

template <typename F>
void
PointCtx::timed(const char *span, double &acc, F &&fn)
{
    SpanLog::Scope s(spans_, span, parent_, point_);
    const auto t0 = Clock::now();
    fn();
    acc += secondsBetween(t0, Clock::now());
}

Simulation &
PointCtx::build(SystemConfig cfg)
{
    cfg.fastForward = strategy_.fastForward;
    cfg.fastPath = strategy_.fastPath;
    cfg.islands = std::gcd(strategy_.islands, cfg.nocX);
    timed("build", t_.build,
          [&] { sim_ = std::make_unique<Simulation>(cfg); });
    return *sim_;
}

void
PointCtx::program(const std::function<void(Simulation &)> &fn)
{
    timed("program", t_.program, [&] { fn(*sim_); });
}

void
PointCtx::stage(const std::function<void(Simulation &)> &fn)
{
    timed("stage", t_.stage, [&] { fn(*sim_); });
}

Cycles
PointCtx::run()
{
    timed("run", t_.run, [&] { last_ = sim_->run(); });
    return last_.cycles;
}

PointResult
PointCtx::collect(std::uint64_t work)
{
    PointResult r;
    timed("collect", t_.collect, [&] {
        r.name = point_;
        r.ok = last_.haltedCleanly;
        r.cycles = last_.cycles;
        r.work = work;
        r.resultHash = fnv1a(last_.toJson().str());
        r.dramHash = sim_->system().dram().fingerprint();
        r.pes = sim_->system().numPes();
        // "system.hmc.vault3.col_commands" adds to "mem.col_commands",
        // "system.pe7.instructions" to "pe.instructions",
        // "system.noc.delivered" to "noc.delivered".
        for (const auto &[path, value] : last_.counters) {
            const auto leaf = path.substr(path.rfind('.') + 1);
            if (path.rfind("system.hmc.", 0) == 0)
                r.counters["mem." + leaf] += value;
            else if (path.rfind("system.pe", 0) == 0)
                r.counters["pe." + leaf] += value;
            else if (path.rfind("system.noc.", 0) == 0)
                r.counters["noc." + leaf] += value;
        }
        const auto &ff = sim_->system().fastForwardStats();
        r.ffSkipped = ff.skippedCycles;
        r.ffWarps = ff.warps;
        const auto it = last_.fastpath.find("fast_uops");
        r.fastUops = it == last_.fastpath.end() ? 0 : it->second;
        sim_.reset();
    });
    r.t = t_;
    return r;
}

// ---- helpers ----------------------------------------------------------

std::uint64_t
dataSeed(std::uint64_t seed, std::uint64_t index)
{
    // Four data classes: the correctness gate pins one DRAM fingerprint
    // per class (pins.json), so any seed is checkable.
    return jobSeed(index, 1 + seed % 4);
}

std::string
programSource(const std::vector<Instruction> &prog)
{
    std::string src;
    for (const Instruction &inst : prog) {
        std::string line = disassemble(inst);
        // Branch targets disassemble as "@N"; the assembler takes a bare
        // absolute index.
        line.erase(std::remove(line.begin(), line.end(), '@'), line.end());
        src += line;
        src += '\n';
    }
    return src;
}

std::vector<std::int16_t>
randomValues(Rng &rng, std::size_t n, int lo, int hi)
{
    std::vector<std::int16_t> v(n);
    for (auto &x : v)
        x = static_cast<std::int16_t>(rng.nextRange(lo, hi));
    return v;
}

void
writeValues(DramStorage &dram, Addr addr, const std::vector<std::int16_t> &v)
{
    dram.write(addr, v.data(), v.size() * sizeof(std::int16_t));
}

FeatureMap
randomFmap(Rng &rng, unsigned c, unsigned h, unsigned w)
{
    FeatureMap f(c, h, w);
    for (auto &x : f.data)
        x = static_cast<Fx16>(rng.nextRange(-8, 8));
    return f;
}

void
uploadRandomMrf(Rng &rng, const MrfDramLayout &layout, DramStorage &dram)
{
    MrfProblem p;
    p.width = layout.width();
    p.height = layout.height();
    p.labels = layout.labels();
    p.smoothCost = truncatedLinearSmoothness(p.labels, 3, 12);
    p.dataCost = randomValues(
        rng, static_cast<std::size_t>(p.width) * p.height * p.labels, 0, 24);
    layout.upload(p, dram);
}

namespace {

/** Row share each point simulates (table4_cnn's FRAC). */
constexpr double kCnnFrac = 0.02;

/** fc_layers' row fraction. */
constexpr double kFcFrac = 0.05;

/** BP-M iterations per tile phase, as in the paper. */
constexpr unsigned kBpIterations = 8;

unsigned
convVaults(const LayerDesc &l)
{
    // The paper uses half the vaults for the tiny c5 maps.
    return l.inWidth <= 14 ? 16 : 32;
}

/** One vault's share of a conv layer (runConvShare). */
PointResult
convShare(PointCtx &ctx, const LayerDesc &layer, unsigned vaults_active,
          double row_fraction)
{
    const unsigned in_c = layer.inChannels;
    const unsigned out_c = layer.outChannels;
    const unsigned shards = (in_c + 63) / 64;
    const unsigned zc = in_c / shards;
    const unsigned xy_tiles = vaults_active / shards;
    unsigned tx = 1, ty = 1;
    while (tx * ty < xy_tiles) {
        if (ty <= tx)
            ty *= 2;
        else
            tx *= 2;
    }
    const unsigned tile_w = layer.inWidth / tx;
    const unsigned tile_h = layer.inHeight / ty;
    const unsigned F = std::min(convFiltersResident(zc), out_c);
    const unsigned groups = out_c / F;
    const unsigned pes = 4;
    const unsigned rows_per_pe = std::max(
        1u, static_cast<unsigned>(tile_h * row_fraction / pes));

    Simulation &sim = ctx.build(makeSystemConfig(1, 4));
    const Addr base = sim.vaultBase();
    FmapDramLayout in_lay(base, zc, tile_h, tile_w, 1, true);
    FmapDramLayout out_lay(in_lay.end() + 4096, out_c, tile_h, tile_w, 1,
                           true);
    const std::uint64_t blob_elems =
        static_cast<std::uint64_t>(F) * 3 * 3 * zc;
    const Addr filt_base = out_lay.end() + 4096;
    const Addr bias_base = filt_base + groups * blob_elems * 2 + 4096;

    ctx.stage([&](Simulation &s) {
        DramStorage &dram = s.system().dram();
        in_lay.upload(randomFmap(ctx.rng(), zc, tile_h, tile_w), dram);
        writeValues(dram, filt_base,
                    randomValues(ctx.rng(), groups * blob_elems, -3, 3));
        writeValues(dram, bias_base, randomValues(ctx.rng(), out_c, -8, 8));
        writeValues(dram, bias_base + 4096,
                    randomValues(ctx.rng(), out_c, -8, 8));
    });
    ctx.program([&](Simulation &s) {
        for (unsigned pe = 0; pe < pes; ++pe) {
            ConvJob job;
            job.in = &in_lay;
            job.out = &out_lay;
            job.filterBlob = filt_base;
            job.biasBlob = bias_base;
            job.zShard = zc;
            job.filters = F;
            job.groups = groups;
            job.rowBegin = pe * rows_per_pe;
            job.rowEnd = (pe + 1) * rows_per_pe;
            job.width = tile_w;
            job.finalize = shards == 1;
            s.loadProgram(pe, genConvPass(job));
        }
    });
    ctx.run();
    const std::uint64_t macs = static_cast<std::uint64_t>(groups) * F *
                               pes * rows_per_pe * tile_w * 9 * zc;

    if (shards > 1) {
        // Shard accumulation over this vault's slice of the rows;
        // identical layouts stand in for the remote shards' partials.
        const unsigned acc_rows = std::max(
            1u, static_cast<unsigned>(tile_h * row_fraction / shards));
        std::vector<const FmapDramLayout *> parts(shards, &out_lay);
        ctx.program([&](Simulation &s) {
            ConvAccumJob acc;
            acc.partials = parts;
            acc.out = &out_lay;
            acc.biasRowBlob = bias_base + 4096;
            acc.rowBegin = 0;
            acc.rowEnd = acc_rows;
            acc.chunkElems = out_c;
            acc.chunksPerRow = tile_w;
            s.loadProgram(0, genConvAccum(acc));
        });
        ctx.run();
    }
    return ctx.collect(macs);
}

/** One vault's share of a pooling layer (runPoolShare). */
PointResult
poolShare(PointCtx &ctx, const LayerDesc &layer, unsigned vaults_active,
          double row_fraction)
{
    const unsigned C = layer.inChannels;
    const unsigned out_h = layer.outHeight();
    const unsigned out_w = layer.outWidth();
    const unsigned rows_total = std::max(
        1u, static_cast<unsigned>(
                out_h * row_fraction *
                (out_h >= vaults_active ? 1.0 / vaults_active : 1.0)));
    const unsigned pes = 4;
    const unsigned rows_per_pe = std::max(1u, rows_total / pes);

    Simulation &sim = ctx.build(makeSystemConfig(1, 4));
    FmapDramLayout in_lay(sim.vaultBase(), C, 2 * pes * rows_per_pe,
                          layer.inWidth, 0);
    FmapDramLayout out_lay(in_lay.end() + 4096, C, pes * rows_per_pe,
                           out_w, 0);
    ctx.stage([&](Simulation &s) {
        in_lay.upload(randomFmap(ctx.rng(), C, 2 * pes * rows_per_pe,
                                 layer.inWidth),
                      s.system().dram());
    });
    ctx.program([&](Simulation &s) {
        for (unsigned pe = 0; pe < pes; ++pe) {
            PoolJob job;
            job.in = &in_lay;
            job.out = &out_lay;
            job.rowBegin = pe * rows_per_pe;
            job.rowEnd = (pe + 1) * rows_per_pe;
            job.width = out_w;
            job.chunk = std::min(C, 256u);
            s.loadProgram(pe, genPool(job));
        }
    });
    ctx.run();
    return ctx.collect(static_cast<std::uint64_t>(pes) * rows_per_pe *
                       out_w * C * 4);
}

/** A BP-M tile phase on one vault (runBpTilePhase). */
PointResult
bpTilePhase(PointCtx &ctx, unsigned tile_w, unsigned tile_h,
            unsigned labels, unsigned iterations)
{
    Simulation &sim = ctx.build(makeSystemConfig(1, 4));
    MrfDramLayout layout(sim.vaultBase(), tile_w, tile_h, labels);
    ctx.stage([&](Simulation &s) {
        uploadRandomMrf(ctx.rng(), layout, s.system().dram());
    });
    const Addr flag_base = layout.end() + 64;
    const unsigned num_pes = 4;
    ctx.program([&](Simulation &s) {
        for (unsigned pe = 0; pe < num_pes; ++pe) {
            auto slice = [&](unsigned lanes) {
                const unsigned per = (lanes + num_pes - 1) / num_pes;
                const unsigned begin = std::min(lanes, pe * per);
                return std::make_pair(begin, std::min(lanes, begin + per));
            };
            const auto [hb, he] = slice(tile_h);
            const auto [vb, ve] = slice(tile_w);
            BpSweepJob jobs[4] = {{SweepDir::Right, hb, he},
                                  {SweepDir::Left, hb, he},
                                  {SweepDir::Down, vb, ve},
                                  {SweepDir::Up, vb, ve}};
            s.loadProgram(pe, genBpIterations(layout, BpVariant{}, jobs,
                                              iterations, flag_base, pe,
                                              num_pes));
        }
    });
    ctx.run();
    return ctx.collect(4ull * tile_w * tile_h * iterations);
}

/** Hierarchical BP construct slice (runConstructPhase). */
PointResult
constructPhase(PointCtx &ctx, unsigned fine_w, unsigned fine_h,
               unsigned labels, unsigned coarse_rows)
{
    Simulation &sim = ctx.build(makeSystemConfig(1, 4));
    MrfDramLayout fine(sim.vaultBase(), fine_w, fine_h, labels);
    MrfDramLayout coarse(fine.end() + 64, fine_w / 2, fine_h / 2, labels);
    ctx.stage([&](Simulation &s) {
        uploadRandomMrf(ctx.rng(), fine, s.system().dram());
    });
    const unsigned pes = 4;
    const unsigned per = std::max(1u, coarse_rows / pes);
    ctx.program([&](Simulation &s) {
        for (unsigned pe = 0; pe < pes; ++pe) {
            ConstructJob job;
            job.fine = &fine;
            job.coarse = &coarse;
            job.rowBegin = pe * per;
            job.rowEnd = (pe + 1) * per;
            s.loadProgram(pe, genConstruct(job));
        }
    });
    ctx.run();
    return ctx.collect(static_cast<std::uint64_t>(pes) * per * (fine_w / 2));
}

/** Hierarchical BP copy slice (runCopyPhase). */
PointResult
copyPhase(PointCtx &ctx, unsigned fine_w, unsigned fine_h, unsigned labels,
          unsigned fine_rows)
{
    Simulation &sim = ctx.build(makeSystemConfig(1, 4));
    MrfDramLayout fine(sim.vaultBase(), fine_w, fine_h, labels);
    MrfDramLayout coarse(fine.end() + 64, fine_w / 2, fine_h / 2, labels);
    ctx.stage([&](Simulation &s) {
        uploadRandomMrf(ctx.rng(), coarse, s.system().dram());
    });
    const unsigned pes = 4;
    const unsigned per = std::max(2u, fine_rows / pes) & ~1u;
    ctx.program([&](Simulation &s) {
        for (unsigned pe = 0; pe < pes; ++pe) {
            CopyJob job;
            job.coarse = &coarse;
            job.fine = &fine;
            job.rowBegin = pe * per;
            job.rowEnd = (pe + 1) * per;
            s.loadProgram(pe, genCopyMessages(job));
        }
    });
    ctx.run();
    return ctx.collect(static_cast<std::uint64_t>(pes) * per * fine_w);
}

/** A fully-connected layer on the full 32-vault machine (runFcLayer). */
PointResult
fcLayer(PointCtx &ctx, unsigned inputs, unsigned outputs,
        double row_fraction)
{
    SystemConfig cfg = makeSystemConfig(32, 4);
    Simulation &sim = ctx.build(cfg);
    VipSystem &sys = sim.system();
    const unsigned vaults = 32, pes_per_vault = 4;
    const unsigned seg = inputs / (vaults * pes_per_vault);
    unsigned out_block = 64;
    while (outputs % out_block)
        out_block /= 2;
    unsigned rows = static_cast<unsigned>(outputs * row_fraction);
    rows = std::max(out_block, rows - rows % out_block);

    const Addr in_addr = sys.vaultBase(0);
    const Addr bias_addr = in_addr + 2ull * inputs + 4096;
    const Addr out_addr = bias_addr + 2ull * outputs + 4096;
    const std::uint64_t local_off = 1ull << 22;
    const std::uint64_t part_off = local_off / 2;
    const std::uint64_t part_stride = 2ull * outputs + 256;
    auto weightBase = [&](unsigned v, unsigned p) {
        return sys.vaultBase(v) + local_off +
               p * (2ull * outputs * seg + 256);
    };

    ctx.stage([&](Simulation &s) {
        DramStorage &dram = s.system().dram();
        writeValues(dram, in_addr, randomValues(ctx.rng(), inputs, -8, 8));
        writeValues(dram, bias_addr,
                    randomValues(ctx.rng(), outputs, -8, 8));
        // Only the simulated rows of each PE's weight tile are read.
        for (unsigned v = 0; v < vaults; ++v) {
            for (unsigned p = 0; p < pes_per_vault; ++p) {
                writeValues(dram, weightBase(v, p),
                            randomValues(ctx.rng(),
                                         static_cast<std::size_t>(rows) * seg,
                                         -3, 3));
            }
        }
    });
    std::uint64_t macs = 0;
    ctx.program([&](Simulation &s) {
        for (unsigned v = 0; v < vaults; ++v) {
            for (unsigned p = 0; p < pes_per_vault; ++p) {
                FcPartialJob job;
                job.weightBase = weightBase(v, p);
                job.inputBase =
                    in_addr + 2ull * seg * (v * pes_per_vault + p);
                job.outBase = sys.vaultBase(v) + part_off + p * part_stride;
                job.inputs = seg;
                job.segOffset = 0;
                job.segLen = seg;
                job.rowBegin = 0;
                job.rowEnd = rows;
                job.outBlock = out_block;
                s.loadProgram(v * pes_per_vault + p, genFcPartial(job));
                macs += static_cast<std::uint64_t>(rows) * seg;
            }
        }
    });
    ctx.run();

    unsigned acc_pes = 32;
    while (rows % acc_pes)
        acc_pes /= 2;
    const unsigned chunk_total = rows / acc_pes;
    unsigned chunk = chunk_total;
    while (chunk > 512)
        chunk /= 2;
    if (chunk_total % chunk)
        chunk = chunk_total;
    ctx.program([&](Simulation &s) {
        for (unsigned a = 0; a < acc_pes; ++a) {
            FcAccumJob acc;
            acc.partialBase0 = sys.vaultBase(0) + part_off;
            acc.strideOuter = cfg.mem.geom.bytesPerVault();
            acc.countOuter = vaults;
            acc.strideInner = part_stride;
            acc.countInner = pes_per_vault;
            acc.outBase = out_addr;
            acc.biasBase = bias_addr;
            acc.outBegin = a * chunk_total;
            acc.outEnd = (a + 1) * chunk_total;
            acc.chunk = chunk;
            // The placement table4_cnn uses, kept so cycles match it.
            const unsigned vault = (a % 8) * 4 / 8 * 8 + (a / 8) * 8 % 32;
            const unsigned pe = (vault % 32) * pes_per_vault + (a % 4);
            s.loadProgram(pe % sys.numPes(), genFcAccum(acc));
        }
    });
    ctx.run();
    return ctx.collect(macs);
}

/** Mean |simulated - paper| / paper over (simulated, paper) pairs, %. */
double
meanErrPct(const std::vector<std::pair<double, double>> &sim_paper)
{
    double sum = 0;
    for (const auto &[sim, paper] : sim_paper)
        sum += 100.0 * std::abs(sim - paper) / paper;
    return sum / static_cast<double>(sim_paper.size());
}

/** Layer time scaled from a point as table4_cnn does, in ms. */
double
layerMs(const LayerDesc &l, const PointResult &r)
{
    const double share =
        static_cast<double>(l.macs()) /
        (l.kind == LayerDesc::Kind::Conv ? convVaults(l) : 32.0);
    return cyclesToMs(r.cycles) * share / static_cast<double>(r.work);
}

SweepWorkload
cnnTiles()
{
    SweepWorkload w;
    w.name = "cnn_tiles";
    w.shape = {1, 512, 64};
    // One point per distinct layer shape: c3_3, c4_3, c5_2 and c5_3
    // repeat the shape before them, so simulating them again would
    // only repeat identical cycles. pointOf maps each layer to its point.
    std::vector<LayerDesc> layers;
    std::vector<std::size_t> pointOf;
    for (const LayerDesc &l : vgg16Layers()) {
        if (l.kind != LayerDesc::Kind::Fc)
            layers.push_back(l);
    }
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const LayerDesc &l = layers[i];
        std::size_t j = 0;
        while (j < i && !(layers[j].kind == l.kind &&
                          layers[j].inChannels == l.inChannels &&
                          layers[j].outChannels == l.outChannels &&
                          layers[j].inHeight == l.inHeight &&
                          layers[j].inWidth == l.inWidth))
            ++j;
        if (j < i) {
            pointOf.push_back(pointOf[j]);
            continue;
        }
        pointOf.push_back(w.points.size());
        w.points.push_back({l.name, [l](PointCtx &ctx) {
            return l.kind == LayerDesc::Kind::Conv
                       ? convShare(ctx, l, convVaults(l), kCnnFrac)
                       : poolShare(ctx, l, 32, kCnnFrac);
        }});
    }
    w.modelErrPct = [layers, pointOf](const std::vector<PointResult> &rs) {
        double total = 0;
        for (std::size_t i = 0; i < layers.size(); ++i)
            total += layerMs(layers[i], rs[pointOf[i]]);
        // Sec. VI-A: VGG-16 conv+pool at batch 1 and batch 3.
        return meanErrPct({{total, 30.9}, {3 * total, 91.6}});
    };
    w.sampleSpec = [] { return convSpec(1, 56, 64); };
    return w;
}

SweepWorkload
mrfTiles()
{
    SweepWorkload w;
    w.name = "mrf_tiles";
    w.shape = {1, 32, 16};
    const unsigned tw = 60, th = 34, labels = 16;
    w.points = {
        {"tile_fhd", [=](PointCtx &ctx) {
             return bpTilePhase(ctx, tw, th, labels, kBpIterations);
         }},
        {"tile_qhd", [=](PointCtx &ctx) {
             return bpTilePhase(ctx, tw / 2, th / 2, labels, kBpIterations);
         }},
        {"construct", [=](PointCtx &ctx) {
             return constructPhase(ctx, 512, 256, labels, 8);
         }},
        {"copy", [=](PointCtx &ctx) {
             return copyPhase(ctx, 512, 256, labels, 8);
         }},
    };
    w.modelErrPct = [](const std::vector<PointResult> &rs) {
        // A full-HD iteration is 32 sequential tile phases per vault.
        const double fhd_iter = cyclesToMs(rs[0].cycles) * 32 / kBpIterations;
        const double qhd_iter = cyclesToMs(rs[1].cycles) * 32 / kBpIterations;
        const double construct = cyclesToMs(rs[2].cycles) *
                                 (960.0 * 540 / 32) /
                                 static_cast<double>(rs[2].work);
        const double copy = cyclesToMs(rs[3].cycles) * (1920.0 * 1080 / 32) /
                            static_cast<double>(rs[3].work);
        const double hier = construct + copy + 5 * qhd_iter + 5 * fhd_iter;
        return meanErrPct({{fhd_iter, 5.2},
                           {8 * fhd_iter, 41.3},
                           {qhd_iter, 1.8},
                           {construct, 0.36},
                           {copy, 1.26},
                           {hier, 36.3}});
    };
    w.sampleSpec = [] { return bpTileSpec(1, 30, 17, 16); };
    return w;
}

SweepWorkload
fcLayers()
{
    SweepWorkload w;
    w.name = "fc_layers";
    w.shape = {32, 1024, 64};
    std::vector<LayerDesc> layers;
    for (const LayerDesc &l : vgg16Layers()) {
        if (l.kind == LayerDesc::Kind::Fc)
            layers.push_back(l);
    }
    for (const LayerDesc &l : layers) {
        w.points.push_back({l.name, [l](PointCtx &ctx) {
            return fcLayer(ctx, l.inputs, l.outputs, kFcFrac);
        }});
    }
    w.modelErrPct = [layers](const std::vector<PointResult> &rs) {
        // table4_cnn's FC batch model: weights stay resident, so
        // t(B) = t(1) + (B - 1) * t_compute at the 640 GMAC/s peak.
        double t1 = 0, compute = 0;
        for (std::size_t i = 0; i < layers.size(); ++i) {
            const double macs = static_cast<double>(layers[i].macs());
            t1 += cyclesToMs(rs[i].cycles) * macs /
                  static_cast<double>(rs[i].work);
            compute += macs / (128.0 * 4.0 * 1.25e9) * 1e3;
        }
        return meanErrPct({{t1, 1.4},
                           {t1 + 2 * compute, 1.8},
                           {t1 + 15 * compute, 4.4}});
    };
    w.sampleSpec = [] { return fcSliceSpec(1, 64, 256); };
    return w;
}

} // namespace

SweepWorkload
makeSweepWorkload(const std::string &name)
{
    if (name == "cnn_tiles")
        return cnnTiles();
    if (name == "mrf_tiles")
        return mrfTiles();
    if (name == "fc_layers")
        return fcLayers();
    throw ConfigError("unknown sweep workload \"" + name + "\"");
}

} // namespace perfbench
