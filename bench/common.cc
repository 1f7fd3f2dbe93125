#include "common.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "isa/builder.hh"
#include "kernels/bp_kernel.hh"
#include "kernels/conv_kernel.hh"
#include "kernels/fc_kernel.hh"
#include "kernels/hier_kernel.hh"
#include "kernels/layout.hh"
#include "kernels/pool_kernel.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "system/simulation.hh"
#include "tools/cli.hh"

namespace vip {

namespace {

/** Set by --no-fast-forward; read by benchConfig(). */
bool g_fast_forward = true;

/** Set by --no-fast-path; read by benchConfig(). */
bool g_fast_path = true;

} // namespace

SystemConfig
benchConfig(unsigned vaults, unsigned pes_per_vault)
{
    SystemConfig cfg = makeSystemConfig(vaults, pes_per_vault);
    cfg.fastForward = g_fast_forward;
    cfg.fastPath = g_fast_path;
    return cfg;
}

BenchOptions
parseBenchOptions(int argc, char **argv, double default_frac)
{
    BenchOptions opts;
    opts.frac = default_frac;
    char help[64];
    std::snprintf(help, sizeof help,
                  "simulated share of each tile, in (0, 1] (default %g)",
                  default_frac);
    const auto setFrac = [&opts](const char *v) {
        char *end = nullptr;
        opts.frac = std::strtod(v, &end);
        // !(frac > 0) also rejects NaN.
        if (end == v || *end != '\0' || !(opts.frac > 0) || opts.frac > 1)
            throw ConfigError(std::string("'") + v +
                              "' is not a number in (0, 1]");
    };
    const cli::Row frac{"FRAC", nullptr, help, setFrac};
    cli::parse(argc, argv, default_frac > 0 ? "[FRAC] [options]" : "[options]",
               {cli::jobs(opts.jobs), cli::noFastForward(g_fast_forward),
                cli::noFastPath(g_fast_path)},
               default_frac > 0 ? &frac : nullptr);
    return opts;
}

void
reportFailures(const std::vector<SweepFailure> &failed, std::size_t points)
{
    for (const SweepFailure &f : failed) {
        std::fprintf(stderr, "warning: sweep point %zu failed (%s): %s\n",
                     f.index, f.error.kind().c_str(),
                     f.error.message().c_str());
    }
    if (!failed.empty()) {
        std::fprintf(stderr,
                     "warning: %zu of %zu sweep points failed; their "
                     "rows are zeroed below\n",
                     failed.size(), points);
    }
}

void
applyKnobs(MemConfig &cfg, const MemKnobs &knobs)
{
    if (knobs.closedPage)
        cfg.pagePolicy = PagePolicy::Closed;
    if (knobs.rankScale > 0)
        cfg.geom.scaleBanks(true);
    else if (knobs.rankScale < 0)
        cfg.geom.scaleBanks(false);
    if (knobs.rowScale > 0)
        cfg.geom.scaleRowWidth(true);
    else if (knobs.rowScale < 0)
        cfg.geom.scaleRowWidth(false);
    if (knobs.refreshScale > 1)
        cfg.timing.scaleRefresh(knobs.refreshScale);
}

namespace {

SliceResult
collect(const VipSystem &sys, Cycles cycles, std::uint64_t work)
{
    SliceResult r;
    r.cycles = cycles;
    r.vectorOps = sys.totalVectorOps();
    r.dramBytes = sys.hmc().totalBytesMoved();
    r.workItems = work;
    return r;
}

} // namespace

SliceResult
runBpTilePhase(unsigned tile_w, unsigned tile_h, unsigned labels,
               unsigned iterations, const MemKnobs &knobs)
{
    SystemConfig cfg = benchConfig(1, 4);
    applyKnobs(cfg.mem, knobs);
    Simulation sim(cfg);

    MrfDramLayout layout(sim.vaultBase(), tile_w, tile_h, labels);

    // Random data costs: timing is data-independent, but the messages
    // exercise realistic value ranges.
    Rng rng(1);
    MrfProblem prob;
    prob.width = tile_w;
    prob.height = tile_h;
    prob.labels = labels;
    prob.smoothCost = truncatedLinearSmoothness(labels, 3, 12);
    prob.dataCost.resize(static_cast<std::size_t>(tile_w) * tile_h *
                         labels);
    for (auto &c : prob.dataCost)
        c = static_cast<Fx16>(rng.nextBelow(25));
    layout.upload(prob, sim.system().dram());

    const Addr flag_base = layout.end() + 64;
    const unsigned num_pes = 4;
    for (unsigned pe = 0; pe < num_pes; ++pe) {
        const auto jobs = bpTileJobs(tile_w, tile_h, pe, num_pes);
        sim.loadProgram(pe, genBpIterations(layout, BpVariant{}, jobs,
                                            iterations, flag_base, pe,
                                            num_pes));
    }
    const Cycles cycles = sim.run().cycles;
    return collect(sim.system(), cycles,
                   4ull * tile_w * tile_h * iterations);
}

SliceResult
runBpSweepVariant(unsigned tile_w, unsigned tile_h, unsigned labels,
                  bool reduction, bool register_file)
{
    SystemConfig cfg = benchConfig(1, 4);
    Simulation sim(cfg);
    MrfDramLayout layout(sim.vaultBase(), tile_w, tile_h, labels);

    const unsigned num_pes = 4;
    BpVariant variant;
    variant.reduction = reduction;
    variant.registerFile = register_file;
    variant.normalize = false;  // Fig. 4 compares raw update costs
    for (unsigned pe = 0; pe < num_pes; ++pe) {
        const unsigned per = (tile_h + num_pes - 1) / num_pes;
        const unsigned begin = std::min(tile_h, pe * per);
        const unsigned end = std::min(tile_h, begin + per);
        if (begin == end)
            continue;
        sim.loadProgram(pe, genBpSweep(
            layout, variant, BpSweepJob{SweepDir::Right, begin, end}));
    }
    const Cycles cycles = sim.run().cycles;
    return collect(sim.system(), cycles,
                   static_cast<std::uint64_t>(tile_w - 1) * tile_h);
}

SliceResult
runConvShare(const LayerDesc &layer, unsigned vaults_active,
             double row_fraction, const MemKnobs &knobs)
{
    vip_assert(layer.kind == LayerDesc::Kind::Conv, "not a conv layer");
    SystemConfig cfg = benchConfig(1, 4);
    applyKnobs(cfg.mem, knobs);

    const unsigned in_c = layer.inChannels;
    const unsigned out_c = layer.outChannels;
    const unsigned shards = (in_c + 63) / 64;
    vip_assert(in_c % shards == 0, "channel count not shardable");
    const unsigned zc = in_c / shards;
    vip_assert(vaults_active % shards == 0,
               "shards must divide the active vaults");
    const unsigned xy_tiles = vaults_active / shards;

    // Factor the X-Y tile grid. Favor wide tiles: the kernel's steady
    // state runs along a row, so row-boundary ramp costs amortize over
    // the tile width.
    unsigned tx = 1, ty = 1;
    while (tx * ty < xy_tiles) {
        if (ty <= tx)
            ty *= 2;
        else
            tx *= 2;
    }
    vip_assert(layer.inWidth % tx == 0 && layer.inHeight % ty == 0,
               "tile grid does not divide the layer");
    const unsigned tile_w = layer.inWidth / tx;
    const unsigned tile_h = layer.inHeight / ty;

    const unsigned F = std::min(convFiltersResident(zc), out_c);
    vip_assert(out_c % F == 0, "filter groups must divide out channels");
    const unsigned groups = out_c / F;

    // Rows per PE at this fraction (>= 1).
    const unsigned pes = 4;
    const unsigned rows_per_pe = std::max(
        1u, static_cast<unsigned>(tile_h * row_fraction / pes));

    Simulation sim(cfg);
    const Addr base = sim.vaultBase();
    // Column-major placement: each window column is one contiguous
    // transfer (the inter-layer data placement of Sec. IV-B).
    FmapDramLayout in_lay(base, zc, tile_h, tile_w, 1, true);
    FmapDramLayout out_lay(in_lay.end() + 4096, out_c, tile_h, tile_w,
                           1, true);
    // Filter blobs for every group, packed back to back.
    const std::uint64_t blob_elems =
        static_cast<std::uint64_t>(F) * 3 * 3 * zc;
    const Addr filt_base = out_lay.end() + 4096;
    const Addr bias_base = filt_base + groups * blob_elems * 2 + 4096;

    Cycles total_cycles = 0;
    std::uint64_t macs = 0;

    for (unsigned pe = 0; pe < pes; ++pe) {
        ConvJob job;
        job.in = &in_lay;
        job.out = &out_lay;
        job.filterBlob = filt_base;
        job.biasBlob = bias_base;
        job.zShard = zc;
        job.filters = F;
        job.filterOffset = 0;
        job.groups = groups;
        job.rowBegin = pe * rows_per_pe;
        job.rowEnd = (pe + 1) * rows_per_pe;
        job.width = tile_w;
        job.finalize = shards == 1;
        sim.loadProgram(pe, genConvPass(job));
    }
    total_cycles = sim.run().cycles;
    macs = static_cast<std::uint64_t>(groups) * F * pes * rows_per_pe *
           tile_w * 9 * zc;

    // Shard accumulation: this vault combines its 1/shards slice of
    // the tile's rows across all shard partials.
    if (shards > 1) {
        const unsigned acc_rows = std::max(
            1u, static_cast<unsigned>(tile_h * row_fraction / shards));
        ConvAccumJob acc;
        std::vector<const FmapDramLayout *> parts(shards, &out_lay);
        acc.partials = parts;  // identical layouts stand in for the
                               // remote shards' partial maps
        acc.out = &out_lay;
        acc.biasRowBlob = bias_base + 4096;
        acc.rowBegin = 0;
        acc.rowEnd = acc_rows;
        acc.chunkElems = out_c;
        acc.chunksPerRow = tile_w;
        sim.loadProgram(0, genConvAccum(acc));
        total_cycles = sim.run().cycles;
    }

    return collect(sim.system(), total_cycles, macs);
}

SliceResult
runPoolShare(const LayerDesc &layer, unsigned vaults_active,
             double row_fraction, const MemKnobs &knobs)
{
    vip_assert(layer.kind == LayerDesc::Kind::Pool, "not a pool layer");
    SystemConfig cfg = benchConfig(1, 4);
    applyKnobs(cfg.mem, knobs);
    Simulation sim(cfg);

    const unsigned C = layer.inChannels;
    const unsigned out_h = layer.outHeight();
    const unsigned out_w = layer.outWidth();
    // Simulate a representative strip: the vault's row share.
    const unsigned rows_total = std::max(
        1u, static_cast<unsigned>(out_h * row_fraction *
                                  (out_h >= vaults_active
                                       ? 1.0 / vaults_active
                                       : 1.0)));
    const unsigned pes = 4;
    const unsigned rows_per_pe = std::max(1u, rows_total / pes);

    FmapDramLayout in_lay(sim.vaultBase(), C, 2 * pes * rows_per_pe,
                          layer.inWidth, 0);
    FmapDramLayout out_lay(in_lay.end() + 4096, C, pes * rows_per_pe,
                           out_w, 0);
    for (unsigned pe = 0; pe < pes; ++pe) {
        PoolJob job;
        job.in = &in_lay;
        job.out = &out_lay;
        job.rowBegin = pe * rows_per_pe;
        job.rowEnd = (pe + 1) * rows_per_pe;
        job.width = out_w;
        job.chunk = std::min(C, 256u);
        sim.loadProgram(pe, genPool(job));
    }
    const Cycles cycles = sim.run().cycles;
    return collect(sim.system(), cycles,
                   static_cast<std::uint64_t>(pes) * rows_per_pe * out_w *
                       C * 4);
}

SliceResult
runFcLayer(unsigned inputs, unsigned outputs, double row_fraction,
           const MemKnobs &knobs)
{
    SystemConfig cfg = benchConfig(32, 4);
    applyKnobs(cfg.mem, knobs);
    Simulation sim(cfg);
    VipSystem &sys = sim.system();

    const unsigned vaults = 32, pes_per_vault = 4;
    const unsigned seg = inputs / (vaults * pes_per_vault);
    vip_assert(seg > 0 && inputs % (vaults * pes_per_vault) == 0,
               "input length must split across 128 PEs");

    unsigned out_block = 64;
    while (outputs % out_block)
        out_block /= 2;
    vip_assert(out_block >= 8, "outputs not block-alignable");

    unsigned rows = static_cast<unsigned>(outputs * row_fraction);
    rows = std::max(out_block, rows - rows % out_block);

    // Per-vault local regions: weight tiles, the partial arrays, and
    // (in vault 0) the input, bias, and final outputs.
    const Addr in_addr = sys.vaultBase(0);
    const Addr bias_addr = in_addr + 2ull * inputs + 4096;
    const Addr out_addr = bias_addr + 2ull * outputs + 4096;
    const std::uint64_t local_off = 1ull << 22;  // 4 MiB into each vault
    const std::uint64_t part_off = local_off / 2;
    const std::uint64_t part_stride = 2ull * outputs + 256;

    std::uint64_t macs = 0;
    for (unsigned v = 0; v < vaults; ++v) {
        for (unsigned p = 0; p < pes_per_vault; ++p) {
            FcPartialJob job;
            // Weight tile [outputs x seg] resident in the local vault.
            job.weightBase = sys.vaultBase(v) + local_off +
                             p * (2ull * outputs * seg + 256);
            job.inputBase = in_addr +
                            2ull * seg * (v * pes_per_vault + p);
            job.outBase = sys.vaultBase(v) + part_off + p * part_stride;
            job.inputs = seg;  // local tile row stride
            job.segOffset = 0;
            job.segLen = seg;
            job.rowBegin = 0;
            job.rowEnd = rows;
            job.outBlock = out_block;
            sim.loadProgram(v * pes_per_vault + p, genFcPartial(job));
            macs += static_cast<std::uint64_t>(rows) * seg;
        }
    }
    Cycles cycles = sim.run().cycles;

    // Accumulation on the left-column vaults' PEs.
    unsigned acc_pes = 32;
    while (rows % acc_pes)
        acc_pes /= 2;
    const unsigned chunk_total = rows / acc_pes;
    unsigned chunk = chunk_total;
    while (chunk > 512)
        chunk /= 2;
    if (chunk_total % chunk)
        chunk = chunk_total;

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
        // Left-column vaults: one per torus row -> vaults 0, 8, 16, 24.
        const unsigned vault = (a % 8) * 4 / 8 * 8 + (a / 8) * 8 % 32;
        const unsigned pe = (vault % 32) * pes_per_vault + (a % 4);
        sim.loadProgram(pe % sys.numPes(), genFcAccum(acc));
    }
    cycles = sim.run().cycles;

    return collect(sys, cycles, macs);
}

SliceResult
runConstructPhase(unsigned fine_w, unsigned fine_h, unsigned labels,
                  unsigned coarse_rows)
{
    SystemConfig cfg = benchConfig(1, 4);
    Simulation sim(cfg);
    MrfDramLayout fine(sim.vaultBase(), fine_w, fine_h, labels);
    MrfDramLayout coarse(fine.end() + 64, fine_w / 2, fine_h / 2,
                         labels);
    const unsigned pes = 4;
    const unsigned per = std::max(1u, coarse_rows / pes);
    for (unsigned pe = 0; pe < pes; ++pe) {
        ConstructJob job;
        job.fine = &fine;
        job.coarse = &coarse;
        job.rowBegin = pe * per;
        job.rowEnd = (pe + 1) * per;
        sim.loadProgram(pe, genConstruct(job));
    }
    const Cycles cycles = sim.run().cycles;
    return collect(sim.system(), cycles,
                   static_cast<std::uint64_t>(pes) * per * (fine_w / 2));
}

SliceResult
runCopyPhase(unsigned fine_w, unsigned fine_h, unsigned labels,
             unsigned fine_rows)
{
    SystemConfig cfg = benchConfig(1, 4);
    Simulation sim(cfg);
    MrfDramLayout fine(sim.vaultBase(), fine_w, fine_h, labels);
    MrfDramLayout coarse(fine.end() + 64, fine_w / 2, fine_h / 2,
                         labels);
    const unsigned pes = 4;
    const unsigned per = std::max(2u, fine_rows / pes) & ~1u;
    for (unsigned pe = 0; pe < pes; ++pe) {
        CopyJob job;
        job.coarse = &coarse;
        job.fine = &fine;
        job.rowBegin = pe * per;
        job.rowEnd = (pe + 1) * per;
        sim.loadProgram(pe, genCopyMessages(job));
    }
    const Cycles cycles = sim.run().cycles;
    return collect(sim.system(), cycles,
                   static_cast<std::uint64_t>(pes) * per * fine_w);
}

SliceResult
runStreamCopy(std::uint64_t bytes_per_pe, const MemKnobs &knobs)
{
    SystemConfig cfg = benchConfig(1, 4);
    applyKnobs(cfg.mem, knobs);
    Simulation sim(cfg);

    const std::uint64_t chunk = 1024;  // bytes per ld/st pair
    const std::uint64_t iters = bytes_per_pe / (2 * chunk);
    vip_assert(iters > 0, "copy too small");

    for (unsigned pe = 0; pe < 4; ++pe) {
        AsmBuilder b;
        const Addr src = sim.vaultBase() + pe * (16ull << 20);
        const Addr dst = src + (8ull << 20);
        b.movImm(1, 0);                       // r1 = loop counter
        b.movImm(2, static_cast<std::int64_t>(iters));
        b.movImm(3, static_cast<std::int64_t>(src));
        b.movImm(4, static_cast<std::int64_t>(dst));
        b.movImm(5, static_cast<std::int64_t>(chunk));   // stride
        b.movImm(6, static_cast<std::int64_t>(chunk / 2)); // elems
        b.movImm(7, 0);                       // sp buffer A
        b.movImm(8, 2048);                    // sp buffer B
        const auto loop = b.newLabel();
        b.bind(loop);
        // Double-buffered streaming copy.
        b.ldSram(7, 3, 6);
        b.stSram(8, 4, 6);
        b.scalar(ScalarOp::Add, 3, 3, 5);
        b.scalar(ScalarOp::Add, 4, 4, 5);
        // Swap buffers.
        b.scalar(ScalarOp::Xor, 7, 7, 8);
        b.scalar(ScalarOp::Xor, 8, 8, 7);
        b.scalar(ScalarOp::Xor, 7, 7, 8);
        b.addImm(1, 1, 1);
        b.branch(BranchCond::Lt, 1, 2, loop);
        b.memfence();
        b.halt();
        sim.loadProgram(pe, b.finish());
    }
    const Cycles cycles = sim.run().cycles;
    return collect(sim.system(), cycles, 4 * bytes_per_pe);
}

} // namespace vip
