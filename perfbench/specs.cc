/**
 * @file
 * Small single-phase RunSpecs built from the kernel generators: the
 * request kinds of serve_mix and the sample specs of the spec-parse
 * driver. Each builder stages its seeded inputs into a scratch
 * machine and captures them as pokes, so the spec carries everything
 * a run needs.
 */

#include <functional>

#include "bench.hh"
#include "kernels/bp_kernel.hh"
#include "kernels/conv_kernel.hh"
#include "kernels/fc_kernel.hh"
#include "kernels/layout.hh"
#include "kernels/pool_kernel.hh"
#include "sim/json.hh"
#include "workloads/mrf.hh"

namespace perfbench {

using namespace vip;

namespace {

using Programs = std::vector<std::pair<unsigned, std::vector<Instruction>>>;

volatile std::uint64_t g_parseSink = 0;

/** Runs of nonzero 16-bit words in @p dram, split at gaps of eight or
 *  more zero words. */
std::vector<RunSpec::DramPoke>
pokesFrom(const DramStorage &dram)
{
    std::vector<RunSpec::DramPoke> pokes;
    constexpr std::size_t kWords = DramStorage::kPageBytes / 2;
    for (const Addr page : dram.touchedPageNumbers()) {
        const Addr base = page * DramStorage::kPageBytes;
        std::vector<std::int16_t> words(kWords);
        dram.read(base, words.data(), DramStorage::kPageBytes);
        std::size_t i = 0;
        while (i < kWords) {
            if (words[i] == 0) {
                ++i;
                continue;
            }
            std::size_t end = i, zeros = 0;
            for (std::size_t j = i; j < kWords && zeros < 8; ++j) {
                if (words[j] == 0) {
                    ++zeros;
                } else {
                    zeros = 0;
                    end = j + 1;
                }
            }
            RunSpec::DramPoke p;
            p.addr = base + 2 * i;
            p.values.assign(words.begin() + i, words.begin() + end);
            pokes.push_back(std::move(p));
            i = end;
        }
    }
    return pokes;
}

RunSpec
makeSpec(const SystemConfig &cfg, std::uint64_t seed,
         const std::function<Programs(Simulation &, Rng &)> &build)
{
    Simulation scratch(cfg);
    Rng rng(seed);
    const Programs progs = build(scratch, rng);
    RunSpec spec;
    spec.config = cfg;
    spec.pokes = pokesFrom(scratch.system().dram());
    for (const auto &[pe, prog] : progs)
        spec.programs.push_back({pe, programSource(prog)});
    return spec;
}

/** [begin, end) of lane slice @p pe of @p lanes over four PEs. */
std::pair<unsigned, unsigned>
laneSlice(unsigned lanes, unsigned pe)
{
    const unsigned per = (lanes + 3) / 4;
    const unsigned begin = std::min(lanes, pe * per);
    return {begin, std::min(lanes, begin + per)};
}

} // namespace

RunSpec
bpSweepSpec(std::uint64_t seed, unsigned w, unsigned h, unsigned labels)
{
    return makeSpec(makeSystemConfig(1, 4), seed,
                    [&](Simulation &sim, Rng &rng) {
        MrfDramLayout layout(sim.vaultBase(), w, h, labels);
        uploadRandomMrf(rng, layout, sim.system().dram());
        Programs progs;
        for (unsigned pe = 0; pe < 4; ++pe) {
            const auto [b, e] = laneSlice(h, pe);
            if (b == e)
                continue;
            progs.emplace_back(pe, genBpSweep(layout, BpVariant{},
                                              {SweepDir::Right, b, e}));
        }
        return progs;
    });
}

RunSpec
bpTileSpec(std::uint64_t seed, unsigned w, unsigned h, unsigned labels)
{
    return makeSpec(makeSystemConfig(1, 4), seed,
                    [&](Simulation &sim, Rng &rng) {
        MrfDramLayout layout(sim.vaultBase(), w, h, labels);
        uploadRandomMrf(rng, layout, sim.system().dram());
        Programs progs;
        for (unsigned pe = 0; pe < 4; ++pe) {
            const auto [hb, he] = laneSlice(h, pe);
            const auto [vb, ve] = laneSlice(w, pe);
            BpSweepJob jobs[4] = {{SweepDir::Right, hb, he},
                                  {SweepDir::Left, hb, he},
                                  {SweepDir::Down, vb, ve},
                                  {SweepDir::Up, vb, ve}};
            progs.emplace_back(pe, genBpIterations(layout, BpVariant{}, jobs,
                                                   1, layout.end() + 64, pe,
                                                   4));
        }
        return progs;
    });
}

RunSpec
convSpec(std::uint64_t seed, unsigned width, unsigned channels)
{
    return makeSpec(makeSystemConfig(1, 4), seed,
                    [&](Simulation &sim, Rng &rng) {
        const unsigned rows = 4;
        const unsigned F = convFiltersResident(channels);
        FmapDramLayout in(sim.vaultBase(), channels, rows, width, 1, true);
        FmapDramLayout out(in.end() + 4096, F, rows, width, 1, true);
        const Addr filt = out.end() + 4096;
        const Addr bias = filt + 2ull * F * 9 * channels + 4096;
        DramStorage &dram = sim.system().dram();
        in.upload(randomFmap(rng, channels, rows, width), dram);
        writeValues(dram, filt,
                    randomValues(rng, std::size_t{F} * 9 * channels, -3, 3));
        writeValues(dram, bias, randomValues(rng, F, -8, 8));
        Programs progs;
        for (unsigned pe = 0; pe < 4; ++pe) {
            ConvJob job;
            job.in = &in;
            job.out = &out;
            job.filterBlob = filt;
            job.biasBlob = bias;
            job.zShard = channels;
            job.filters = F;
            job.rowBegin = pe;
            job.rowEnd = pe + 1;
            job.width = width;
            progs.emplace_back(pe, genConvPass(job));
        }
        return progs;
    });
}

RunSpec
poolSpec(std::uint64_t seed, unsigned width, unsigned channels)
{
    return makeSpec(makeSystemConfig(1, 4), seed,
                    [&](Simulation &sim, Rng &rng) {
        FmapDramLayout in(sim.vaultBase(), channels, 8, 2 * width, 0);
        FmapDramLayout out(in.end() + 4096, channels, 4, width, 0);
        in.upload(randomFmap(rng, channels, 8, 2 * width),
                  sim.system().dram());
        Programs progs;
        for (unsigned pe = 0; pe < 4; ++pe) {
            PoolJob job;
            job.in = &in;
            job.out = &out;
            job.rowBegin = pe;
            job.rowEnd = pe + 1;
            job.width = width;
            job.chunk = std::min(channels, 256u);
            progs.emplace_back(pe, genPool(job));
        }
        return progs;
    });
}

RunSpec
fcSliceSpec(std::uint64_t seed, unsigned rows, unsigned seg)
{
    return makeSpec(makeSystemConfig(1, 4), seed,
                    [&](Simulation &sim, Rng &rng) {
        DramStorage &dram = sim.system().dram();
        const Addr in_addr = sim.vaultBase();
        const Addr weights = in_addr + (1ull << 20);
        const Addr parts = in_addr + (1ull << 19);
        const std::uint64_t tile = 2ull * rows * seg + 256;
        writeValues(dram, in_addr, randomValues(rng, 4ull * seg, -8, 8));
        Programs progs;
        for (unsigned pe = 0; pe < 4; ++pe) {
            writeValues(dram, weights + pe * tile,
                        randomValues(rng, std::size_t{rows} * seg, -3, 3));
            FcPartialJob job;
            job.weightBase = weights + pe * tile;
            job.inputBase = in_addr + 2ull * seg * pe;
            job.outBase = parts + pe * (2ull * rows + 256);
            job.inputs = seg;
            job.segLen = seg;
            job.rowEnd = rows;
            job.outBlock = 64;
            progs.emplace_back(pe, genFcPartial(job));
        }
        return progs;
    });
}

PointResult
runSpecPoint(PointCtx &ctx, const RunSpec &spec)
{
    // buildSimulation()'s steps, one phase each.
    ctx.build(spec.config);
    ctx.stage([&](Simulation &sim) {
        for (const RunSpec::DramPoke &p : spec.pokes)
            sim.pokeDram(p.addr, p.values);
    });
    ctx.program([&](Simulation &sim) {
        for (const RunSpec::RegSet &r : spec.regs)
            sim.setReg(r.pe, r.reg, r.value);
        for (const RunSpec::Program &p : spec.programs)
            sim.loadProgram(p.pe, p.source);
    });
    ctx.run();
    return ctx.collect(0);
}

double
usPerSpecParse(const std::vector<std::string> &lines)
{
    constexpr unsigned kRounds = 5;
    std::uint64_t acc = 0;
    const auto t0 = Clock::now();
    for (unsigned r = 0; r < kRounds; ++r) {
        for (const std::string &line : lines) {
            const Json req = Json::parse(line);
            acc ^= RunSpec::fromJson(req.at("run")).fingerprint();
        }
    }
    const double s = secondsBetween(t0, Clock::now());
    g_parseSink = g_parseSink ^ acc;  // keeps the work observable
    return s * 1e6 / static_cast<double>(kRounds * lines.size());
}

RunSpec
asmSpec(std::uint64_t seed, const std::string &source,
        const std::vector<std::pair<Addr, unsigned>> &inputs)
{
    RunSpec spec;
    spec.config = makeSystemConfig(1, 1);
    Rng rng(seed);
    for (const auto &[addr, count] : inputs)
        spec.pokes.push_back({addr, randomValues(rng, count, -50, 50)});
    spec.programs.push_back({0, source});
    return spec;
}

} // namespace perfbench
