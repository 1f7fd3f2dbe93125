/**
 * @file
 * Shared measurement harness for the table/figure benches.
 *
 * Follows the paper's methodology (Sec. V-A): cycle-accurate
 * simulation of one independent tile (a slice of work sharing no PEs,
 * DRAM, or network with its peers), scaled deterministically to the
 * full machine. Every function returns raw observations (cycles, ops,
 * bytes); the benches own the scaling arithmetic and print it.
 */

#ifndef VIP_BENCH_COMMON_HH
#define VIP_BENCH_COMMON_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/sweep.hh"
#include "sim/types.hh"
#include "workloads/nn.hh"

namespace vip {

/** Raw observations from one simulated slice. */
struct SliceResult
{
    Cycles cycles = 0;          ///< simulated duration
    std::uint64_t vectorOps = 0; ///< 16-bit vector lane operations
    std::uint64_t dramBytes = 0; ///< DRAM bytes moved (both directions)
    std::uint64_t workItems = 0; ///< updates / MACs / elements simulated

    double ms() const { return cyclesToMs(cycles); }

    double
    gops() const
    {
        const double s = static_cast<double>(cycles) * kSecondsPerCycle;
        return s > 0 ? static_cast<double>(vectorOps) / s / 1e9 : 0;
    }

    double
    bandwidthGBs() const
    {
        const double s = static_cast<double>(cycles) * kSecondsPerCycle;
        return s > 0 ? static_cast<double>(dramBytes) / s / 1e9 : 0;
    }

    double
    opsPerByte() const
    {
        return dramBytes ? static_cast<double>(vectorOps) /
                               static_cast<double>(dramBytes)
                         : 0;
    }
};

/**
 * Command-line options shared by every sweep bench.
 *
 * Each bench accepts an optional positional fidelity fraction FRAC in
 * (0, 1] (where meaningful) plus `--jobs N`: the number of host
 * threads the sweep engine may use. The default (0) is the host's
 * hardware concurrency; `--jobs 1` runs the sweep inline, with no
 * threads. Output is deterministic for any jobs value: every sweep
 * point simulates its own private VipSystem and results are collected
 * by submission index before anything is printed.
 */
struct BenchOptions
{
    unsigned jobs = 0;  ///< sweep threads; 0 = hardware concurrency
    double frac = 0;    ///< bench-specific fidelity fraction
};

/**
 * Parse `[FRAC] [--jobs N] [--no-fast-forward] [--no-fast-path]`
 * (FRAC only when @p default_frac > 0); exits 2 with a message on a
 * bad argument. `--no-fast-forward` and `--no-fast-path` also apply
 * globally: every system built from benchConfig() afterwards, and so
 * every run* helper below, uses those execution-strategy settings.
 * Results are identical either way; the flags exist to measure and
 * regression-test exactly that.
 */
BenchOptions parseBenchOptions(int argc, char **argv,
                               double default_frac = 0);

/** makeSystemConfig(@p vaults, @p pes_per_vault) under the execution
 *  strategy parseBenchOptions() read. */
struct SystemConfig benchConfig(unsigned vaults, unsigned pes_per_vault);

/** Warn on stderr about each of @p failed, then once in summary. */
void reportFailures(const std::vector<SweepFailure> &failed,
                    std::size_t points);

/**
 * Run every sweep point through a SweepEngine with @p jobs workers
 * (0 = hardware concurrency; never more workers than points) and
 * return results keyed by submission index. Each point must build,
 * run, and destroy its own system — which every run* helper below
 * does. A point that throws (bad config, watchdog deadlock) is
 * reported on stderr and its row left default-constructed; the rest
 * of the sweep completes.
 */
template <typename R>
std::vector<R>
runSweep(const std::vector<std::function<R()>> &points, unsigned jobs)
{
    const std::size_t want = jobs ? jobs : SweepEngine::hardwareJobs();
    SweepEngine engine(static_cast<unsigned>(
        std::clamp<std::size_t>(points.size(), 1, want)));
    std::vector<R> results;
    std::vector<SweepFailure> failed;
    for (auto &o : engine.run(points)) {
        results.push_back(std::move(o.result));
        if (!o.ok)
            failed.push_back(std::move(o.failure));
    }
    reportFailures(failed, points.size());
    return results;
}

/** Overrides for the Fig. 5 memory-parameter sweep. */
struct MemKnobs
{
    bool closedPage = false;
    int rankScale = 0;      ///< -1: 4x fewer banks, +1: 4x more
    int rowScale = 0;       ///< -1: 4x narrower rows, +1: 4x wider
    unsigned refreshScale = 1;  ///< 1 = 4x mode (default), 2, 4 = 1x
};

/**
 * One vault (4 PEs) executing a full BP-M tile phase: all four sweep
 * directions with barriers over a tile_w x tile_h tile with L labels —
 * 4 * tile_w * tile_h message updates (one 1/32nd slice of a full-HD
 * iteration when the tile is 60x34).
 */
SliceResult runBpTilePhase(unsigned tile_w, unsigned tile_h,
                           unsigned labels, unsigned iterations = 1,
                           const MemKnobs &knobs = {});

/**
 * Fig. 4 experiment: one vault sweeping a tile_w x tile_h tile in one
 * direction under the given architectural variant (reduction on/off,
 * scratchpad vs register file).
 */
SliceResult runBpSweepVariant(unsigned tile_w, unsigned tile_h,
                              unsigned labels, bool reduction,
                              bool register_file);

/**
 * One vault's share of a convolutional layer: a tile_w x rows output
 * region over a z-shard of the inputs with all out_channels filters,
 * cycling filter groups through the scratchpad; includes the shard
 * accumulation pass when shards > 1.
 *
 * @param row_fraction  simulate only this share of the vault's rows
 *                      (>= 1 row per PE); work scales linearly
 */
SliceResult runConvShare(const LayerDesc &layer, unsigned vaults_active,
                         double row_fraction = 1.0,
                         const MemKnobs &knobs = {});

/** One vault's share of a pooling layer. */
SliceResult runPoolShare(const LayerDesc &layer, unsigned vaults_active,
                         double row_fraction = 1.0,
                         const MemKnobs &knobs = {});

/**
 * A fully-connected layer on the full 32-vault, 128-PE machine
 * (partial pass on every PE + accumulation pass), as the paper
 * simulates FC layers end to end.
 *
 * @param row_fraction  simulate this share of the output rows
 */
SliceResult runFcLayer(unsigned inputs, unsigned outputs,
                       double row_fraction = 1.0,
                       const MemKnobs &knobs = {});

/**
 * Streaming copy bandwidth: 4 PEs of one vault moving @p bytes
 * through ld.sram/st.sram.
 */
SliceResult runStreamCopy(std::uint64_t bytes_per_pe,
                          const MemKnobs &knobs = {});

/**
 * One vault's slice of hierarchical BP's construct phase: 4 PEs pool
 * a strip of a fine_w x fine_h, L-label grid into its quarter grid.
 * workItems = coarse pixels produced.
 */
SliceResult runConstructPhase(unsigned fine_w, unsigned fine_h,
                              unsigned labels, unsigned coarse_rows);

/**
 * One vault's slice of the copy (message upsampling) phase.
 * workItems = fine pixels seeded.
 */
SliceResult runCopyPhase(unsigned fine_w, unsigned fine_h,
                         unsigned labels, unsigned fine_rows);

/** Apply Fig. 5 knobs to a memory configuration. */
void applyKnobs(struct MemConfig &cfg, const MemKnobs &knobs);

} // namespace vip

#endif // VIP_BENCH_COMMON_HH
