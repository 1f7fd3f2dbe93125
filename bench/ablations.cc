/**
 * @file
 * Ablations of the microarchitectural choices the paper makes but does
 * not sweep (DESIGN.md "key design choices"):
 *
 *  1. Exposed vector latency vs. hardware interlocks: the paper keeps
 *     vector latency visible to software and notes the ARC *could*
 *     cover the vector pipeline at extra cost (Sec. III-B). We run the
 *     same BP tile both ways.
 *  2. ARC capacity (the paper's twenty entries vs. smaller/larger).
 *  3. Software-pipelining depth (the paper's code prefetches four
 *     iterations ahead, Sec. IV-A).
 *  4. Load-store queue depth (the paper's 64 outstanding accesses).
 *  5. Vault transaction queue depth (Table III's 32).
 */

#include <cstdio>
#include <functional>
#include <vector>

#include "common.hh"
#include "kernels/bp_kernel.hh"
#include "kernels/layout.hh"
#include "system/simulation.hh"

using namespace vip;

namespace {

/** One vault, 4 PEs, one full BP tile phase under a PE config tweak. */
Cycles
bpPhase(const std::function<void(SystemConfig &)> &tweak,
        unsigned prefetch_depth = 4)
{
    SystemConfig cfg = benchConfig(1, 4);
    tweak(cfg);
    VipSystem sys(cfg);
    MrfDramLayout layout(sys.vaultBase(0), 60, 34, 16);
    const Addr flags = layout.end() + 64;
    BpVariant variant;
    variant.prefetchDepth = prefetch_depth;
    for (unsigned pe = 0; pe < 4; ++pe) {
        const auto jobs = bpTileJobs(60, 34, pe, 4);
        sys.pe(pe).loadProgram(genBpIterations(layout, variant, jobs, 1,
                                               flags, pe, 4));
    }
    return sys.run();
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseBenchOptions(argc, argv);

    // Every ablation point is an independent one-vault simulation:
    // sweep them all in parallel, as the other benches do.
    std::vector<std::function<Cycles()>> points;
    points.push_back([] { return bpPhase([](SystemConfig &) {}); });
    points.push_back([] {
        return bpPhase(
            [](SystemConfig &c) { c.pe.arcCoversVector = true; });
    });
    const std::vector<unsigned> arc_entries = {4, 8, 20, 40};
    for (const unsigned entries : arc_entries) {
        points.push_back([entries] {
            return bpPhase(
                [&](SystemConfig &s) { s.pe.arcEntries = entries; });
        });
    }
    const std::vector<unsigned> depths = {1, 2, 3, 4};
    for (const unsigned depth : depths) {
        points.push_back(
            [depth] { return bpPhase([](SystemConfig &) {}, depth); });
    }
    const std::vector<unsigned> lsqs = {8, 16, 32, 64};
    for (const unsigned lsq : lsqs) {
        points.push_back([lsq] {
            return bpPhase(
                [&](SystemConfig &s) { s.pe.lsqEntries = lsq; });
        });
    }
    const std::vector<unsigned> tqs = {4, 8, 16, 32};
    for (const unsigned tq : tqs) {
        points.push_back([tq] {
            return bpPhase(
                [&](SystemConfig &s) { s.mem.transQueueDepth = tq; });
        });
    }

    const std::vector<Cycles> cycles = runSweep(points, opts.jobs);
    std::size_t at = 0;

    std::printf("=== Ablations (BP-M tile phase, 60x34, L=16, one "
                "vault) ===\n");

    const Cycles base = cycles[at++];
    std::printf("\nbaseline (paper config): %llu cycles\n\n",
                static_cast<unsigned long long>(base));

    std::printf("--- 1. exposed latency vs ARC-covered vector pipe "
                "---\n");
    const Cycles covered = cycles[at++];
    std::printf("%-26s %10llu cycles  %+5.1f%%\n", "hardware interlock",
                static_cast<unsigned long long>(covered),
                100.0 * (static_cast<double>(covered) - base) / base);
    std::printf("(the paper's software-scheduled code pays ~nothing "
                "for exposed latency;\n the interlock would add ARC "
                "ports and power for no speedup on tuned kernels)\n");

    std::printf("\n--- 2. ARC capacity (paper: 20) ---\n");
    for (const unsigned entries : arc_entries) {
        const Cycles c = cycles[at++];
        std::printf("%3u entries: %10llu cycles  %+5.1f%%\n", entries,
                    static_cast<unsigned long long>(c),
                    100.0 * (static_cast<double>(c) - base) / base);
    }

    std::printf("\n--- 3. software-pipeline depth (paper: 4) ---\n");
    for (const unsigned depth : depths) {
        const Cycles c = cycles[at++];
        std::printf("depth %u: %10llu cycles  %+5.1f%%\n", depth,
                    static_cast<unsigned long long>(c),
                    100.0 * (static_cast<double>(c) - base) / base);
    }

    std::printf("\n--- 4. load-store queue depth (paper: 64) ---\n");
    for (const unsigned lsq : lsqs) {
        const Cycles c = cycles[at++];
        std::printf("%3u entries: %10llu cycles  %+5.1f%%\n", lsq,
                    static_cast<unsigned long long>(c),
                    100.0 * (static_cast<double>(c) - base) / base);
    }

    std::printf("\n--- 5. transaction queue depth (paper: 32) ---\n");
    for (const unsigned tq : tqs) {
        const Cycles c = cycles[at++];
        std::printf("%3u entries: %10llu cycles  %+5.1f%%\n", tq,
                    static_cast<unsigned long long>(c),
                    100.0 * (static_cast<double>(c) - base) / base);
    }
    return 0;
}
