/**
 * @file
 * google-benchmark micro-benchmarks of the simulator's own components:
 * assembler throughput, instruction encode/decode, DRAM vault access
 * patterns, torus traversal, PE simulation rate, and the reference
 * workload implementations. These track the cost of simulation itself,
 * not VIP's modeled performance.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <sstream>
#include <string_view>

#include "isa/assembler.hh"
#include "isa/builder.hh"
#include "kernels/bp_kernel.hh"
#include "kernels/layout.hh"
#include "mem/hmc.hh"
#include "noc/torus.hh"
#include "sim/rng.hh"
#include "system/simulation.hh"
#include "tools/cli.hh"
#include "workloads/mrf.hh"
#include "workloads/nn.hh"

namespace vip {
namespace {

/** Set by --no-fast-path (consumed by main() before google-benchmark
 *  sees argv); every simulated-machine bench below applies it, so the
 *  same binary measures the interpreter and the µop replay. */
bool g_fast_path = true;

void
BM_AssembleBpFragment(benchmark::State &state)
{
    const std::string src = R"(
loop:
    ld.sram[16] r11, r7, r61
    ld.sram[16] r12, r8, r61
    ld.sram[16] r13, r9, r61
    v.v.add[16] r11, r11, r12
    v.v.add[16] r11, r11, r13
    m.v.add.min[16] r10, r15, r11
    st.sram[16] r10, r14, r61
    add.imm r7, r7, 32
    blt r7, r20, loop
    halt
)";
    for (auto _ : state) {
        auto prog = assemble(src);
        benchmark::DoNotOptimize(prog);
    }
}
BENCHMARK(BM_AssembleBpFragment);

void
BM_EncodeDecodeRoundTrip(benchmark::State &state)
{
    AsmBuilder b;
    for (int i = 0; i < 100; ++i) {
        b.movImm(1, i * 1024);
        b.vv(VecOp::Add, 2, 3, 4);
        b.mv(VecOp::Mul, RedOp::Add, 5, 6, 7);
    }
    b.halt();
    const auto prog = b.finish();
    for (auto _ : state) {
        auto image = encodeProgram(prog);
        auto back = decodeProgram(image);
        benchmark::DoNotOptimize(back);
    }
}
BENCHMARK(BM_EncodeDecodeRoundTrip);

void
BM_VaultSequentialReads(benchmark::State &state)
{
    MemConfig cfg;
    cfg.geom.vaults = 1;
    for (auto _ : state) {
        state.PauseTiming();
        HmcStack hmc(cfg);
        unsigned outstanding = 0;
        state.ResumeTiming();
        Cycles now = 0;
        for (unsigned i = 0; i < 256; ++i) {
            auto req = std::make_unique<MemRequest>();
            req->addr = i * 32;
            req->bytes = 32;
            req->issuedAt = now;
            req->onComplete = [&](MemRequest &) { --outstanding; };
            ++outstanding;
            hmc.enqueue(std::move(req));
            // Drain a little so the queue never fills.
            for (int t = 0; t < 8; ++t)
                hmc.tick(now++);
        }
        while (outstanding > 0)
            hmc.tick(now++);
        benchmark::DoNotOptimize(now);
    }
}
BENCHMARK(BM_VaultSequentialReads);

void
BM_TorusAllToOne(benchmark::State &state)
{
    for (auto _ : state) {
        TorusNoc noc(8, 4);
        unsigned delivered = 0;
        Cycles now = 0;
        for (unsigned n = 1; n < 32; ++n) {
            Packet p;
            p.src = n;
            p.dst = 0;
            p.payloadBytes = 32;
            p.onArrive = [&](Packet &) { ++delivered; };
            noc.send(std::move(p), now);
        }
        while (delivered < 31)
            noc.tick(now++);
        benchmark::DoNotOptimize(now);
    }
}
BENCHMARK(BM_TorusAllToOne);

void
BM_PeScalarLoop(benchmark::State &state)
{
    // Simulation rate of a PE running a tight scalar loop — the
    // run-ahead fast path's headline bench (run with --no-fast-path
    // for the interpreter baseline; cycles are bit-identical).
    for (auto _ : state) {
        state.PauseTiming();
        SystemConfig cfg = makeSystemConfig(1, 1);
        cfg.fastPath = g_fast_path;
        VipSystem sys(cfg);
        AsmBuilder b;
        b.movImm(1, 0);
        b.movImm(2, 10000);
        const auto loop = b.newLabel();
        b.bind(loop);
        b.addImm(1, 1, 1);
        b.branch(BranchCond::Lt, 1, 2, loop);
        b.halt();
        sys.pe(0).loadProgram(b.finish());
        state.ResumeTiming();
        benchmark::DoNotOptimize(sys.run());
    }
    state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_PeScalarLoop);

void
BM_SimulatedBpSweep(benchmark::State &state)
{
    // End-to-end simulation cost of one generated BP sweep.
    for (auto _ : state) {
        state.PauseTiming();
        SystemConfig cfg = makeSystemConfig(1, 4);
        cfg.fastPath = g_fast_path;
        VipSystem sys(cfg);
        MrfDramLayout layout(sys.vaultBase(0), 32, 16, 8);
        for (unsigned pe = 0; pe < 4; ++pe) {
            sys.pe(pe).loadProgram(genBpSweep(
                layout, BpVariant{},
                BpSweepJob{SweepDir::Right, pe * 4,
                           (pe + 1) * 4}));
        }
        state.ResumeTiming();
        benchmark::DoNotOptimize(sys.run());
    }
}
BENCHMARK(BM_SimulatedBpSweep);

void
BM_FastForwardStreamCopy(benchmark::State &state)
{
    // Memory-bound tile: one PE copies DRAM through the scratchpad
    // with a fence per chunk, so it spends most cycles stalled on the
    // round trip. Arg(1) warps over those dead cycles, Arg(0) ticks
    // through them; the machines are cycle-identical, so the runtime
    // gap is the event-horizon fast-forward win. `skip_ratio` reports
    // the fraction of simulated cycles that were warped over.
    const bool ff = state.range(0) != 0;
    Cycles simulated = 0;
    Cycles skipped = 0;
    for (auto _ : state) {
        state.PauseTiming();
        SystemConfig cfg = makeSystemConfig(1, 1);
        cfg.fastForward = ff;
        cfg.fastPath = g_fast_path;
        VipSystem sys(cfg);
        AsmBuilder b;
        const Addr src = sys.vaultBase(0);
        const Addr dst = src + (8ull << 20);
        b.movImm(1, 0);
        b.movImm(2, 64);     // chunks to copy
        b.movImm(3, static_cast<std::int64_t>(src));
        b.movImm(4, static_cast<std::int64_t>(dst));
        b.movImm(5, 1024);   // chunk stride (bytes)
        b.movImm(6, 512);    // elements per chunk
        b.movImm(7, 0);      // scratchpad buffer
        const auto loop = b.newLabel();
        b.bind(loop);
        b.ldSram(7, 3, 6);
        b.stSram(7, 4, 6);
        b.memfence();        // serialize: expose the full DRAM latency
        b.scalar(ScalarOp::Add, 3, 3, 5);
        b.scalar(ScalarOp::Add, 4, 4, 5);
        b.addImm(1, 1, 1);
        b.branch(BranchCond::Lt, 1, 2, loop);
        b.halt();
        sys.pe(0).loadProgram(b.finish());
        state.ResumeTiming();
        simulated += sys.run();
        skipped += sys.fastForwardStats().skippedCycles;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(simulated));
    state.counters["skip_ratio"] =
        simulated ? static_cast<double>(skipped) /
                        static_cast<double>(simulated)
                  : 0.0;
}
BENCHMARK(BM_FastForwardStreamCopy)->Arg(0)->Arg(1);

void
BM_ReferenceBpIteration(benchmark::State &state)
{
    Rng rng(3);
    MrfProblem p;
    p.width = 64;
    p.height = 32;
    p.labels = 16;
    p.smoothCost = truncatedLinearSmoothness(16, 3, 12);
    p.dataCost.resize(64ull * 32 * 16);
    for (auto &c : p.dataCost)
        c = static_cast<Fx16>(rng.nextBelow(25));
    BpState bp(p);
    for (auto _ : state) {
        bp.iterate();
        benchmark::DoNotOptimize(bp.msgAt(FromLeft, 1, 1));
    }
    state.SetItemsProcessed(state.iterations() * 4 * 64 * 32);
}
BENCHMARK(BM_ReferenceBpIteration);

void
BM_ReferenceConvLayer(benchmark::State &state)
{
    Rng rng(4);
    FeatureMap in(16, 28, 28);
    for (auto &v : in.data)
        v = static_cast<Fx16>(rng.nextRange(-10, 10));
    const auto filt = randomWeights(32ull * 16 * 9, rng, 3);
    const auto bias = randomWeights(32, rng, 10);
    for (auto _ : state) {
        auto out = convLayer(in, filt, bias, 32, 3);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(state.iterations() * 32ull * 28 * 28 * 16 *
                            9);
}
BENCHMARK(BM_ReferenceConvLayer);

} // namespace
} // namespace vip

int
main(int argc, char **argv)
{
    // Peel off --no-fast-path before google-benchmark parses argv (it
    // rejects flags it doesn't know).
    const vip::cli::Row noFastPath = vip::cli::noFastPath(vip::g_fast_path);
    char **const end = std::remove_if(argv + 1, argv + argc, [&](char *arg) {
        return std::string_view(arg) == noFastPath.name;
    });
    if (end != argv + argc)
        noFastPath.store(nullptr);
    argc = static_cast<int>(end - argv);
    argv[argc] = nullptr;

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
