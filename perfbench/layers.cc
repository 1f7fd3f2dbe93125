/**
 * @file
 * Layer drivers: standalone calls into each module's public entry
 * points, timed from outside the module. Every driver performs a fixed,
 * repeatable number of operations in the access shape of the workload
 * it explains (DriverShape) and reports host nanoseconds per operation.
 */

#include <algorithm>

#include "bench.hh"
#include "isa/builder.hh"
#include "mem/hmc.hh"
#include "noc/torus.hh"
#include "pe/scratchpad.hh"

namespace perfbench {

using namespace vip;

namespace {

/** Keeps a computed value alive without the compiler folding it. */
volatile std::uint64_t g_sink = 0;

struct MemDriverResult
{
    double nsPerCol = 0;
    double nsPerNextEvent = 0;
};

/**
 * Drive an HmcStack of @p vaults vaults with kRequests transactions per
 * vault through enqueue/tick: sequential 256 B streams (row hits after
 * each activate) or 32 B accesses alternating between two rows of one
 * bank (a conflict on every access). Every kProbeEvery ticks, time a
 * burst of nextEventAt() calls on the loaded stack.
 */
MemDriverResult
driveVaults(unsigned vaults, bool conflict)
{
    constexpr unsigned kRequests = 4000;
    constexpr unsigned kProbeEvery = 64;
    constexpr unsigned kProbeCalls = 64;
    MemConfig cfg;
    cfg.geom.vaults = vaults;
    HmcStack hmc(cfg);
    const AddressMapper &map = hmc.mapper();
    std::uint64_t outstanding = 0;

    auto addrOf = [&](unsigned v, unsigned i) -> Addr {
        if (!conflict)
            return map.vaultBase(v) + 256ull * i;
        return map.encode({v, 0, i % 2 == 0 ? 1u : 2u, (i / 2) % 8, 0});
    };
    const unsigned bytes = conflict ? 32 : 256;

    double probe_s = 0;
    std::uint64_t probes = 0;
    Cycles now = 0;
    const auto t0 = Clock::now();
    auto tick = [&] {
        hmc.tick(now);
        if (now % kProbeEvery == 0) {
            const auto p0 = Clock::now();
            Cycles acc = 0;
            for (unsigned k = 0; k < kProbeCalls; ++k)
                acc += hmc.nextEventAt(now + k % 4);
            probe_s += secondsBetween(p0, Clock::now());
            probes += kProbeCalls;
            g_sink = g_sink + acc;
        }
        ++now;
    };
    for (unsigned i = 0; i < kRequests; ++i) {
        for (unsigned v = 0; v < vaults; ++v) {
            auto req = std::make_unique<MemRequest>();
            req->addr = addrOf(v, i);
            req->bytes = bytes;
            req->issuedAt = now;
            req->onComplete = [&outstanding](MemRequest &) { --outstanding; };
            ++outstanding;
            while (!hmc.vault(v).canAccept())
                tick();
            hmc.enqueue(std::move(req));
        }
        tick();
    }
    while (outstanding > 0)
        tick();
    const double total_s = secondsBetween(t0, Clock::now());

    std::uint64_t cols = 0;
    for (unsigned v = 0; v < vaults; ++v)
        cols += hmc.vault(v).stats().colCommands.value();
    MemDriverResult r;
    r.nsPerCol = (total_s - probe_s) * 1e9 / static_cast<double>(cols);
    r.nsPerNextEvent = probe_s * 1e9 / static_cast<double>(probes);
    return r;
}

/** ns per instruction of a single-PE machine running a tight loop. */
double
drivePe(bool vector, unsigned vl)
{
    SystemConfig cfg = makeSystemConfig(1, 1);
    VipSystem sys(cfg);
    AsmBuilder b;
    b.movImm(1, 0);
    b.movImm(2, vector ? 20000 : 100000);
    b.movImm(3, vl);
    b.setVl(3);
    b.movImm(10, 0);     // scratchpad operands
    b.movImm(11, 1024);
    b.movImm(12, 2048);
    const auto loop = b.newLabel();
    b.bind(loop);
    if (vector) {
        b.vv(VecOp::Add, 10, 11, 12);
        b.vv(VecOp::Mul, 12, 11, 10);
    }
    b.addImm(1, 1, 1);
    b.branch(BranchCond::Lt, 1, 2, loop);
    b.vdrain();
    b.halt();
    sys.pe(0).loadProgram(b.finish());
    const auto t0 = Clock::now();
    sys.run();
    const double s = secondsBetween(t0, Clock::now());
    const auto insts = sys.pe(0).stats().instructions.value();
    return s * 1e9 / static_cast<double>(insts);
}

/** ns per Scratchpad streamed-ready mark and per hazard query. */
std::pair<double, double>
driveScratchpad(unsigned bytes)
{
    constexpr unsigned kOps = 200000;
    Scratchpad sp;
    const unsigned span = Scratchpad::kBytes - bytes;
    auto t0 = Clock::now();
    for (unsigned i = 0; i < kOps; ++i)
        sp.markReadyStream((i * 72u) % span, bytes, i);
    const double mark_s = secondsBetween(t0, Clock::now());
    std::uint64_t hazards = 0;
    t0 = Clock::now();
    for (unsigned i = 0; i < kOps; ++i)
        hazards += sp.hazardousStreamRead((i * 40u) % span, bytes,
                                          kOps - 8 + i % 16);
    const double read_s = secondsBetween(t0, Clock::now());
    g_sink = g_sink + hazards;
    return {read_s * 1e9 / kOps, mark_s * 1e9 / kOps};
}

/** ns per packet through an 8x4 torus, uniform or all-to-one. */
double
driveNoc(bool all_to_one)
{
    constexpr unsigned kRounds = 400;
    TorusNoc noc(8, 4);
    const unsigned nodes = noc.numNodes();
    Rng rng(7);
    std::uint64_t delivered = 0, sent = 0;
    Cycles now = 0;
    const auto t0 = Clock::now();
    for (unsigned r = 0; r < kRounds; ++r) {
        for (unsigned n = 0; n < nodes; ++n) {
            if (all_to_one && n == 0)
                continue;
            Packet p;
            p.src = n;
            p.dst = all_to_one ? 0
                               : static_cast<unsigned>(rng.nextBelow(nodes));
            p.payloadBytes = 32;
            p.onArrive = [&delivered](Packet &) { ++delivered; };
            noc.send(std::move(p), now);
            ++sent;
        }
        for (unsigned t = 0; t < 8; ++t)
            noc.tick(now++);
    }
    while (delivered < sent)
        noc.tick(now++);
    const double s = secondsBetween(t0, Clock::now());
    return s * 1e9 / static_cast<double>(sent);
}

} // namespace

void
runLayerDrivers(const DriverShape &shape, Metrics &out)
{
    // Each figure is the median of kRepeats identical drives.
    constexpr int kRepeats = 5;
    std::map<std::string, std::vector<double>> ns;
    for (int r = 0; r < kRepeats; ++r) {
        const MemDriverResult stream = driveVaults(shape.vaults, false);
        const MemDriverResult conflict = driveVaults(shape.vaults, true);
        ns["mem.ns_per_col.stream"].push_back(stream.nsPerCol);
        ns["mem.ns_per_col.conflict"].push_back(conflict.nsPerCol);
        ns["mem.ns_per_next_event"].push_back(
            (stream.nsPerNextEvent + conflict.nsPerNextEvent) / 2);
        ns["pe.ns_per_instr.scalar"].push_back(
            drivePe(false, shape.vectorLength));
        ns["pe.ns_per_instr.vector"].push_back(
            drivePe(true, shape.vectorLength));
        const auto [read_ns, mark_ns] = driveScratchpad(shape.spadBytes);
        ns["pe.spad_ns_per_stream_read"].push_back(read_ns);
        ns["pe.spad_ns_per_mark_stream"].push_back(mark_ns);
        ns["noc.ns_per_packet.uniform"].push_back(driveNoc(false));
        ns["noc.ns_per_packet.all_to_one"].push_back(driveNoc(true));
    }
    for (const auto &[name, v] : ns)
        out[name] = {median(v), "ns"};
}

} // namespace perfbench
