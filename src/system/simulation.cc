#include "system/simulation.hh"

#include <algorithm>
#include <chrono>

#include "isa/assembler.hh"
#include "sim/error.hh"
#include "sim/json.hh"

namespace vip {

Simulation &
Simulation::loadProgram(unsigned pe, const std::string &source)
{
    AssemblyError err;
    auto prog = assemble(source, &err);
    if (!err.message.empty())
        throw AssemblyFailure(err.line, err.message);
    sys_.pe(pe).loadProgram(std::move(prog));
    return *this;
}

RunResult
Simulation::run(Cycles max_cycles, const CancelToken *cancel)
{
    RunResult result;
    const Cycles start_cycle = sys_.now();
    // Host-timing site: hostSeconds/simCyclesPerHostSecond measure the
    // simulator, feed no simulated state, and are excluded from
    // RunResult::toJson() — the one sanctioned use of a host clock.
    const auto start = std::chrono::steady_clock::now();  // vip-lint: allow(wall-clock)
    result.cycles = sys_.run(max_cycles, cancel);
    const auto end = std::chrono::steady_clock::now();  // vip-lint: allow(wall-clock)
    result.hostSeconds =
        std::chrono::duration<double>(end - start).count();
    if (result.hostSeconds > 0.0) {
        result.simCyclesPerHostSecond =
            static_cast<double>(result.cycles - start_cycle) /
            result.hostSeconds;
    }
    result.fastForwardedCycles = sys_.fastForwardStats().skippedCycles;
    result.fastPathEnabled = sys_.config().fastPath;
    for (unsigned pe = 0; pe < sys_.numPes(); ++pe) {
        sys_.pe(pe).fastPathGroup().visit({
            [&result](const std::string &path, std::uint64_t value,
                      const std::string &) {
                // Aggregate by counter name: the path is
                // "peN.fastpath.<name>"; keep just <name>.
                result.fastpath[path.substr(path.rfind('.') + 1)] += value;
            },
            nullptr,
        });
    }
    result.haltedCleanly = sys_.allIdle();
    result.peRequestAllocations.reserve(sys_.numPes());
    for (unsigned pe = 0; pe < sys_.numPes(); ++pe) {
        const MemRequestPool &pool = sys_.pe(pe).requestPool();
        result.memRequestPoolHighWater =
            std::max(result.memRequestPoolHighWater, pool.highWater());
        result.peRequestAllocations.push_back(pool.allocations());
    }
    if (const FaultInjector *f = sys_.faultInjector()) {
        result.faultInjectionEnabled = true;
        result.faults = f->stats();
        result.outstandingFlippedWords = f->outstandingFlippedWords();
    }
    sys_.stats().visit({
        [&result](const std::string &path, std::uint64_t value,
                  const std::string &) {
            result.counters[path] = value;
        },
        [&result](const std::string &path, double value,
                  const std::string &) {
            result.formulas[path] = value;
        },
    });
    return result;
}

Json
RunResult::toJson() const
{
    Json j = Json::object();
    j.set("cycles", static_cast<std::uint64_t>(cycles));
    j.set("haltedCleanly", haltedCleanly);
    // fastForwardedCycles and the fastpath counter map stay on the
    // struct (tools/logs read them) but out of the JSON: they are
    // host-side tuning observables — fast-forward's skip count differs
    // with fast-forward on vs. off, and so do the fastpath counters
    // with the fast path — and keeping either here would break the
    // bit-identical-RunResult contract strategy_equivalence_test
    // pins.
    j.set("memRequestPoolHighWater", memRequestPoolHighWater);
    Json allocs = Json::array();
    for (const std::uint64_t a : peRequestAllocations)
        allocs.push(a);
    j.set("peRequestAllocations", std::move(allocs));
    Json cj = Json::object();
    for (const auto &[path, value] : counters)
        cj.set(path, value);
    j.set("counters", std::move(cj));
    Json fj = Json::object();
    for (const auto &[path, value] : formulas)
        fj.set(path, value);
    j.set("formulas", std::move(fj));
    if (faultInjectionEnabled) {
        Json f = Json::object();
        f.set("dramBitFlips", faults.dramBitFlips);
        f.set("retentionErrors", faults.retentionErrors);
        f.set("eccCorrected", faults.eccCorrected);
        f.set("eccDetected", faults.eccDetected);
        f.set("eccSilent", faults.eccSilent);
        f.set("nocDropped", faults.nocDropped);
        f.set("nocCorrupted", faults.nocCorrupted);
        f.set("nocRetransmits", faults.nocRetransmits);
        f.set("spBitFlips", faults.spBitFlips);
        f.set("outstandingFlippedWords", outstandingFlippedWords);
        j.set("faults", std::move(f));
    }
    return j;
}

std::vector<std::int16_t>
Simulation::peekDram(Addr addr, std::size_t count) const
{
    std::vector<std::int16_t> values;
    values.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        values.push_back(sys_.dram().load<std::int16_t>(
            addr + 2 * static_cast<Addr>(i)));
    }
    return values;
}

} // namespace vip
