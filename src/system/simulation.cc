#include "system/simulation.hh"

#include <algorithm>
#include <chrono>

#include "isa/assembler.hh"
#include "sim/error.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

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
    for (unsigned pe = 0; pe < sys_.numPes(); ++pe) {
        sys_.pe(pe).fastPathGroup().visit(
            [&result](const std::string &path, std::uint64_t value,
                      const std::string &) {
                // Aggregate by counter name: the path is
                // "peN.fastpath.<name>"; keep just <name>.
                result.fastpath[path.substr(path.rfind('.') + 1)] += value;
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
    sys_.stats().visit([&result](const std::string &path,
                                 std::uint64_t value, const std::string &) {
        result.counters[path] = value;
    });
    return result;
}

Json
RunResult::toJson() const
{
    Json j = Json::object();
    j.set("cycles", static_cast<std::uint64_t>(cycles));
    j.set("haltedCleanly", haltedCleanly);
    // The fastpath counter map stays on the struct (vip-run and the
    // serve stats read it) but out of the JSON: it is a host-side
    // tuning observable that differs with the fast path on vs. off,
    // and keeping it here would break the bit-identical-RunResult
    // contract strategy_equivalence_test pins.
    j.set("memRequestPoolHighWater", memRequestPoolHighWater);
    Json allocs = Json::array();
    for (const std::uint64_t a : peRequestAllocations)
        allocs.push(a);
    j.set("peRequestAllocations", std::move(allocs));
    Json cj = Json::object();
    for (const auto &[path, value] : counters)
        cj.set(path, value);
    j.set("counters", std::move(cj));
    // Always empty; kept because pinned serve bytes and perfbench pins hash it.
    j.set("formulas", Json::object());
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

Simulation &
Simulation::pokeWords(Addr addr, const std::int16_t *values,
                      std::size_t count)
{
    // The bound Pe::issueDramTransfer applies to a program's transfers,
    // arranged so that neither 2 * count nor addr + 2 * count can wrap.
    const std::uint64_t capacity = sys_.config().mem.geom.capacity();
    if (count > capacity / 2 || addr > capacity - 2 * count) {
        throw ConfigError(detail::formatArgs(
            "pokes[].addr = 0x", std::hex, addr, std::dec,
            ": a poke of ", count, " words ends past the DRAM capacity (0x",
            std::hex, capacity, " bytes)"));
    }
    // One write: store<int16_t> copies native bytes too, so the staged
    // bytes are the same as writing the values one at a time.
    sys_.dram().write(addr, values, 2 * count);
    if (FaultInjector *f = sys_.faultInjector())
        f->onDramWrite(addr, 2 * count);
    return *this;
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
