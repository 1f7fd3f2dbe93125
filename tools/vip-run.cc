/**
 * @file
 * Command-line VIP runner — a thin client of the RunSpec execution
 * path (system/runspec.hh). The flags assemble a RunSpec, the same
 * serializable description of a run that the vip-serve daemon accepts
 * over its JSON-lines protocol, and both front ends execute it
 * through buildSimulation(); what differs here is purely
 * presentation: the --dump-* flags inspect the machine afterwards
 * and --json-stats wraps the structured result in a document with a
 * host-timing section.
 *
 *   vip-run prog.s [options]     run one program on PE 0
 *   vip-run --resume JOURNAL     finish an interrupted vip-serve
 *                                --journal campaign (resumeCampaign)
 *
 * `vip-run --help` lists every flag; the table in main() is their one
 * description.
 *
 * On a recoverable failure (bad config, assembly error, deadlock) the
 * runner prints the error to stderr, writes {"error": {...}} to the
 * --json-stats target when one was given, and exits nonzero — it never
 * aborts for conditions the input can cause. SIGINT/SIGTERM trip the
 * run's CancelToken: the run stops at the next poll boundary and the
 * runner emits {"error":{"kind":"cancelled"}} on stdout (kind
 * "timeout" for an expired --timeout-ms) before exiting 1.
 *
 * Example — a dot product of two 8-element vectors staged at 0x1000
 * and 0x1100, result at 0x2000:
 *
 *   vip-run dot.s --dram 0x1000=3 ... --dump-dram 0x2000,1
 */

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hh"
#include "serve/journal.hh"
#include "serve/serve.hh"
#include "sim/cancel.hh"
#include "sim/error.hh"
#include "sim/fault.hh"
#include "sim/json.hh"
#include "system/runspec.hh"

using namespace vip;

namespace {

/** The run's stop signal. SIGINT/SIGTERM trip it (CancelToken::cancel
 *  is an async-signal-safe atomic store); the simulation loop polls
 *  it and throws CancelledError at the next boundary. */
CancelToken g_token;
volatile std::sig_atomic_t g_signal = 0;

void
onStopSignal(int sig)
{
    g_signal = sig;
    g_token.cancel();
}

void
installSignalHandlers()
{
    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);
}

/** Write @p doc, indented, to the --json-stats target ("-" = stdout). */
bool
emitJson(const std::string &path, const Json &doc)
{
    const std::string body = doc.str(0) + "\n";
    if (path == "-") {
        std::cout << body;
        return true;
    }
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "vip-run: cannot write %s\n", path.c_str());
        return false;
    }
    os << body;
    return true;
}

struct Options
{
    RunSpec spec;  ///< the flags' pokes, regs and budgets; run() adds the rest
    std::string sourcePath, resumePath;
    std::string jsonStatsPath;  ///< empty = no JSON dump; "-" = stdout
    std::string injectSpec;     ///< empty = no fault campaign
    std::vector<std::pair<Addr, unsigned>> dumpDram, dumpSp;
    bool dumpRegs = false, dumpSpec = false, wantStats = false;
    bool strict = false, trace = false, fastForward = true, fastPath = true;
    unsigned vaults = 1;
};

/**
 * Finish an interrupted campaign journal (vip-serve --journal): emit
 * completed responses verbatim, execute the unanswered tail through
 * the same VipServer code path the daemon uses, and journal the new
 * responses under their *original* sequence numbers — no duplicate
 * request entries, so resuming an already-complete journal just
 * replays it. stdout is the full in-order response stream,
 * byte-identical to what an uninterrupted daemon would have emitted
 * (the simulator is deterministic and the journal stores exact
 * response bytes).
 */
int
resumeCampaign(const std::string &path)
{
    const auto entries = CampaignJournal::load(path);
    ServeOptions sopts;
    sopts.jobs = 1;  // inline: deterministic, ordered
    sopts.stopRequested = [] { return g_signal != 0; };
    VipServer server(sopts);
    CampaignJournal journal(path);
    for (const CampaignJournal::Entry &e : entries) {
        if (g_signal != 0) {
            std::fprintf(stderr, "vip-run: signal %d: resume stopped\n",
                         static_cast<int>(g_signal));
            return 1;
        }
        if (e.answered) {
            std::cout << e.response << "\n";
            continue;
        }
        std::istringstream in(e.request + "\n");
        std::ostringstream out;
        server.serve(in, out);
        std::string resp = out.str();
        while (!resp.empty() && resp.back() == '\n')
            resp.pop_back();
        journal.appendResponse(e.seq, resp);
        std::cout << resp << "\n";
    }
    std::cout << std::flush;
    return 0;
}

int
run(const Options &opt)
{
    std::ifstream in(opt.sourcePath);
    if (!in) {
        std::fprintf(stderr, "vip-run: cannot open %s\n",
                     opt.sourcePath.c_str());
        return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();

    // The flags as a RunSpec: the serializable half of the run.
    RunSpec spec = opt.spec;
    spec.config = makeSystemConfig(opt.vaults, 1);
    spec.config.pe.strictHazards = opt.strict;
    spec.config.fastForward = opt.fastForward;
    spec.config.fastPath = opt.fastPath;
    if (!opt.injectSpec.empty())
        spec.config.faults = FaultPlan::parse(opt.injectSpec);
    spec.programs.push_back({0, ss.str()});
    if (opt.dumpSpec) {
        std::cout << spec.toJson().str(0) << "\n";
        return 0;
    }

    const auto sim = buildSimulation(spec);
    if (opt.trace) {
        sim->trace(0, [](Cycles at, std::size_t pc,
                         const Instruction &inst) {
            std::printf("%8llu  %4zu: %s\n",
                        static_cast<unsigned long long>(at), pc,
                        disassemble(inst).c_str());
        });
    }

    g_token.setBudgetMs(spec.budgetMs);
    const RunResult result = sim->run(spec.maxCycles, &g_token);
    std::printf("halted=%d cycles=%llu (%.3f us)\n",
                result.haltedCleanly,
                static_cast<unsigned long long>(result.cycles),
                static_cast<double>(result.cycles) * 0.8e-3);
    if (result.faultInjectionEnabled) {
        const FaultStats &f = result.faults;
        std::printf("faults: dram-flips=%llu retention=%llu "
                    "ecc-corrected=%llu ecc-detected=%llu "
                    "ecc-silent=%llu noc-dropped=%llu "
                    "noc-corrupted=%llu sp-flips=%llu\n",
                    (unsigned long long)f.dramBitFlips,
                    (unsigned long long)f.retentionErrors,
                    (unsigned long long)f.eccCorrected,
                    (unsigned long long)f.eccDetected,
                    (unsigned long long)f.eccSilent,
                    (unsigned long long)f.nocDropped,
                    (unsigned long long)f.nocCorrupted,
                    (unsigned long long)f.spBitFlips);
    }

    VipSystem &sys = sim->system();
    if (opt.dumpRegs) {
        for (unsigned r = 0; r < kNumScalarRegs; r += 4) {
            std::printf("r%-2u %16llx  r%-2u %16llx  r%-2u %16llx  "
                        "r%-2u %16llx\n",
                        r, (unsigned long long)sys.pe(0).reg(r), r + 1,
                        (unsigned long long)sys.pe(0).reg(r + 1), r + 2,
                        (unsigned long long)sys.pe(0).reg(r + 2), r + 3,
                        (unsigned long long)sys.pe(0).reg(r + 3));
        }
    }
    for (const auto &[addr, count] : opt.dumpSp) {
        std::printf("sp[0x%llx]:", (unsigned long long)addr);
        for (unsigned k = 0; k < count; ++k) {
            std::printf(" %d", sys.pe(0).scratchpad().load<std::int16_t>(
                                   static_cast<SpAddr>(addr + 2 * k)));
        }
        std::printf("\n");
    }
    for (const auto &[addr, count] : opt.dumpDram) {
        const std::vector<std::int16_t> values = sim->peekDram(addr, count);
        std::printf("dram[0x%llx]:", (unsigned long long)addr);
        for (const std::int16_t v : values)
            std::printf(" %d", v);
        std::printf("\n");
    }
    if (opt.wantStats) {
        std::ostringstream os;
        sys.stats().dump(os);
        std::fputs(os.str().c_str(), stdout);
    }
    if (!opt.jsonStatsPath.empty()) {
        // The deterministic RunResult document (counters and faults,
        // byte-identical run to run) plus a "host" section
        // carrying the wall-clock figures, which are not.
        Json doc = result.toJson();
        Json host = Json::object();
        host.set("hostSeconds", result.hostSeconds);
        host.set("simCyclesPerHostSecond",
                 result.simCyclesPerHostSecond);
        doc.set("host", std::move(host));
        // Like "host", the fastpath section is observability outside
        // the deterministic document: the µops run-ahead issued
        // (RunResult::fastpath) plus the mode that produced them.
        Json fp = Json::object();
        fp.set("enabled", spec.config.fastPath);
        for (const auto &[name, value] : result.fastpath)
            fp.set(name, value);
        doc.set("fastpath", std::move(fp));
        if (result.faultInjectionEnabled) {
            // Readers of the faults section also want the campaign.
            Json f = doc.at("faults");
            f.set("plan", spec.config.faults.toString());
            doc.set("faults", std::move(f));
        }
        if (!emitJson(opt.jsonStatsPath, doc))
            return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    // "LHS=RHS" or "LHS,RHS", both sides required.
    const auto split = [](const std::string &v, char sep) {
        const auto at = v.find(sep);
        if (at == std::string::npos)
            throw ConfigError("'" + v + "' has no '" + sep + "'");
        return std::make_pair(v.substr(0, at), v.substr(at + 1));
    };
    // "A,N": a start address and a count of 16-bit words.
    const auto range = [&](const char *v) {
        const auto [addr, count] = split(v, ',');
        const Addr at = cli::parseNum(addr);
        return std::make_pair(at, cli::parseNum<unsigned>(count));
    };
    const cli::Row source = cli::text("<prog.s>", nullptr,
                                      "assembly source to run",
                                      opt.sourcePath);
    cli::parse(
        argc, argv, "<prog.s> [options] | --resume JOURNAL",
        {{"--reg", "N=V", "seed scalar register N with V (repeatable)",
          [&](const char *v) {
              const auto [reg, value] = split(v, '=');
              const auto r = cli::parseNum<unsigned>(reg);
              opt.spec.regs.push_back({0, r, cli::parseNum(value)});
          }},
         {"--dram", "A=V", "store the 16-bit word V at DRAM address A "
                           "(repeatable)",
          [&](const char *v) {
              const auto [addr, value] = split(v, '=');
              const auto word = cli::parseNum<std::int64_t>(value);
              if (word < -32768 || word > 32767)
                  throw ConfigError(value +
                                    " does not fit in a 16-bit DRAM word");
              opt.spec.pokes.push_back(
                  {cli::parseNum(addr), {static_cast<std::int16_t>(word)}});
          }},
         {"--dump-dram", "A,N", "print N int16 values at DRAM address A",
          [&](const char *v) { opt.dumpDram.push_back(range(v)); }},
         {"--dump-sp", "A,N", "print N int16 scratchpad values at A",
          [&](const char *v) {
              // The DRAM range is checked against the machine after the
              // run; the scratchpad's size is fixed, so check it here.
              const auto [addr, count] = range(v);
              constexpr unsigned kSpBytes = Scratchpad::kBytes;
              if (count > kSpBytes / 2 || addr > kSpBytes - 2 * count) {
                  throw ConfigError(
                      std::to_string(count) + " words at " +
                      split(v, ',').first + " end past the " +
                      std::to_string(kSpBytes) + "-byte scratchpad");
              }
              opt.dumpSp.emplace_back(addr, count);
          }},
         cli::toggle("--dump-regs", "print the scalar register file",
                     opt.dumpRegs),
         cli::toggle("--dump-spec", "print the run as a vip-serve "
                                    "request (RunSpec JSON) and exit",
                     opt.dumpSpec),
         cli::toggle("--stats", "dump the statistics tree", opt.wantStats),
         cli::jsonStats(opt.jsonStatsPath),
         cli::inject(opt.injectSpec),
         cli::number("--max-cycles", "simulation budget (default 100M)",
                     opt.spec.maxCycles),
         cli::number("--timeout-ms", "stop with a \"timeout\" error after "
                                     "N host milliseconds",
                     opt.spec.budgetMs),
         cli::number("--vaults", "machine size (default 1 vault)",
                     opt.vaults),
         cli::noFastForward(opt.fastForward),
         cli::noFastPath(opt.fastPath),
         cli::toggle("--strict", "fail on vector timing hazards",
                     opt.strict),
         cli::toggle("--trace", "print each instruction as it issues",
                     opt.trace),
         cli::text("--resume", "JOURNAL",
                   "finish an interrupted vip-serve --journal campaign",
                   opt.resumePath)},
        &source);
    installSignalHandlers();

    if (!opt.resumePath.empty()) {
        try {
            return resumeCampaign(opt.resumePath);
        } catch (...) {
            std::fprintf(stderr, "vip-run: error: %s\n",
                         currentError().what());
            return 1;
        }
    }
    if (opt.sourcePath.empty())
        cli::fail(argv[0], "no program to run (see --help)");

    try {
        return run(opt);
    } catch (const AssemblyFailure &e) {
        // Re-anchor the assembler's line number on the source path.
        std::fprintf(stderr, "%s:%u: error: %s\n",
                     opt.sourcePath.c_str(), e.line(), e.what());
        if (!opt.jsonStatsPath.empty()) {
            const SimError anchored(e.kind(),
                                    opt.sourcePath + ":" +
                                        std::to_string(e.line()) + ": " +
                                        e.message(),
                                    e.detail());
            emitJson(opt.jsonStatsPath, errorResponse(anchored));
        }
        return 1;
    } catch (...) {
        const SimError e = currentError();
        std::fprintf(stderr, "vip-run: error: %s\n", e.what());
        if (e.kind() == "cancelled" || e.kind() == "timeout") {
            // The structured form on stdout: a scripted caller learns
            // *why* the run stopped without scraping stderr.
            std::cout << errorResponse(e).str() << "\n" << std::flush;
        }
        if (!opt.jsonStatsPath.empty())
            emitJson(opt.jsonStatsPath, errorResponse(e));
        return 1;
    }
}
