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
 *   vip-run prog.s [options]
 *     --reg N=V            seed scalar register N (repeatable)
 *     --dram ADDR=V16      store a 16-bit value before running
 *                          (repeatable; ADDR/V accept 0x hex)
 *     --dump-dram A,N      print N int16 values at DRAM address A
 *     --dump-sp A,N        print N int16 scratchpad values
 *     --dump-regs          print the scalar register file
 *     --dump-spec          print the run as RunSpec JSON (a valid
 *                          vip-serve request body) and exit
 *     --stats              dump the statistics tree
 *     --json-stats FILE    write statistics as JSON ("-" = stdout):
 *                          a "host" section with wall-clock timing
 *                          plus the deterministic RunResult document
 *     --inject SPEC        run a fault-injection campaign (see
 *                          sim/fault.hh); adds a "faults" section
 *     --max-cycles N       simulation budget (default 100M)
 *     --timeout-ms N       wall-clock budget: a run still going after
 *                          N host milliseconds stops with a
 *                          structured "timeout" error (exit 1)
 *     --vaults N           machine size (default 1 vault; the torus
 *                          shape is derived with nocDimsFor)
 *     --no-fast-forward    tick every cycle instead of warping over
 *                          provably dead ones (same results, slower)
 *     --no-fast-path       interpret every instruction instead of
 *                          replaying decoded µops and fast blocks
 *                          (same results, slower)
 *     --strict             fail with a "program" error on vector
 *                          timing hazards
 *
 * Campaign recovery (no source file; pairs with vip-serve --journal):
 *
 *   vip-run --resume PATH    finish an interrupted campaign journal:
 *                            completed entries print their recorded
 *                            response verbatim, the unanswered tail
 *                            is executed (and journaled under its
 *                            original sequence numbers, so repeated
 *                            resumes are idempotent), and stdout is
 *                            the full in-order response stream —
 *                            byte-identical to an uninterrupted run
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

int
usage()
{
    std::fprintf(
        stderr,
        "usage: vip-run <prog.s> [--reg N=V] [--dram A=V] "
        "[--dump-dram A,N]\n"
        "       [--dump-sp A,N] [--dump-regs] [--dump-spec] [--stats]\n"
        "       [--max-cycles N] [--timeout-ms N] [--vaults N] "
        "[--strict] [--trace]\n"
        "       | vip-run --resume JOURNAL "
        "%s\n%s",
        cli::commonUsage(cli::kJsonStats | cli::kInject |
                         cli::kFastForward | cli::kFastPath)
            .c_str(),
        cli::commonHelp(cli::kJsonStats | cli::kInject |
                        cli::kFastForward | cli::kFastPath)
            .c_str());
    return 2;
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
    std::string sourcePath;
    cli::CommonOptions common;
    std::vector<std::pair<unsigned, std::uint64_t>> regs;
    std::vector<std::pair<Addr, std::int16_t>> pokes;
    std::vector<std::pair<Addr, unsigned>> dumpDram, dumpSp;
    bool dumpRegs = false, dumpSpec = false;
    bool wantStats = false, strict = false, trace = false;
    Cycles maxCycles = 100'000'000;
    std::uint64_t timeoutMs = 0;
    unsigned vaults = 1;
    std::string resumePath;
};

/** The flags as a RunSpec — the serializable half of the run. */
RunSpec
specFromOptions(const Options &opt, const std::string &source)
{
    RunSpec spec;
    spec.config = makeSystemConfig(opt.vaults, 1);
    spec.config.pe.strictHazards = opt.strict;
    spec.config.fastForward = opt.common.fastForward;
    spec.config.fastPath = opt.common.fastPath;
    if (!opt.common.injectSpec.empty())
        spec.config.faults = FaultPlan::parse(opt.common.injectSpec);
    spec.programs.push_back({0, source});
    for (const auto &[addr, val] : opt.pokes)
        spec.pokes.push_back({addr, {val}});
    for (const auto &[r, v] : opt.regs)
        spec.regs.push_back({0, r, v});
    spec.maxCycles = opt.maxCycles;
    spec.budgetMs = opt.timeoutMs;
    return spec;
}

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

    const RunSpec spec = specFromOptions(opt, ss.str());
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
        std::printf("dram[0x%llx]:", (unsigned long long)addr);
        for (const std::int16_t v : sim->peekDram(addr, count))
            std::printf(" %d", v);
        std::printf("\n");
    }
    if (opt.wantStats) {
        std::ostringstream os;
        sys.stats().dump(os);
        std::fputs(os.str().c_str(), stdout);
    }
    if (!opt.common.jsonStatsPath.empty()) {
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
        // the deterministic document: the aggregated µop-cache
        // counters (Pe::FastPathStats) plus the mode that produced
        // them.
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
        if (!emitJson(opt.common.jsonStatsPath, doc))
            return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    constexpr unsigned kFlags = cli::kJsonStats | cli::kInject |
                                cli::kFastForward | cli::kFastPath;
    Options opt;
    for (int i = 1; i < argc; ++i) {
        if (cli::consumeCommon(argc, argv, i, kFlags, opt.common))
            continue;
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::exit(usage());
            }
            return argv[++i];
        };
        auto num = [&](const std::string &text) {
            return cli::parseNum(argv[0], arg.c_str(), text.c_str());
        };
        if (arg == "--reg") {
            const std::string v = next();
            const auto eq = v.find('=');
            opt.regs.emplace_back(std::stoul(v.substr(0, eq)),
                                  num(v.substr(eq + 1)));
        } else if (arg == "--dram") {
            const std::string v = next();
            const auto eq = v.find('=');
            opt.pokes.emplace_back(num(v.substr(0, eq)),
                                   static_cast<std::int16_t>(std::stol(
                                       v.substr(eq + 1), nullptr, 0)));
        } else if (arg == "--dump-dram" || arg == "--dump-sp") {
            const std::string v = next();
            const auto comma = v.find(',');
            auto &list = arg == "--dump-dram" ? opt.dumpDram : opt.dumpSp;
            list.emplace_back(num(v.substr(0, comma)),
                              static_cast<unsigned>(
                                  num(v.substr(comma + 1))));
        } else if (arg == "--dump-regs") {
            opt.dumpRegs = true;
        } else if (arg == "--dump-spec") {
            opt.dumpSpec = true;
        } else if (arg == "--stats") {
            opt.wantStats = true;
        } else if (arg == "--strict") {
            opt.strict = true;
        } else if (arg == "--trace") {
            opt.trace = true;
        } else if (arg == "--max-cycles") {
            opt.maxCycles = num(next());
        } else if (arg == "--timeout-ms") {
            opt.timeoutMs = num(next());
        } else if (arg == "--resume") {
            opt.resumePath = next();
        } else if (arg == "--vaults") {
            opt.vaults = static_cast<unsigned>(num(next()));
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg[0] == '-') {
            return usage();
        } else {
            opt.sourcePath = arg;
        }
    }
    installSignalHandlers();

    if (!opt.resumePath.empty()) {
        try {
            return resumeCampaign(opt.resumePath);
        } catch (const SimError &e) {
            std::fprintf(stderr, "vip-run: error: %s\n", e.what());
            return 1;
        }
    }
    if (opt.sourcePath.empty())
        return usage();

    try {
        return run(opt);
    } catch (const AssemblyFailure &e) {
        // Re-anchor the assembler's line number on the source path.
        std::fprintf(stderr, "%s:%u: error: %s\n",
                     opt.sourcePath.c_str(), e.line(), e.what());
        if (!opt.common.jsonStatsPath.empty()) {
            const SimError anchored(e.kind(),
                                    opt.sourcePath + ":" +
                                        std::to_string(e.line()) + ": " +
                                        e.message(),
                                    e.detail());
            emitJson(opt.common.jsonStatsPath, errorResponse(anchored));
        }
        return 1;
    } catch (const SimError &e) {
        std::fprintf(stderr, "vip-run: error: %s\n", e.what());
        if (e.kind() == "cancelled" || e.kind() == "timeout") {
            // The structured form on stdout: a scripted caller learns
            // *why* the run stopped without scraping stderr.
            std::cout << errorResponse(e).str() << "\n" << std::flush;
        }
        if (!opt.common.jsonStatsPath.empty())
            emitJson(opt.common.jsonStatsPath, errorResponse(e));
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "vip-run: error: %s\n", e.what());
        if (!opt.common.jsonStatsPath.empty()) {
            emitJson(opt.common.jsonStatsPath,
                     errorResponse(SimError("exception", e.what())));
        }
        return 1;
    }
}
