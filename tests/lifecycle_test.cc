/**
 * @file
 * Run-lifecycle hardening tests: cooperative cancellation, wall-clock
 * budgets, host-failure reporting, the write-ahead campaign journal,
 * and the protocol-abuse / overload behaviour of the serve loop. This
 * is the chaos suite: everything here is about a run (or a daemon)
 * being interrupted, starved, or fed garbage and the system degrading
 * into structured errors instead of hangs, crashes, or corrupt
 * output. Runs under the TSan sweep preset: the cancel and cancel-cmd
 * scenarios exercise real cross-thread token trips.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/journal.hh"
#include "serve/serve.hh"
#include "sim/cancel.hh"
#include "sim/error.hh"
#include "sim/json.hh"
#include "sim/sweep.hh"
#include "system/runspec.hh"

namespace vip {
namespace {

/// The dot product serve_test pins: a short, clean-halting run with a
/// nontrivial result.
const char *kDotProduct = R"(
    mov.imm r1, 8
    set.vl r1
    mov.imm r2, 1
    set.mr r2
    mov.imm r10, 0x1000
    mov.imm r11, 0x1100
    mov.imm r12, 0x2000
    mov.imm r20, 0
    mov.imm r21, 64
    mov.imm r22, 128
    ld.sram[16] r20, r10, r1
    ld.sram[16] r21, r11, r1
    m.v.mul.add[16] r22, r20, r21
    v.drain
    st.sram[16] r22, r12, r2
    memfence
    halt
)";

/// An infinite loop that keeps making progress: the watchdog never
/// fires (instructions retire every cycle) and the machine never
/// halts — the shape only a budget or a cancel can stop.
const char *kSpinForever = R"(
    mov.imm r1, 0
spin:
    add.imm r1, r1, 1
    beq r2, r2, spin
)";

RunSpec
dotSpec()
{
    RunSpec spec;
    spec.config = makeSystemConfig(2, 2);
    spec.programs.push_back({0, kDotProduct});
    spec.pokes.push_back({0x1000, {2, 3, 5, 7, 11, 13, 17, 19}});
    spec.pokes.push_back({0x1100, {1, 2, 3, 4, 5, 6, 7, 8}});
    spec.maxCycles = 200'000;
    return spec;
}

RunSpec
spinSpec()
{
    RunSpec spec;
    spec.config = makeSystemConfig(2, 2);
    spec.programs.push_back({0, kSpinForever});
    // Large enough that only the token can stop the run within the
    // test timeout; small enough to bound a failure mode.
    spec.maxCycles = 2'000'000'000;
    return spec;
}

std::string
runRequestLine(const RunSpec &spec)
{
    Json req = Json::object();
    req.set("run", spec.toJson());
    return req.str() + "\n";
}

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (;;) {
        const std::size_t nl = text.find('\n', start);
        if (nl == std::string::npos)
            break;
        out.push_back(text.substr(start, nl - start));
        start = nl + 1;
    }
    return out;
}

std::vector<std::string>
serveLines(VipServer &server, const std::string &requests)
{
    std::istringstream in(requests);
    std::ostringstream out;
    server.serve(in, out);
    return lines(out.str());
}

/// The "kind" of an {"error": ...} response line ("" when the line is
/// not an error).
std::string
errorKind(const std::string &line)
{
    const Json j = Json::parse(line);
    const Json *err = j.find("error");
    return err ? err->at("kind").asString() : std::string{};
}

std::string
tempPath(const std::string &name)
{
    const std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

// ---- CancelToken ----------------------------------------------------

TEST(CancelToken, CancelIsStickyAndThrowsCancelled)
{
    CancelToken tok;
    EXPECT_FALSE(tok.cancelled());
    EXPECT_FALSE(tok.shouldStop());
    EXPECT_NO_THROW(tok.check());
    tok.cancel();
    tok.cancel();  // idempotent
    EXPECT_TRUE(tok.cancelled());
    EXPECT_TRUE(tok.shouldStop());
    EXPECT_THROW(tok.check(), CancelledError);
}

TEST(CancelToken, BudgetArmsDisarmsAndExpires)
{
    CancelToken tok;
    EXPECT_FALSE(tok.hasDeadline());
    tok.setBudgetMs(1);
    EXPECT_TRUE(tok.hasDeadline());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(tok.expired());
    EXPECT_THROW(tok.check(), TimeoutError);
    tok.setBudgetMs(0);  // disarm
    EXPECT_FALSE(tok.hasDeadline());
    EXPECT_FALSE(tok.expired());
    EXPECT_NO_THROW(tok.check());
}

TEST(CancelToken, CancelWinsOverExpiredBudget)
{
    CancelToken tok;
    tok.setBudgetMs(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    tok.cancel();
    EXPECT_THROW(tok.check(), CancelledError);
}

// ---- Cancellation & budgets through the run path --------------------

TEST(Cancel, SerialRunStopsOnCancelledToken)
{
    CancelToken tok;
    tok.cancel();
    EXPECT_THROW(runSpec(spinSpec(), &tok), CancelledError);
}

TEST(Cancel, CancelFromAnotherThreadStopsTheRun)
{
    CancelToken tok;
    std::thread canceller([&tok] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        tok.cancel();
    });
    EXPECT_THROW(runSpec(spinSpec(), &tok), CancelledError);
    canceller.join();
}

TEST(Budget, SerialRunTimesOut)
{
    RunSpec spec = spinSpec();
    spec.budgetMs = 30;
    try {
        runSpec(spec);
        FAIL() << "the spin never halts; only the budget can stop it";
    } catch (const TimeoutError &e) {
        EXPECT_EQ(e.kind(), "timeout");
    }
}

TEST(Budget, RunWithinBudgetMatchesUnbudgetedRun)
{
    const RunSpec plain = dotSpec();
    RunSpec budgeted = dotSpec();
    budgeted.budgetMs = 60'000;
    EXPECT_EQ(runSpec(plain).toJson().str(),
              runSpec(budgeted).toJson().str());
}

TEST(Budget, ExcludedFromFingerprintButNotEquality)
{
    const RunSpec plain = dotSpec();
    RunSpec budgeted = dotSpec();
    budgeted.budgetMs = 500;
    EXPECT_EQ(plain.fingerprint(), budgeted.fingerprint());
    EXPECT_FALSE(plain == budgeted);
    // And the budget round-trips through the wire form.
    const RunSpec back =
        RunSpec::fromJson(Json::parse(budgeted.toJson().str()));
    EXPECT_TRUE(back == budgeted);
    // ...while the unbudgeted form omits the key entirely, keeping
    // pre-budget fingerprints unchanged.
    EXPECT_EQ(plain.toJson().find("budgetMs"), nullptr);
}

// ---- Serve: budgets, cancel command, admission, abuse ---------------

TEST(ServeLifecycle, TimeoutIsStructuredAndDaemonKeepsServing)
{
    RunSpec spin = spinSpec();
    spin.budgetMs = 50;
    VipServer server;
    const auto responses =
        serveLines(server, runRequestLine(spin) + runRequestLine(dotSpec()));
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(errorKind(responses[0]), "timeout");
    EXPECT_EQ(errorKind(responses[1]), "");
    EXPECT_NE(Json::parse(responses[1]).find("key"), nullptr);
    EXPECT_EQ(server.timeouts(), 1u);
    EXPECT_EQ(server.errors(), 1u);
}

TEST(ServeLifecycle, CachedResultAnswersAnyBudget)
{
    VipServer server;
    RunSpec budgeted = dotSpec();
    budgeted.budgetMs = 60'000;
    const auto responses = serveLines(
        server, runRequestLine(dotSpec()) + runRequestLine(budgeted));
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[0], responses[1]);
    EXPECT_EQ(server.cacheHits(), 1u);
    EXPECT_EQ(server.cacheMisses(), 1u);
}

TEST(ServeLifecycle, CancelCommandStopsInFlightRuns)
{
    ServeOptions opts;
    opts.jobs = 2;
    VipServer server(opts);

    RunSpec spin = spinSpec();
    spin.budgetMs = 60'000;  // backstop so a broken cancel still ends
    std::istringstream in(runRequestLine(spin));
    std::ostringstream out;
    std::thread conn([&server, &in, &out] { server.serve(in, out); });

    // Trip the in-flight run's token (the programmatic twin of the
    // {"cmd":"cancel"} request) as soon as it is registered.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (server.cancelActiveRuns() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    conn.join();

    const auto responses = lines(out.str());
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(errorKind(responses[0]), "cancelled");
    EXPECT_EQ(server.cancelledRuns(), 1u);
}

TEST(ServeLifecycle, CancelCommandWithNothingInFlight)
{
    VipServer server;
    const auto responses = serveLines(server, "{\"cmd\":\"cancel\"}\n");
    ASSERT_EQ(responses.size(), 1u);
    const Json j = Json::parse(responses[0]);
    EXPECT_EQ(j.at("cancelled").asU64(), 0u);
    EXPECT_TRUE(j.at("ok").asBool());
}

TEST(ServeLifecycle, OverloadedRunsAreShedStructurally)
{
    ServeOptions opts;
    opts.jobs = 2;
    opts.maxQueuedRuns = 1;
    VipServer server(opts);

    RunSpec spin = spinSpec();
    spin.budgetMs = 400;  // occupies the one admission slot, then times out
    const auto responses = serveLines(
        server, runRequestLine(spin) + runRequestLine(dotSpec()) +
                    runRequestLine(dotSpec()));
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(errorKind(responses[0]), "timeout");
    EXPECT_EQ(errorKind(responses[1]), "overloaded");
    EXPECT_EQ(errorKind(responses[2]), "overloaded");
    EXPECT_EQ(server.shed(), 2u);
}

TEST(ServeLifecycle, OversizedLineIsAnsweredAndServingContinues)
{
    ServeOptions opts;
    opts.maxLineBytes = 16384;  // the dot request itself is a few KiB
    VipServer server(opts);
    const std::string big(65536, 'x');
    const auto responses =
        serveLines(server, big + "\n" + runRequestLine(dotSpec()));
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(errorKind(responses[0]), "protocol");
    EXPECT_NE(Json::parse(responses[1]).find("key"), nullptr);
}

TEST(ServeLifecycle, TruncatedJsonAtEofGetsOneStructuredError)
{
    VipServer server;
    // No trailing newline: the unterminated final line must still be
    // served (and rejected structurally), not silently dropped.
    const auto responses = serveLines(server, "{\"run\": {\"maxCy");
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_NE(Json::parse(responses[0]).find("error"), nullptr);
    EXPECT_EQ(server.errors(), 1u);
}

TEST(ServeLifecycle, DeadOutputStreamEndsServeButNotTheServer)
{
    VipServer server;
    {
        std::istringstream in(runRequestLine(dotSpec()) +
                              runRequestLine(dotSpec()));
        std::ostringstream out;
        out.setstate(std::ios::badbit);  // client vanished
        server.serve(in, out);           // must return, not wedge
    }
    // The server survives a dead connection and serves the next one.
    const auto responses = serveLines(server, runRequestLine(dotSpec()));
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_NE(Json::parse(responses[0]).find("key"), nullptr);
}

TEST(ServeLifecycle, StopRequestedDrainsAndReturns)
{
    ServeOptions opts;
    std::atomic<bool> stop{false};
    opts.stopRequested = [&stop] {
        return stop.load(std::memory_order_relaxed);
    };
    VipServer server(opts);
    // First line served normally; then the transport asks to stop and
    // the second line is never read.
    std::istringstream in(runRequestLine(dotSpec()) +
                          runRequestLine(dotSpec()));
    std::ostringstream out;
    std::istringstream first(runRequestLine(dotSpec()));
    server.serve(first, out);
    stop.store(true, std::memory_order_relaxed);
    std::ostringstream out2;
    server.serve(in, out2);
    EXPECT_EQ(lines(out.str()).size(), 1u);
    EXPECT_TRUE(out2.str().empty());
}

// ---- Host failures --------------------------------------------------

TEST(HostFailure, BadAllocIsReportedOnceAsTransient)
{
    // Running out of host memory says nothing about the job's spec:
    // it is reported once, as "transient", and its siblings complete.
    SweepEngine engine(2);
    std::atomic<unsigned> calls{0};
    std::vector<int> done(3, 0);
    for (unsigned i = 0; i < 3; ++i) {
        engine.submit([&calls, &done, i] {
            if (i == 1) {
                ++calls;
                throw std::bad_alloc();
            }
            done[i] = 1;
        });
    }
    const auto failures = engine.waitCollect();
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].index, 1u);
    EXPECT_EQ(failures[0].kind, "transient");
    EXPECT_EQ(calls.load(), 1u);
    EXPECT_EQ(done, (std::vector<int>{1, 0, 1}));
}

// ---- Journal --------------------------------------------------------

TEST(Journal, RoundTripPairsRequestsWithResponses)
{
    const std::string path = tempPath("lifecycle_journal_rt.jsonl");
    std::uint64_t s1 = 0, s2 = 0;
    {
        CampaignJournal journal(path);
        s1 = journal.appendRequest("{\"cmd\":\"stats\"}");
        s2 = journal.appendRequest("{\"cmd\":\"shutdown\"}");
        journal.appendResponse(s1, "{\"serve\":{}}");
    }
    const auto entries = CampaignJournal::load(path);
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].seq, s1);
    EXPECT_TRUE(entries[0].answered);
    EXPECT_EQ(entries[0].response, "{\"serve\":{}}");
    EXPECT_EQ(entries[1].seq, s2);
    EXPECT_FALSE(entries[1].answered);
    EXPECT_EQ(entries[1].request, "{\"cmd\":\"shutdown\"}");

    // A reopened journal keeps numbering past what it recovered.
    CampaignJournal reopened(path);
    EXPECT_GT(reopened.appendRequest("{\"cmd\":\"stats\"}"), s2);
}

TEST(Journal, TornTailAndGarbageLinesAreSkipped)
{
    const std::string path = tempPath("lifecycle_journal_torn.jsonl");
    {
        CampaignJournal journal(path);
        const std::uint64_t s = journal.appendRequest("{\"cmd\":\"stats\"}");
        journal.appendResponse(s, "{\"serve\":{}}");
        journal.appendRequest("{\"cmd\":\"shutdown\"}");
    }
    {
        // Simulate the crash: a torn final line and stray garbage.
        std::ofstream out(path, std::ios::app);
        out << "not json at all\n{\"req\": 9, \"line";
    }
    const auto entries = CampaignJournal::load(path);
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_TRUE(entries[0].answered);
    EXPECT_FALSE(entries[1].answered);
    EXPECT_EQ(CampaignJournal::load(tempPath("lifecycle_missing.jsonl"))
                  .size(),
              0u);
}

/// The crash-recovery contract end to end: a daemon dies mid-campaign,
/// a restarted daemon re-answers completed points from the journal
/// (byte-identically, from cache) and re-runs only the tail.
TEST(Journal, RestartReplaysCompletedPointsByteIdentically)
{
    // Four distinct points: vary a poke so each has its own key.
    std::string campaign;
    std::vector<RunSpec> specs;
    for (std::int16_t i = 0; i < 4; ++i) {
        RunSpec spec = dotSpec();
        spec.pokes[0].values[0] = static_cast<std::int16_t>(20 + i);
        specs.push_back(spec);
        campaign += runRequestLine(spec);
    }

    // Golden: the uninterrupted campaign.
    VipServer goldenServer;
    const auto golden = serveLines(goldenServer, campaign);
    ASSERT_EQ(golden.size(), 4u);

    const std::string path = tempPath("lifecycle_journal_restart.jsonl");
    {
        // First daemon: serves two points, then "crashes" (destroyed
        // with two campaign lines never delivered).
        ServeOptions opts;
        opts.journalPath = path;
        VipServer first(opts);
        const auto served = serveLines(
            first, runRequestLine(specs[0]) + runRequestLine(specs[1]));
        ASSERT_EQ(served.size(), 2u);
        EXPECT_EQ(served[0], golden[0]);
        EXPECT_EQ(served[1], golden[1]);
    }
    {
        // Restarted daemon, same journal: the full campaign is
        // re-sent; completed points come from the recovered cache.
        ServeOptions opts;
        opts.journalPath = path;
        VipServer second(opts);
        EXPECT_EQ(serveLines(second, campaign), golden);
        EXPECT_EQ(second.cacheHits(), 2u);
        EXPECT_EQ(second.cacheMisses(), 2u);
    }
    // The journal now holds the whole campaign, completed: a third
    // daemon answers everything from cache.
    {
        ServeOptions opts;
        opts.journalPath = path;
        VipServer third(opts);
        EXPECT_EQ(serveLines(third, campaign), golden);
        EXPECT_EQ(third.cacheHits(), 4u);
        EXPECT_EQ(third.cacheMisses(), 0u);
    }
}

TEST(Journal, UnansweredTailIsVisibleForResume)
{
    const std::string path = tempPath("lifecycle_journal_tail.jsonl");
    const RunSpec spec = dotSpec();
    const std::string line =
        runRequestLine(spec).substr(0, runRequestLine(spec).size() - 1);
    std::uint64_t tail_seq = 0;
    {
        ServeOptions opts;
        opts.journalPath = path;
        VipServer server(opts);
        serveLines(server, runRequestLine(spec));
        // Simulate a crash after journaling a request but before the
        // run finished: append the request line only.
        CampaignJournal journal(path);
        tail_seq = journal.appendRequest(line);
    }
    auto entries = CampaignJournal::load(path);
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_TRUE(entries[0].answered);
    ASSERT_FALSE(entries[1].answered);
    EXPECT_EQ(entries[1].request, line);

    // Resume: run the tail and append its response under the original
    // sequence number (what vip-run --resume does); the journal then
    // reads back complete with no duplicate requests.
    VipServer resumer;
    std::istringstream in(entries[1].request + "\n");
    std::ostringstream out;
    resumer.serve(in, out);
    std::string resp = out.str();
    while (!resp.empty() && resp.back() == '\n')
        resp.pop_back();
    CampaignJournal(path).appendResponse(tail_seq, resp);

    entries = CampaignJournal::load(path);
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_TRUE(entries[1].answered);
    EXPECT_EQ(entries[1].response, entries[0].response);
}

} // namespace
} // namespace vip
