/**
 * @file
 * The vip-serve daemon loop: simulation as a service.
 *
 * A VipServer reads JSON-lines requests from a stream (stdin in
 * tests and piped use, a unix-socket connection in daemon mode —
 * tools/vip-serve.cc owns the socket), executes them on a pool of
 * warm worker threads, and writes exactly one JSON line back per
 * request line, in request order.
 *
 * ## Protocol (one JSON object per line)
 *
 * Run request — the object under "run" is a RunSpec
 * (system/runspec.hh):
 *
 *   {"run": {"config": {...}, "programs": [...], "maxCycles": N}}
 *   -> {"key":"<16 hex>","result":{...}}
 *
 * The "result" value is RunResult::toJson(): deterministic, no host
 * wall-clock fields — so two identical requests produce byte-identical
 * response lines, and a cache hit emits the stored bytes verbatim.
 * Whether a request hit the cache is observable only through the
 * stats command, never through the response body.
 *
 * A run may carry "budgetMs": a host wall-clock budget. A run that
 * exceeds it fails with {"error":{"kind":"timeout",...}} and the
 * daemon keeps serving; the budget is excluded from the cache key
 * (it bounds host execution, never results).
 *
 * Control requests:
 *
 *   {"cmd": "stats"}    -> {"serve": {"cacheEntries": ..., ...}}
 *   {"cmd": "cancel"}   -> {"cancelled": N, "ok": true} — trips the
 *                          CancelToken of every run in flight; each
 *                          answers {"error":{"kind":"cancelled"}} on
 *                          its own request slot
 *   {"cmd": "shutdown"} -> {"ok": true}, then the loop returns
 *
 * Failures — a malformed line, an oversized line, an unknown key, a
 * config the validator rejects, an assembly error, a deadlocked or
 * timed-out run — come back as a structured response on the same
 * line slot and the loop keeps serving (the SimError hierarchy is
 * the contract: nothing a request can say kills the daemon):
 *
 *   {"error": {"kind": "config", "message": "...", "detail": "..."}}
 *
 * When more runs are in flight than the admission bound
 * (maxQueuedRuns), new run requests are shed immediately with
 * {"error":{"kind":"overloaded",...}} instead of queueing without
 * bound — a loaded daemon stays responsive and its memory bounded.
 *
 * ## Caching
 *
 * Results are content-addressed: the key is
 * RunSpec::fingerprint() — the repo's FNV-1a hash primitive (the
 * same scheme DramStorage::fingerprint uses per page) over the
 * spec's canonical JSON. The simulator is deterministic, so equal
 * keys mean equal results, and a bounded LRU cache of serialized
 * responses makes repeated sweep points free. Error responses are
 * never cached. Hit/miss/eviction counters live in a "serve"
 * StatGroup reported by the stats command.
 *
 * ## Journaling & recovery
 *
 * With a journalPath the server write-ahead-journals every request
 * line before dispatch and every response after emission
 * (serve/journal.hh). On construction it preloads completed run
 * responses into the cache, so a daemon restarted after a crash
 * re-answers completed campaign points byte-identically from cache
 * and re-runs only the interrupted tail; `vip-run --resume` finishes
 * the same journal offline.
 *
 * ## Concurrency
 *
 * Requests dispatch onto a SweepEngine (one warm Simulation per job,
 * the sweep determinism contract); responses are reordered back into
 * request order by a bounded per-connection window, so a stream of N
 * requests pipelines across the pool while the client still sees
 * responses 1..N in order. With jobs > 1 a per-connection writer
 * thread emits each window head as soon as it completes, so a
 * closed-loop client — one that waits for each response before it
 * sends the next request — is answered while the reading thread is
 * blocked on that next line. With jobs == 1 everything runs inline on
 * the caller's thread — byte-for-byte deterministic, which is what
 * the tests pin. serve() may be called concurrently from several
 * transport threads (one per socket connection): the window is local
 * to each call, and all shared state — cache, counters, journal, the
 * in-flight run registry — is mutex-guarded. A run that exhausts host
 * memory (std::bad_alloc) is answered once with a "transient" error.
 */

#ifndef VIP_SERVE_SERVE_HH
#define VIP_SERVE_SERVE_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <istream>
#include <list>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "serve/journal.hh"
#include "sim/cancel.hh"
#include "sim/mutex.hh"
#include "sim/stats.hh"
#include "sim/sweep.hh"
#include "system/runspec.hh"

namespace vip {

/** The request reader copies a line out of its stream in pieces of at
 *  most this many bytes: one stream sentry and one bulk copy each. */
inline constexpr std::size_t kServeReadChunk = 8192;

struct ServeOptions
{
    /** Worker pool size; 1 (default) runs requests inline, 0 picks
     *  the host's hardware concurrency. */
    unsigned jobs = 1;

    /** Result-cache capacity in entries; 0 disables caching. */
    std::size_t cacheEntries = 256;

    /** Longest accepted request line; longer lines are consumed and
     *  answered with {"error":{"kind":"protocol"}} — a runaway client
     *  cannot balloon the daemon. */
    std::size_t maxLineBytes = 1u << 20;

    /** Admission bound: run requests arriving while this many runs
     *  are already in flight (across all connections) are shed with
     *  "overloaded". 0 = auto (4 * jobs + 4). */
    std::size_t maxQueuedRuns = 0;

    /** Write-ahead campaign journal path; empty disables journaling
     *  (see file comment, "Journaling & recovery"). */
    std::string journalPath;

    /**
     * Polled between request lines; returning true makes serve()
     * drain its window and return, as if the stream hit EOF. The
     * transport's drain-then-exit hook for SIGINT/SIGTERM.
     */
    std::function<bool()> stopRequested;
};

class VipServer
{
  public:
    explicit VipServer(const ServeOptions &opts = {});

    /**
     * Serve until @p in hits EOF, a shutdown request arrives, or
     * opts.stopRequested returns true. Emits exactly one
     * '\n'-terminated JSON response per request line, in request
     * order, flushing after each; returns early (after completing
     * in-flight work) when @p out fails — a vanished client must not
     * wedge a worker. May be called concurrently from multiple
     * transport threads; response ordering is per call (the stats
     * command's drain barrier likewise covers only the calling
     * connection's window).
     */
    void serve(std::istream &in, std::ostream &out);

    /** The "serve" statistics section. */
    const StatGroup &stats() const { return statGroup_; }

    /** True once a {"cmd":"shutdown"} request has been served; lets
     *  a multi-connection transport tell a client disconnect (serve
     *  again) from a daemon shutdown (stop accepting). */
    bool
    shutdownRequested() const
    {
        return shutdownRequested_.load(std::memory_order_acquire);
    }

    /** Trip the CancelToken of every run in flight (the programmatic
     *  form of {"cmd":"cancel"}); returns how many were signalled. */
    std::size_t cancelActiveRuns();

    /** Counter snapshots (locked: safe while connections are live). */
    std::uint64_t requests() const { return counter(requests_); }
    std::uint64_t cacheHits() const { return counter(cacheHits_); }
    std::uint64_t cacheMisses() const { return counter(cacheMisses_); }
    std::uint64_t
    cacheEvictions() const
    {
        return counter(cacheEvictions_);
    }
    std::uint64_t errors() const { return counter(errors_); }
    std::uint64_t timeouts() const { return counter(timeouts_); }
    std::uint64_t cancelledRuns() const { return counter(cancelledRuns_); }
    std::uint64_t shed() const { return counter(shed_); }

  private:
    /** One request's slot in a connection's in-order response window.
     *  `response`/`done`/`isError` are written by the completing
     *  worker (then read by the serving thread after observing `done`
     *  under mutex_); `seq`/`journaled` are written and read only by
     *  the serving thread. */
    struct Pending
    {
        std::string response;
        bool done = false;
        bool isError = false;
        std::uint64_t seq = 0;    ///< journal sequence number
        bool journaled = false;   ///< emit appends a journal response
    };
    using PendingPtr = std::shared_ptr<Pending>;

    /** Dispatch one parsed request line; returns the slot to emit. */
    PendingPtr dispatch(const std::string &line, bool *shutdown);

    /** Schedule a run request (cache lookup, admission check, or
     *  worker execution). */
    PendingPtr dispatchRun(const Json &spec_json);

    /** A slot completed immediately on the serving thread. */
    PendingPtr immediate(std::string response, bool is_error);

    /** Locked read of one counter (bumps happen under mutex_). */
    std::uint64_t
    counter(const Counter &c) const
    {
        LockGuard lock(mutex_);
        return c.value();
    }

    std::string statsResponse();

    /** LRU lookup; touches the entry. Null when absent. */
    const std::string *cacheFind(std::uint64_t key) VIP_REQUIRES(mutex_);
    void cacheInsert(std::uint64_t key, std::string response)
        VIP_REQUIRES(mutex_);

    /**
     * One serve() call's in-order response window. Local to the call
     * but shared with its writer thread, so every field is read and
     * written under mutex_ (not annotated: the analysis cannot name
     * the outer object's mutex from here).
     */
    struct Window
    {
        std::deque<PendingPtr> slots;
        bool hasWriter = false;  ///< a writer thread emits the heads
        bool closed = false;     ///< reading done: drain, then exit
        bool outFailed = false;  ///< the writer saw the stream fail
    };

    /** Read, dispatch and queue request lines until EOF, shutdown,
     *  a stop request, or a failed output stream. */
    void readRequests(std::istream &in, std::ostream &out,
                      Window &window);

    /** Write (and journal) one popped slot's response. */
    void emit(const PendingPtr &p, std::ostream &out);

    /** Block until the whole window has been emitted (by this thread
     *  inline, by the writer thread otherwise). */
    void drain(Window &window, std::ostream &out);

    /** Writer thread body: emit heads in order as they complete until
     *  the window is closed and empty. */
    void writeResponses(Window &window, std::ostream &out);

    /** Close @p window and join its writer thread. */
    void stopWriter(Window &window, std::thread &writer);

    ServeOptions opts_;
    std::atomic<bool> shutdownRequested_{false};

    /** Counters are registered in statGroup_; every bump and every
     *  statGroup_ visit happens under mutex_ (Counter is a plain
     *  uint64, and serve() runs on multiple connection threads). */
    StatGroup statGroup_;
    Counter requests_;
    Counter cacheHits_;
    Counter cacheMisses_;
    Counter cacheEvictions_;
    Counter errors_;
    Counter timeouts_;
    Counter cancelledRuns_;
    Counter shed_;

    /** Guards the cache, the counters, the in-flight run registry,
     *  and Pending completion handoff; cv_ signals slot completion.
     *  The journal has its own internal lock. Mutable: the const
     *  counter accessors lock it. */
    mutable Mutex mutex_;
    CondVar cv_;

    /** Server-lifetime µop fast-path counters summed over every run
     *  executed (cache hits skip simulation and add nothing), keyed
     *  by counter name; reported by the stats command's "fastpath"
     *  section. */
    std::map<std::string, std::uint64_t> fastpath_ VIP_GUARDED_BY(mutex_);

    /** LRU: most-recent at the front; map points into the list. */
    std::list<std::pair<std::uint64_t, std::string>> lru_
        VIP_GUARDED_BY(mutex_);
    std::unordered_map<
        std::uint64_t,
        std::list<std::pair<std::uint64_t, std::string>>::iterator>
        cache_ VIP_GUARDED_BY(mutex_);

    /** Runs in flight: admission control and the cancel command.
     *  Tokens are owned by their worker lambdas; the registry holds
     *  weak refs so a finished run needs no cross-thread teardown
     *  beyond its erase. std::map: the cancel command iterates. */
    std::uint64_t nextRunId_ VIP_GUARDED_BY(mutex_) = 1;
    std::map<std::uint64_t, std::weak_ptr<CancelToken>> active_
        VIP_GUARDED_BY(mutex_);
    std::size_t inFlight_ VIP_GUARDED_BY(mutex_) = 0;

    std::unique_ptr<CampaignJournal> journal_;

    /** Declared last on purpose: destroyed first, which joins the
     *  worker threads while every member they touch (mutex_, cache,
     *  journal_, the registry) is still alive. */
    SweepEngine engine_;
};

/** The {"error": {kind, message, detail}} body for @p e: the daemon
 *  writes it compact, vip-run's --json-stats writes it with str(0). */
Json errorResponse(const SimError &e);

} // namespace vip

#endif // VIP_SERVE_SERVE_HH
