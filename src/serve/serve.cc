#include "serve/serve.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "sim/json.hh"

namespace vip {

namespace {

std::string
hexKey(std::uint64_t key)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

/** Is the line all JSON whitespace (skip it without a response)? */
bool
isBlank(const std::string &line)
{
    for (const char c : line) {
        if (c != ' ' && c != '\t' && c != '\r')
            return false;
    }
    return true;
}

/**
 * Read one '\n'-terminated line of at most @p max_bytes into @p line.
 * A longer line is consumed to its newline (the stream stays in sync)
 * but reported via *overflow with only the first max_bytes kept — the
 * caller answers with a structured protocol error instead of letting
 * a runaway client balloon the daemon. Returns false only at EOF with
 * nothing read; an unterminated final line is still delivered.
 *
 * Copies in kServeReadChunk pieces through istream::getline, which
 * moves whole runs out of the stream buffer: one sentry per piece,
 * not per byte.
 */
bool
readLineBounded(std::istream &in, std::size_t max_bytes,
                std::string *line, bool *overflow)
{
    line->clear();
    *overflow = false;
    char piece[kServeReadChunk + 1];  // getline stores a trailing NUL
    bool any = false;
    for (;;) {
        in.getline(piece, sizeof(piece));
        const auto got = static_cast<std::size_t>(in.gcount());
        any = any || got != 0;
        // getline counts an extracted newline but does not store it.
        const bool newline = in.good();
        const std::size_t stored = newline ? got - 1 : got;
        const std::size_t room = max_bytes - line->size();
        if (stored > room)
            *overflow = true;
        line->append(piece, std::min(stored, room));
        // A full piece without a newline sets failbit alone: the line
        // goes on.
        if (newline || in.eof() || in.bad() || got != kServeReadChunk)
            return any;
        in.clear();
    }
}

} // namespace

Json
errorResponse(const SimError &e)
{
    Json err = Json::object();
    err.set("kind", e.kind());
    err.set("message", e.message());
    err.set("detail", e.detail());
    Json body = Json::object();
    body.set("error", std::move(err));
    return body;
}

VipServer::VipServer(const ServeOptions &opts)
    : opts_(opts), statGroup_("serve"),
      requests_(&statGroup_, "requests", "request lines received"),
      cacheHits_(&statGroup_, "cacheHits",
                 "run requests answered from the result cache"),
      cacheMisses_(&statGroup_, "cacheMisses",
                   "run requests that had to simulate"),
      cacheEvictions_(&statGroup_, "cacheEvictions",
                      "cached results evicted by the LRU bound"),
      errors_(&statGroup_, "errors",
              "requests answered with an error response"),
      timeouts_(&statGroup_, "timeouts",
                "runs stopped by their wall-clock budget"),
      cancelledRuns_(&statGroup_, "cancelledRuns",
                     "runs stopped by an explicit cancel"),
      shed_(&statGroup_, "shed",
            "run requests rejected by the admission bound"),
      engine_(opts.jobs)
{
    if (opts_.journalPath.empty())
        return;
    // Recovery: every completed run response in the journal becomes a
    // cache entry, so a re-sent campaign re-answers completed points
    // byte-identically from cache and re-runs only the interrupted
    // tail. Error and command responses carry no "key" and are
    // (correctly) not preloaded.
    for (const CampaignJournal::Entry &e :
         CampaignJournal::load(opts_.journalPath)) {
        if (!e.answered)
            continue;
        Json j;
        try {
            j = Json::parse(e.response);
        } catch (const JsonError &) {
            continue;
        }
        const Json *keyj = j.find("key");
        if (!keyj || !keyj->isString())
            continue;
        const std::uint64_t key =
            std::strtoull(keyj->asString().c_str(), nullptr, 16);
        LockGuard lock(mutex_);
        cacheInsert(key, e.response);
    }
    journal_ = std::make_unique<CampaignJournal>(opts_.journalPath);
}

const std::string *
VipServer::cacheFind(std::uint64_t key)
{
    const auto it = cache_.find(key);
    if (it == cache_.end())
        return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->second;
}

void
VipServer::cacheInsert(std::uint64_t key, std::string response)
{
    if (opts_.cacheEntries == 0)
        return;
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
        // A concurrent miss on the same key already inserted the
        // (identical) response; just refresh its position.
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    while (cache_.size() >= opts_.cacheEntries) {
        cache_.erase(lru_.back().first);
        lru_.pop_back();
        ++cacheEvictions_;
    }
    lru_.emplace_front(key, std::move(response));
    cache_.emplace(key, lru_.begin());
}

VipServer::PendingPtr
VipServer::immediate(std::string response, bool is_error)
{
    auto p = std::make_shared<Pending>();
    p->response = std::move(response);
    p->done = true;
    p->isError = is_error;
    return p;
}

std::size_t
VipServer::cancelActiveRuns()
{
    LockGuard lock(mutex_);
    std::size_t n = 0;
    for (const auto &[id, weak] : active_) {
        if (const auto token = weak.lock()) {
            token->cancel();
            ++n;
        }
    }
    return n;
}

VipServer::PendingPtr
VipServer::dispatchRun(const Json &spec_json)
{
    RunSpec spec = RunSpec::fromJson(spec_json);
    const std::uint64_t key = spec.fingerprint();

    auto token = std::make_shared<CancelToken>();
    std::uint64_t run_id = 0;
    {
        LockGuard lock(mutex_);
        if (const std::string *cached = cacheFind(key)) {
            ++cacheHits_;
            // Emit the stored bytes verbatim: a hit's response is
            // byte-identical to the miss that populated it. Whether
            // a request hit is observable through the stats command,
            // never through the response body.
            return immediate(*cached, false);
        }
        const std::size_t bound =
            opts_.maxQueuedRuns ? opts_.maxQueuedRuns
                                : 4 * std::size_t{engine_.jobs()} + 4;
        if (inFlight_ >= bound) {
            // Shed instead of queueing without bound: a loaded
            // daemon answers immediately and its memory stays
            // bounded. The client retries later.
            ++shed_;
            return immediate(
                errorResponse(SimError(
                    "overloaded",
                    "daemon at capacity (" +
                        std::to_string(inFlight_) +
                        " runs in flight, bound " +
                        std::to_string(bound) + "); retry later"))
                    .str(),
                true);
        }
        ++cacheMisses_;
        ++inFlight_;
        run_id = nextRunId_++;
        active_.emplace(run_id, token);
    }

    auto p = std::make_shared<Pending>();
    engine_.submit([this, spec = std::move(spec), key, p, token, run_id] {
        std::string response;
        bool is_error = false;
        bool timed_out = false;
        bool was_cancelled = false;
        std::map<std::string, std::uint64_t> fp;
        try {
            const RunResult result = runSpec(spec, token.get());
            Json body = Json::object();
            body.set("key", hexKey(key));
            body.set("result", result.toJson());
            response = body.str();
            fp = result.fastpath;
        } catch (const std::bad_alloc &e) {
            response = errorResponse(SimError("transient", e.what())).str();
            is_error = true;
        } catch (const SimError &e) {
            response = errorResponse(e).str();
            is_error = true;
            timed_out = e.kind() == "timeout";
            was_cancelled = e.kind() == "cancelled";
        } catch (const std::exception &e) {
            response = errorResponse(SimError("exception", e.what())).str();
            is_error = true;
        }
        LockGuard lock(mutex_);
        active_.erase(run_id);
        --inFlight_;
        if (timed_out)
            ++timeouts_;
        if (was_cancelled)
            ++cancelledRuns_;
        if (!is_error) {
            cacheInsert(key, response);
            for (const auto &[name, value] : fp)
                fastpath_[name] += value;
        }
        p->response = std::move(response);
        p->isError = is_error;
        p->done = true;
        cv_.notify_all();
    });
    return p;
}

std::string
VipServer::statsResponse()
{
    Json serve = Json::object();
    Json fp = Json::object();
    {
        // Counters are bumped under the lock by every connection and
        // worker; snapshot them the same way.
        LockGuard lock(mutex_);
        statGroup_.visit([&serve, this](const std::string &path,
                                        std::uint64_t value,
                                        const std::string &) {
            // Strip the "serve." prefix: the section name is the
            // response's top-level key.
            serve.set(path.substr(statGroup_.name().size() + 1), value);
        });
        serve.set("cacheEntries", cache_.size());
        serve.set("inFlight", inFlight_);
        for (const auto &[name, value] : fastpath_)
            fp.set(name, value);
    }
    serve.set("cacheCapacity", opts_.cacheEntries);
    serve.set("jobs", engine_.jobs());
    serve.set("fastpath", std::move(fp));
    Json body = Json::object();
    body.set("serve", std::move(serve));
    return body.str();
}

VipServer::PendingPtr
VipServer::dispatch(const std::string &line, bool *shutdown)
{
    try {
        const Json req = Json::parse(line);
        if (const Json *spec_json = req.find("run")) {
            if (req.size() != 1) {
                throw ConfigError(
                    "a run request must contain only the \"run\" key");
            }
            return dispatchRun(*spec_json);
        }
        if (const Json *cmd = req.find("cmd")) {
            if (req.size() != 1) {
                throw ConfigError(
                    "a command request must contain only the \"cmd\" "
                    "key");
            }
            const std::string &name = cmd->asString();
            if (name == "stats") {
                // Barrier: this connection's in-flight runs must land
                // in the counters (and the cache) before the report.
                return nullptr;  // handled by caller after drain
            }
            if (name == "cancel") {
                const std::size_t n = cancelActiveRuns();
                Json body = Json::object();
                body.set("cancelled",
                         static_cast<std::uint64_t>(n));
                body.set("ok", true);
                return immediate(body.str(), false);
            }
            if (name == "shutdown") {
                *shutdown = true;
                shutdownRequested_.store(true,
                                         std::memory_order_release);
                Json body = Json::object();
                body.set("ok", true);
                return immediate(body.str(), false);
            }
            throw ConfigError("unknown command \"" + name + "\"");
        }
        throw ConfigError(
            "request must be {\"run\": {...}} or {\"cmd\": \"...\"}");
    } catch (const SimError &e) {
        return immediate(errorResponse(e).str(), true);
    } catch (const std::exception &e) {
        return immediate(
            errorResponse(SimError("exception", e.what())).str(), true);
    }
}

void
VipServer::emit(const PendingPtr &p, std::ostream &out)
{
    out << p->response << '\n' << std::flush;
    // Journal the response after the client had its chance to see it;
    // a completed entry answers resumes byte-identically.
    if (p->journaled && journal_)
        journal_->appendResponse(p->seq, p->response);
}

void
VipServer::drain(Window &window, std::ostream &out)
{
    LockGuard lock(mutex_);
    if (window.hasWriter) {
        cv_.wait(lock, [&window] { return window.slots.empty(); });
        return;
    }
    while (!window.slots.empty()) {
        const PendingPtr head = window.slots.front();
        cv_.wait(lock, [&head] { return head->done; });
        window.slots.pop_front();
        if (head->isError)
            ++errors_;
        lock.unlock();
        emit(head, out);
        lock.lock();
    }
}

void
VipServer::writeResponses(Window &window, std::ostream &out)
{
    LockGuard lock(mutex_);
    for (;;) {
        cv_.wait(lock, [&window] {
            return (!window.slots.empty() && window.slots.front()->done) ||
                   (window.closed && window.slots.empty());
        });
        if (window.slots.empty())
            return;  // closed and drained
        const PendingPtr p = window.slots.front();
        window.slots.pop_front();
        if (p->isError)
            ++errors_;
        lock.unlock();
        // Keeps emitting after a failure (the writes are no-ops) so
        // in-flight work still drains and the window still empties.
        emit(p, out);
        const bool failed = !out;
        lock.lock();
        window.outFailed = window.outFailed || failed;
        cv_.notify_all();  // the reader may wait for room or a drain
    }
}

void
VipServer::stopWriter(Window &window, std::thread &writer)
{
    {
        LockGuard lock(mutex_);
        window.closed = true;
    }
    cv_.notify_all();
    writer.join();
}

void
VipServer::serve(std::istream &in, std::ostream &out)
{
    Window window;
    if (engine_.jobs() == 1) {
        // Inline engine: every run completes inside dispatch(), so this
        // thread emits each response before it reads the next line.
        readRequests(in, out, window);
        drain(window, out);
        return;
    }
    // Pool: runs complete while this thread blocks reading the next
    // line, so a writer thread emits the heads as they complete.
    window.hasWriter = true;
    std::thread writer([this, &window, &out] {
        writeResponses(window, out);
    });
    try {
        readRequests(in, out, window);
    } catch (...) {
        stopWriter(window, writer);
        throw;
    }
    stopWriter(window, writer);
}

void
VipServer::readRequests(std::istream &in, std::ostream &out,
                        Window &window)
{
    std::string line;
    bool shutdown = false;
    while (!shutdown) {
        if (opts_.stopRequested && opts_.stopRequested())
            break;  // transport asked for a drain-then-return
        bool overflow = false;
        if (!readLineBounded(in, opts_.maxLineBytes, &line, &overflow))
            break;
        if (!overflow && isBlank(line))
            continue;
        {
            LockGuard lock(mutex_);
            ++requests_;
        }
        std::uint64_t seq = 0;
        bool journaled = false;
        PendingPtr p;
        if (overflow) {
            // Oversized lines are answered but never journaled or
            // dispatched: the stored prefix is not the request.
            p = immediate(
                errorResponse(SimError(
                    "protocol",
                    "request line exceeds " +
                        std::to_string(opts_.maxLineBytes) + " bytes"))
                    .str(),
                true);
        } else {
            // Write-ahead: the request is journaled before anything
            // can run, so a crash can lose at most responses, never
            // the knowledge that a request was accepted.
            if (journal_) {
                seq = journal_->appendRequest(line);
                journaled = true;
            }
            p = dispatch(line, &shutdown);
            if (!p) {
                // Stats command: everything this connection has in
                // flight must complete and be counted first.
                drain(window, out);
                p = immediate(statsResponse(), false);
            }
        }
        p->seq = seq;
        p->journaled = journaled;
        if (window.hasWriter) {
            LockGuard lock(mutex_);
            window.slots.push_back(std::move(p));
            cv_.notify_all();
            if (window.outFailed)
                break;  // client vanished; finish in-flight work
            // Bound the pipeline: never more than two batches of work
            // queued ahead of the slowest outstanding request.
            const std::size_t bound = 2 * std::size_t{engine_.jobs()} + 1;
            cv_.wait(lock, [&window, bound] {
                return window.slots.size() < bound || window.outFailed;
            });
            continue;
        }
        // Inline: every slot completed inside dispatch(), so this
        // emits the whole window.
        {
            LockGuard lock(mutex_);
            window.slots.push_back(std::move(p));
        }
        drain(window, out);
        if (!out)
            break;  // client vanished; finish in-flight work and return
    }
}

} // namespace vip
