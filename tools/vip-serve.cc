/**
 * @file
 * vip-serve: the persistent simulation service.
 *
 * A long-lived process that answers RunSpec requests over a
 * JSON-lines protocol (see serve/serve.hh for the request/response
 * schema): each line in is one request, each line out is the
 * matching response, in order. Two transports:
 *
 *   vip-serve [--stdin]            serve the stdin/stdout pipe until
 *                                  EOF or a {"cmd":"shutdown"} line
 *                                  (the default; what tests and CI
 *                                  drive)
 *   vip-serve --socket PATH        listen on a unix domain socket,
 *                                  serving connections concurrently
 *                                  (one thread each; requests within
 *                                  a connection stay ordered); a
 *                                  shutdown request ends the whole
 *                                  daemon, a disconnect just ends
 *                                  that connection
 *
 * Options:
 *   --jobs N     worker pool size (default 1: inline, deterministic
 *                response order timing; 0 = hardware concurrency)
 *   --cache N    result-cache capacity in entries (default 256;
 *                0 disables caching)
 *   --journal PATH
 *                write-ahead campaign journal: requests are logged
 *                before dispatch, responses after emission, and a
 *                restarted daemon re-answers completed points from
 *                the journal (see serve/journal.hh)
 *   --max-queue N
 *                admission bound: shed run requests with
 *                {"error":{"kind":"overloaded"}} when this many runs
 *                are already in flight (default 4 * jobs + 4)
 *
 * Lifecycle: SIGINT/SIGTERM drain — in-flight runs complete, their
 * responses are written (and journaled), then the process exits. A
 * stale socket file from a crashed daemon is probed (a live daemon
 * answers connect) and removed only if dead; the socket file is
 * unlinked on every exit path. SIGPIPE is ignored so a client that
 * disconnects mid-response costs one failed write, not the daemon.
 *
 * The worker pool and the content-addressed result cache live in
 * VipServer; this file owns only transport, signals, and flag
 * parsing. Every failure a request can cause comes back as an
 * {"error": ...} response — the daemon survives malformed lines,
 * oversized lines, bad configs, assembly errors, and deadlocked or
 * timed-out runs alike.
 */

#include <csignal>
#include <cstdio>
#include <iostream>
#include <string>

#include "cli.hh"
#include "serve/serve.hh"

#ifdef __unix__
#include <cerrno>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <ext/stdio_filebuf.h>

#include <list>
#include <memory>
#include <set>
#include <streambuf>
#include <thread>
#include <vector>

#include "sim/mutex.hh"
#endif

using namespace vip;

namespace {

/** Last delivered stop signal (0 = none). Handlers only store; the
 *  transport loops poll. Installed without SA_RESTART so a signal
 *  interrupts accept()/read() with EINTR instead of being invisible
 *  until the next request. */
volatile std::sig_atomic_t g_signal = 0;

void
onStopSignal(int sig)
{
    g_signal = sig;
}

void
installSignalHandlers()
{
#ifdef __unix__
    struct sigaction sa = {};
    sa.sa_handler = onStopSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // no SA_RESTART: blocked syscalls must wake
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
    // A client that disconnects mid-response must cost one failed
    // write, not the process.
    std::signal(SIGPIPE, SIG_IGN);
#else
    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);
#endif
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: vip-serve [--stdin | --socket PATH] "
                 "[--cache N] [--journal PATH] [--max-queue N] "
                 "%s\n%s"
                 "  --stdin             serve stdin/stdout (default)\n"
                 "  --socket PATH       listen on a unix socket\n"
                 "  --cache N           result-cache entries "
                 "(default 256, 0 = off)\n"
                 "  --journal PATH      write-ahead campaign journal "
                 "(crash recovery)\n"
                 "  --max-queue N       shed run requests beyond N in "
                 "flight (default 4*jobs+4)\n",
                 cli::commonUsage(cli::kJobs).c_str(),
                 cli::commonHelp(cli::kJobs).c_str());
    return 2;
}

#ifdef __unix__

/** Open client connections, so a stopping daemon can wake their
 *  (possibly read-blocked) serving threads with shutdown(SHUT_RD). A
 *  thread deregisters its fd before the streams close it, so no entry
 *  here is ever a recycled descriptor. */
struct ClientRegistry
{
    Mutex mutex;
    std::set<int> fds VIP_GUARDED_BY(mutex);

    void
    add(int fd)
    {
        LockGuard lock(mutex);
        fds.insert(fd);
    }

    void
    remove(int fd)
    {
        LockGuard lock(mutex);
        fds.erase(fd);
    }

    /** Half-close every live connection for reading: their serve()
     *  loops see EOF, drain, and return. */
    void
    shutdownAll()
    {
        LockGuard lock(mutex);
        for (const int fd : fds)
            ::shutdown(fd, SHUT_RD);
    }
};

/**
 * The stale-socket check: a previous daemon that crashed leaves its
 * socket file behind, and bind() would fail forever. Probe with a
 * connect(): a live daemon accepts (so refuse to steal its socket);
 * anything else means the file is dead and safe to remove.
 */
bool
removeStaleSocket(const sockaddr_un &addr, const std::string &path)
{
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe < 0)
        return true;  // can't probe; let bind() report the truth
    const bool live =
        ::connect(probe, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) == 0;
    ::close(probe);
    if (live) {
        std::fprintf(stderr,
                     "vip-serve: %s is already being served (connect "
                     "succeeded); refusing to replace a live daemon\n",
                     path.c_str());
        return false;
    }
    ::unlink(path.c_str());  // dead remnant (or absent): clear it
    return true;
}

/**
 * Standard input for the --stdin transport: one bulk read() per
 * buffer. std::cin reads through stdio one byte at a time while synced
 * with it, and its unsynced filebuf retries a read() that a signal
 * interrupts, so a daemon idle on an open pipe would sleep through
 * SIGINT/SIGTERM. Here a stop signal pending before a read, or one
 * that interrupts it, ends the stream: serve() sees EOF, drains, and
 * returns. (One that lands between the check and the read() is seen
 * when the next bytes or EOF arrive.)
 */
class StdinBuf : public std::streambuf
{
  public:
    StdinBuf() : buf_(1 << 16) {}

  protected:
    int_type
    underflow() override
    {
        for (;;) {
            if (g_signal != 0)
                return traits_type::eof();
            const ssize_t n = ::read(STDIN_FILENO, buf_.data(), buf_.size());
            if (n > 0) {
                setg(buf_.data(), buf_.data(), buf_.data() + n);
                return traits_type::to_int_type(buf_[0]);
            }
            if (n == 0 || errno != EINTR)
                return traits_type::eof();
        }
    }

  private:
    std::vector<char> buf_;
};

/** Serve connections on a unix socket until a shutdown request or a
 *  stop signal; drains in-flight work before returning. */
int
serveSocket(VipServer &server, const std::string &path)
{
    const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listener < 0) {
        std::perror("vip-serve: socket");
        return 1;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        std::fprintf(stderr, "vip-serve: socket path too long: %s\n",
                     path.c_str());
        ::close(listener);
        return 1;
    }
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  path.c_str());
    if (!removeStaleSocket(addr, path)) {
        ::close(listener);
        return 1;
    }
    if (::bind(listener, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(listener, 8) < 0) {
        std::perror("vip-serve: bind/listen");
        ::close(listener);
        ::unlink(path.c_str());  // bind may have created the file
        return 1;
    }
    std::fprintf(stderr, "vip-serve: listening on %s\n", path.c_str());

    ClientRegistry clients;

    struct Conn
    {
        std::thread th;
        std::shared_ptr<std::atomic<bool>> done;
    };
    std::list<Conn> conns;

    const auto reap = [&conns](bool all) {
        for (auto it = conns.begin(); it != conns.end();) {
            if (all || it->done->load(std::memory_order_acquire)) {
                it->th.join();
                it = conns.erase(it);
            } else {
                ++it;
            }
        }
    };

    for (;;) {
        if (g_signal != 0 || server.shutdownRequested())
            break;
        const int client = ::accept(listener, nullptr, nullptr);
        if (client < 0) {
            if (errno == EINTR)
                continue;  // signal checked at the top of the loop
            if (server.shutdownRequested())
                break;  // a connection shut the listener down under us
            std::perror("vip-serve: accept");
            break;
        }
        reap(false);
        clients.add(client);
        auto done = std::make_shared<std::atomic<bool>>(false);
        conns.push_back(Conn{
            std::thread([&server, &clients, client, listener, done] {
                const std::uint64_t before = server.requests();
                {
                    __gnu_cxx::stdio_filebuf<char> inbuf(client,
                                                         std::ios::in);
                    __gnu_cxx::stdio_filebuf<char> outbuf(
                        ::dup(client), std::ios::out);
                    std::istream in(&inbuf);
                    std::ostream out(&outbuf);
                    server.serve(in, out);
                    clients.remove(client);  // streams close fd next
                }
                std::fprintf(
                    stderr,
                    "vip-serve: connection closed after %llu requests\n",
                    static_cast<unsigned long long>(server.requests() -
                                                    before));
                if (server.shutdownRequested()) {
                    // Wake the accept loop: nothing else will.
                    ::shutdown(listener, SHUT_RDWR);
                }
                done->store(true, std::memory_order_release);
            }),
            done});
    }

    // Drain-then-exit: wake every connection still blocked in a read,
    // let each serve() finish its in-flight responses, then leave no
    // trace of the socket.
    clients.shutdownAll();
    reap(true);
    ::close(listener);
    ::unlink(path.c_str());
    if (g_signal != 0) {
        std::fprintf(stderr,
                     "vip-serve: signal %d: drained in-flight work, "
                     "exiting\n",
                     static_cast<int>(g_signal));
    }
    return 0;
}
#endif

} // namespace

int
main(int argc, char **argv)
{
    cli::CommonOptions common;
    common.jobs = 1;  // deterministic by default; opt into parallelism
    std::string socketPath;
    ServeOptions opts;
    bool useStdin = true;

    for (int i = 1; i < argc; ++i) {
        if (cli::consumeCommon(argc, argv, i, cli::kJobs, common))
            continue;
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::exit(usage());
            }
            return argv[++i];
        };
        if (arg == "--stdin") {
            useStdin = true;
        } else if (arg == "--socket") {
            socketPath = next();
            useStdin = false;
        } else if (arg == "--cache") {
            opts.cacheEntries = static_cast<std::size_t>(
                cli::parseNum(argv[0], "--cache", next()));
        } else if (arg == "--journal") {
            opts.journalPath = next();
        } else if (arg == "--max-queue") {
            opts.maxQueuedRuns = static_cast<std::size_t>(
                cli::parseNum(argv[0], "--max-queue", next()));
        } else if (arg == "--help" || arg == "-h") {
            return usage();
        } else {
            return usage();
        }
    }

    installSignalHandlers();

    opts.jobs = common.jobs;
    // Drain-then-exit on SIGINT/SIGTERM: serve() polls this between
    // request lines and returns after finishing in-flight work.
    opts.stopRequested = [] { return g_signal != 0; };
    try {
        VipServer server(opts);
        if (useStdin) {
#ifdef __unix__
            StdinBuf stdinBuf;
            std::istream in(&stdinBuf);
            server.serve(in, std::cout);
#else
            server.serve(std::cin, std::cout);
#endif
            if (g_signal != 0) {
                std::fprintf(stderr,
                             "vip-serve: signal %d: drained in-flight "
                             "work, exiting\n",
                             static_cast<int>(g_signal));
            }
            return 0;
        }
#ifdef __unix__
        return serveSocket(server, socketPath);
#else
        std::fprintf(stderr,
                     "vip-serve: --socket requires a unix platform\n");
        return 1;
#endif
    } catch (const SimError &e) {
        // Startup failures (an unopenable journal) — requests never
        // get here; their errors are responses.
        std::fprintf(stderr, "vip-serve: %s\n", e.what());
        return 1;
    }
}
