/**
 * @file
 * serve_mix: a closed-loop request campaign against a `vip-serve
 * --socket` child process.
 *
 * The population is a fixed set of small single-phase RunSpecs (BP
 * sweeps and a quarter-HD BP tile iteration, conv/pool strips, FC
 * slices, the examples/asm programs) whose data values come from the
 * seed. The request sequence is the population in a seeded order with
 * a fixed share of repeats of earlier requests, which the daemon's
 * result cache answers. C client connections each send their next
 * request only after reading the previous response.
 *
 * Every response is compared byte for byte with the response the same
 * spec gets from a direct in-process runSpec(); that direct pass over
 * the distinct specs is also the workload's serial pass.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.hh"
#include "sim/json.hh"
#include "sim/sweep.hh"

namespace perfbench {

using namespace vip;

namespace {

constexpr std::size_t kDistinct = 320;
constexpr std::size_t kRepeats = 80;  // 20% of requests repeat
constexpr unsigned kExtraSpawns = 5;  // daemon start-ups timed per run
constexpr std::size_t kShapes = 32;   // spec i has shape i % kShapes

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

struct Population
{
    std::vector<RunSpec> specs;
    std::vector<std::string> kinds;
    std::vector<std::string> lines;   ///< {"run": spec} request lines
    std::vector<std::size_t> order;   ///< request i asks for specs[order[i]]
    std::size_t paperSpec = 0;        ///< a quarter-HD tile iteration
};

Population
makePopulation(std::uint64_t seed, const std::string &root)
{
    const std::string dot = readFile(root + "/examples/asm/dot_product.s");
    const std::string bp = readFile(root + "/examples/asm/bp_update.s");
    Population pop;
    for (std::size_t i = 0; i < kDistinct; ++i) {
        const std::uint64_t s = dataSeed(seed, 1000 + i);
        switch (i % 8) {
          case 0:
            pop.specs.push_back(bpSweepSpec(s, 16, 8, 8));
            pop.kinds.push_back("bp_sweep");
            break;
          case 1:
            pop.specs.push_back(convSpec(s, 16, 32));
            pop.kinds.push_back("conv");
            break;
          case 2:
            pop.specs.push_back(poolSpec(s, 32, 64));
            pop.kinds.push_back("pool");
            break;
          case 3:
            pop.specs.push_back(fcSliceSpec(s, 64, 128));
            pop.kinds.push_back("fc");
            break;
          case 4:
            pop.specs.push_back(
                asmSpec(s, dot, {{0x1000, 8}, {0x1100, 8}}));
            pop.kinds.push_back("asm_dot");
            break;
          case 5:
            pop.specs.push_back(asmSpec(
                s, bp,
                {{0x1000, 8}, {0x1100, 8}, {0x1200, 8}, {0x1300, 8},
                 {0x2000, 64}}));
            pop.kinds.push_back("asm_bp");
            break;
          case 6:
            pop.specs.push_back(bpSweepSpec(s, 8, 8, 16));
            pop.kinds.push_back("bp_sweep");
            break;
          default:
            if (i % 32 == 7) {
                pop.paperSpec = i;
                pop.specs.push_back(bpTileSpec(s, 30, 17, 16));
                pop.kinds.push_back("bp_tile");
            } else {
                pop.specs.push_back(convSpec(s, 8, 64));
                pop.kinds.push_back("conv");
            }
            break;
        }
        Json req = Json::object();
        req.set("run", pop.specs.back().toJson());
        pop.lines.push_back(req.str());
    }
    Rng rng(jobSeed(7, seed));
    pop.order.resize(kDistinct);
    for (std::size_t i = 0; i < kDistinct; ++i)
        pop.order[i] = i;
    for (std::size_t i = kDistinct - 1; i > 0; --i)
        std::swap(pop.order[i], pop.order[rng.nextBelow(i + 1)]);
    // Repeats go at least 8 requests after an earlier request for the
    // same spec, so with few clients the original has usually been
    // answered (and cached) by then.
    for (std::size_t r = 0; r < kRepeats; ++r) {
        const std::size_t pos = 16 + rng.nextBelow(pop.order.size() - 15);
        const std::size_t target = pop.order[rng.nextBelow(pos - 8)];
        pop.order.insert(pop.order.begin() + static_cast<long>(pos), target);
    }
    return pop;
}

/** One client connection speaking JSON lines. */
class Conn
{
  public:
    explicit Conn(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0)
            throw std::runtime_error("socket: " +
                                     std::string(std::strerror(errno)));
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      path.c_str());
        if (::connect(fd_, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            const int err = errno;
            ::close(fd_);
            fd_ = -1;
            throw std::runtime_error("connect: " +
                                     std::string(std::strerror(err)));
        }
        // A stalled daemon fails the run instead of hanging it.
        timeval tv{60, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }
    ~Conn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    void
    send(const std::string &line)
    {
        std::string buf = line + '\n';
        std::size_t off = 0;
        while (off < buf.size()) {
            const ssize_t n = ::write(fd_, buf.data() + off, buf.size() - off);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw std::runtime_error("write to vip-serve failed");
            off += static_cast<std::size_t>(n);
        }
    }

    std::string
    readLine()
    {
        for (;;) {
            const auto nl = buf_.find('\n');
            if (nl != std::string::npos) {
                std::string line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return line;
            }
            char chunk[65536];
            const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw std::runtime_error("vip-serve closed the connection");
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

/** A vip-serve child on a unix socket; killed and reaped if still
 *  running when destroyed. */
class Daemon
{
  public:
    Daemon(const RunOptions &opts, const std::string &sock)
        : sock_(sock)
    {
        ::unlink(sock_.c_str());
        const std::string jobs = std::to_string(kDaemonJobs);
        // The cache holds every distinct spec, so repeats always hit.
        std::vector<std::string> args = {opts.serveBin, "--socket", sock_,
                                         "--jobs", jobs, "--cache",
                                         std::to_string(2 * kDistinct)};
        std::vector<char *> argv;
        for (auto &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        const pid_t parent = ::getpid();
        const auto t0 = Clock::now();
        pid_ = ::fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            // The daemon dies with the benchmark, however it ends.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (::getppid() != parent)
                ::_exit(127);
            const int null = ::open("/dev/null", O_WRONLY);
            ::dup2(null, 1);
            ::dup2(null, 2);
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        // Ready once a connection is accepted.
        for (;;) {
            try {
                Conn probe(sock_);
                break;
            } catch (const std::runtime_error &) {
            }
            if (secondsBetween(t0, Clock::now()) > 20)
                throw std::runtime_error("vip-serve did not start listening");
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("vip-serve exited at start-up");
            }
            ::usleep(100);
        }
        readySeconds_ = secondsBetween(t0, Clock::now());
    }

    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
        ::unlink(sock_.c_str());
    }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    double readySeconds() const { return readySeconds_; }

    /** Ask the daemon to exit, reap it, and return its peak RSS (MB). */
    double
    shutdown()
    {
        {
            Conn c(sock_);
            c.send("{\"cmd\":\"shutdown\"}");
            c.readLine();
        }
        const auto t0 = Clock::now();
        for (;;) {
            int status = 0;
            rusage ru{};
            const pid_t r = ::wait4(pid_, &status, WNOHANG, &ru);
            if (r == pid_) {
                pid_ = -1;
                if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
                    throw std::runtime_error("vip-serve exited uncleanly");
                return static_cast<double>(ru.ru_maxrss) / 1024.0;
            }
            if (secondsBetween(t0, Clock::now()) > 20)
                throw std::runtime_error("vip-serve did not shut down");
            ::usleep(200);
        }
    }

  private:
    std::string sock_;
    pid_t pid_ = -1;
    double readySeconds_ = 0;
};

struct Campaign
{
    double seconds = 0;
    double setupS = 0;
    double rssMb = 0;
    std::vector<double> latMs;   ///< per request, in sequence order
    /** Per request: its spec was answered before the send, so the
     *  cache holds it. char, not bool: clients write concurrently. */
    std::vector<char> hit;
    std::uint64_t mismatches = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t shed = 0;
};

Campaign
runCampaign(const RunOptions &opts, const Population &pop,
            const std::vector<std::string> &expected, SpanLog &spans,
            std::uint64_t parent)
{
    const std::string sock = opts.workDir + "/serve.sock";
    Daemon daemon(opts, sock);
    Campaign c;
    c.setupS = daemon.readySeconds();
    const std::size_t n = pop.order.size();
    c.latMs.assign(n, 0);
    c.hit.assign(n, 0);

    std::vector<std::atomic<bool>> answered(pop.specs.size());
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> mismatches{0};
    std::vector<std::string> errors(opts.clients);
    SpanLog::Scope campaign(spans, "campaign", parent);

    const auto t0 = Clock::now();
    std::vector<std::thread> clients;
    for (unsigned k = 0; k < opts.clients; ++k) {
        clients.emplace_back([&, k] {
            try {
                Conn conn(sock);
                for (std::size_t i; (i = next++) < n;) {
                    const std::size_t s = pop.order[i];
                    SpanLog::Scope req(spans, "request", campaign.id(),
                                       pop.kinds[s]);
                    c.hit[i] = answered[s].load();
                    const auto r0 = Clock::now();
                    conn.send(pop.lines[s]);
                    const std::string resp = conn.readLine();
                    c.latMs[i] = secondsBetween(r0, Clock::now()) * 1e3;
                    if (resp != expected[s])
                        ++mismatches;
                    answered[s] = true;
                }
            } catch (const std::exception &e) {
                errors[k] = e.what();
                next = n;  // stop the other clients too
            }
        });
    }
    for (auto &t : clients)
        t.join();
    c.seconds = secondsBetween(t0, Clock::now());
    for (const std::string &e : errors) {
        if (!e.empty())
            throw std::runtime_error("serve client: " + e);
    }
    c.mismatches = mismatches;

    {
        Conn ctl(sock);
        ctl.send("{\"cmd\":\"stats\"}");
        const Json stats = Json::parse(ctl.readLine()).at("serve");
        c.cacheHits = stats.at("cacheHits").asU64();
        c.cacheMisses = stats.at("cacheMisses").asU64();
        c.shed = stats.at("shed").asU64();
    }
    c.rssMb = daemon.shutdown();
    return c;
}

/** A direct in-process runSpec() of every distinct spec. */
struct DirectPass
{
    double seconds = 0;
    /** Per spec: the response vip-serve must send, byte for byte. */
    std::vector<std::string> responses;
    std::vector<std::uint64_t> resultHash;  ///< fnv1a(RunResult::toJson())
    std::vector<Cycles> cycles;
    std::vector<double> pointSeconds;
};

DirectPass
directPass(const Population &pop)
{
    DirectPass d;
    const auto t0 = Clock::now();
    for (const RunSpec &spec : pop.specs) {
        const auto p0 = Clock::now();
        const RunResult r = runSpec(spec);
        const Json result = r.toJson();
        Json body = Json::object();
        body.set("key", hex16(spec.fingerprint()));
        body.set("result", result);
        d.responses.push_back(body.str());
        d.resultHash.push_back(fnv1a(result.str()));
        d.cycles.push_back(r.cycles);
        d.pointSeconds.push_back(secondsBetween(p0, Clock::now()));
    }
    d.seconds = secondsBetween(t0, Clock::now());
    return d;
}

/** The instrumented serial pass: every distinct spec as a point. */
std::vector<PointResult>
pointPass(const Population &pop, const Strategy &strategy,
          std::uint64_t seed, SpanLog &spans, std::uint64_t parent,
          double *seconds)
{
    std::vector<PointResult> out;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < pop.specs.size(); ++i) {
        SpanLog::Scope point(spans, "point", parent, pop.kinds[i]);
        PointCtx ctx(strategy, spans, point.id(), pop.kinds[i],
                     dataSeed(seed, i));
        out.push_back(runSpecPoint(ctx, pop.specs[i]));
    }
    *seconds = secondsBetween(t0, Clock::now());
    return out;
}

/** Points whose result disagrees with the direct pass's response. */
std::uint64_t
gatePoints(const std::vector<PointResult> &pass, const DirectPass &ref)
{
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < pass.size(); ++i) {
        if (!pass[i].ok || pass[i].resultHash != ref.resultHash[i])
            ++bad;
    }
    return bad;
}

double
modelErrPct(const DirectPass &ref, const Population &pop)
{
    // Sec. VI-A: a quarter-HD BP-M iteration is 32 tile phases per
    // vault, 1.8 ms in the paper.
    const double iter_ms = cyclesToMs(ref.cycles[pop.paperSpec]) * 32;
    return 100.0 * std::abs(iter_ms - 1.8) / 1.8;
}

/** Direct runs that disagree with the oracle pins of their shape. */
std::uint64_t
gateDirect(const Json &pins, const DirectPass &ref)
{
    const Json *w = pins.find("workloads") ? pins.at("workloads").find(
                                                 "serve_mix")
                                           : nullptr;
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < ref.cycles.size(); ++i) {
        const Json *pin = w ? w->find(std::to_string(i % kShapes)) : nullptr;
        if (!pin || pin->at("cycles").asU64() != ref.cycles[i] ||
            pin->at("result").asString() != hex16(ref.resultHash[i])) {
            std::fprintf(stderr, "correctness gate: serve_mix spec %zu "
                                 "differs from its pinned fingerprint\n", i);
            ++bad;
        }
    }
    return bad;
}

} // namespace

Json
pinServeMix(const std::string &root)
{
    Population pop = makePopulation(0, root);
    pop.specs.resize(kShapes);
    for (RunSpec &spec : pop.specs) {
        spec.config.fastPath = false;
        spec.config.fastForward = false;
    }
    const DirectPass oracle = directPass(pop);
    Json out = Json::object();
    for (std::size_t i = 0; i < kShapes; ++i) {
        Json pin = Json::object();
        pin.set("cycles", static_cast<std::uint64_t>(oracle.cycles[i]));
        pin.set("result", hex16(oracle.resultHash[i]));
        out.set(std::to_string(i), std::move(pin));
    }
    return out;
}

Outcome
runServeMix(const RunOptions &opts, const Json &pins, SpanLog &spans)
{
    Outcome out;
    const Population pop = makePopulation(opts.seed, opts.root);
    SpanLog::Scope workload(spans, "workload", 0);
    const auto start = Clock::now();

    const DirectPass ref = directPass(pop);
    out.attempted += pop.specs.size();
    out.failed += gateDirect(pins, ref);
    std::vector<double> spec_s = ref.pointSeconds;  ///< best per spec
    std::vector<Campaign> campaigns;
    std::vector<double> setups;
    for (std::size_t round = 0;; ++round) {
        out.speed.sample();
        campaigns.push_back(
            runCampaign(opts, pop, ref.responses, spans, workload.id()));
        setups.push_back(campaigns.back().setupS);
        // A campaign's time is one whole pass, while serial_s sums
        // per-spec bests and needs fewer passes to settle: a direct
        // pass follows every other campaign.
        if (round % 2 == 0 &&
            secondsBetween(start, Clock::now()) < opts.seconds)
            continue;
        const DirectPass again = directPass(pop);
        out.attempted += pop.specs.size();
        for (std::size_t i = 0; i < pop.specs.size(); ++i) {
            out.failed += again.responses[i] != ref.responses[i];
            spec_s[i] = std::min(spec_s[i], again.pointSeconds[i]);
        }
        if (secondsBetween(start, Clock::now()) >= opts.seconds)
            break;
    }
    for (unsigned k = 0; k < kExtraSpawns; ++k) {
        Daemon d(opts, opts.workDir + "/serve.sock");
        setups.push_back(d.readySeconds());
        d.shutdown();
    }

    // As for the sweeps, host noise only adds time: the campaign time is
    // the run's best, serial_s sums each spec's best direct run, and a
    // request's latency is its best over the campaigns (every campaign
    // sends the same sequence), so an episode of noise during one
    // campaign costs nothing as long as another ran that request outside
    // it.
    const std::size_t n = pop.order.size();
    std::vector<double> walls, rss, lat = campaigns.front().latMs;
    std::uint64_t hits = 0, misses = 0, shed = 0;
    for (const Campaign &c : campaigns) {
        walls.push_back(c.seconds);
        rss.push_back(c.rssMb);
        out.attempted += c.latMs.size();
        out.failed += c.mismatches;
        hits += c.cacheHits;
        misses += c.cacheMisses;
        shed += c.shed;
        for (std::size_t i = 0; i < n; ++i)
            lat[i] = std::min(lat[i], c.latMs[i]);
    }
    const double wall = *std::min_element(walls.begin(), walls.end());
    double serial_s = 0;
    for (const double s : spec_s)
        serial_s += s;
    std::vector<double> hit_lat, miss_lat;
    for (std::size_t i = 0; i < n; ++i)
        (campaigns.front().hit[i] ? hit_lat : miss_lat).push_back(lat[i]);
    Metrics &m = out.metrics;
    if (!opts.trace) {
        const double k = out.speed.scale();
        m["wall_s"] = {wall * k, "s"};
        m["serial_s"] = {serial_s * k, "s"};
        double cycles = 0;
        for (const Cycles c : ref.cycles)
            cycles += static_cast<double>(c);
        m["sim_mcps"] = {cycles / (serial_s * k) / 1e6, "Mcycles/s"};
        m["setup_s"] = {median(setups) * k, "s"};
        m["peak_rss_mb"] = {median(rss), "MB"};
        m["model_err_pct"] = {modelErrPct(ref, pop), "%"};
        m["req_per_s"] = {static_cast<double>(n) / (wall * k), "1/s"};
        m["latency_p50_ms"] = {percentile(lat, 50) * k, "ms"};
        m["latency_p99_ms"] = {percentile(lat, 99) * k, "ms"};
        return out;
    }

    // Traced run: counts and setup spans from the instrumented pass,
    // strategy differentials, the untraced campaign for the tracing
    // overhead, and the layer drivers.
    double base_s = 0;
    const auto base =
        pointPass(pop, Strategy{}, opts.seed, spans, workload.id(), &base_s);
    out.attempted += base.size();
    out.failed += gatePoints(base, ref);
    addCountMetrics(base, serial_s, m);
    addSetupSpanMetrics(base, m);
    auto gain = [&](const Strategy &s) {
        double secs = 0;
        const auto pass =
            pointPass(pop, s, opts.seed, spans, workload.id(), &secs);
        out.attempted += pass.size();
        out.failed += gatePoints(pass, ref);
        return secs / base_s;
    };
    // Gains are oracle time over default time; islands the reverse.
    m["pe.fastpath_gain"] = {gain({false, true, 1}), "ratio"};
    m["system.ff_gain"] = {gain({true, false, 1}), "ratio"};
    m["system.islands4_gain"] = {1.0 / gain({true, true, 4}), "ratio"};

    SpanLog untraced(false, "serve_mix");
    const Campaign plain =
        runCampaign(opts, pop, ref.responses, untraced, 0);
    out.attempted += plain.latMs.size();
    out.failed += plain.mismatches;
    m["trace.overhead_s"] = {wall - plain.seconds, "s"};

    const double longest =
        *std::max_element(ref.pointSeconds.begin(), ref.pointSeconds.end());
    double queue_wait = 0;
    for (std::size_t i = 0; i < plain.latMs.size(); ++i) {
        if (!plain.hit[i]) {
            queue_wait += std::max(0.0, plain.latMs[i] / 1e3 -
                                            ref.pointSeconds[pop.order[i]]);
        }
    }
    // Each connection runs its misses on its own thread: C-way parallel.
    m["sim.sweep_parallel_eff"] = {serial_s / (opts.clients * wall),
                                   "ratio"};
    m["sim.sweep_longest_point_frac"] = {longest / ref.seconds, "ratio"};
    m["sim.sweep_queue_wait_s"] = {queue_wait, "s"};
    m["serve.hit_frac"] = {
        hits + misses ? static_cast<double>(hits) /
                            static_cast<double>(hits + misses)
                      : 0.0,
        "ratio"};
    m["serve.hit_latency_p50_ms"] = {percentile(hit_lat, 50), "ms"};
    m["serve.miss_latency_p50_ms"] = {percentile(miss_lat, 50), "ms"};
    m["serve.shed"] = {static_cast<double>(shed), "count"};
    m["serve.us_per_spec_parse"] = {usPerSpecParse(pop.lines), "us"};
    runLayerDrivers({1, 32, 16}, m);
    return out;
}

} // namespace perfbench
