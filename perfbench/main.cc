/**
 * @file
 * perfbench-driver: runs one benchmark workload and prints its result.
 *
 *   perfbench-driver --workload NAME --seed N --seconds S --trace 0|1
 *       --serve-bin PATH --root DIR --work-dir DIR --pins FILE
 *       [--commit ID] [--source-digest HEX]
 *   perfbench-driver --pin FILE --root DIR
 *
 * The last line of stdout is one JSON object: {"correct", "attempted",
 * "failed", "metrics"}, with the end-to-end metrics when --trace 0 and
 * the per-layer metrics when --trace 1. Lines before it record the host
 * and the build. --pin regenerates the correctness gate's pinned
 * fingerprints with the oracle strategies (interpreter, per-cycle
 * ticking). run.py builds this program and drives it; see README.md.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include <malloc.h>

#include "bench.hh"
#include "sim/json.hh"
#include "sim/sweep.hh"

using namespace vip;
using namespace perfbench;

namespace perfbench {

void
addCountMetrics(const std::vector<PointResult> &pass, double serial_s,
                Metrics &m)
{
    std::map<std::string, std::uint64_t> c;
    double pe_cycles = 0, cycles = 0;
    std::uint64_t ticks = 0, skipped = 0, warps = 0, fast = 0;
    for (const PointResult &r : pass) {
        for (const auto &[k, v] : r.counters)
            c[k] += v;
        pe_cycles += static_cast<double>(r.cycles) * r.pes;
        cycles += static_cast<double>(r.cycles);
        ticks += r.cycles - r.ffSkipped;
        skipped += r.ffSkipped;
        warps += r.ffWarps;
        fast += r.fastUops;
    }
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    auto d = [&c](const char *k) { return static_cast<double>(c[k]); };
    m["mem.col_cmds"] = {d("mem.col_commands"), "count"};
    m["mem.row_hit_frac"] = {
        1.0 - ratio(d("mem.row_misses"), d("mem.col_commands")), "ratio"};
    m["mem.req_latency_cyc"] = {
        ratio(d("mem.req_latency_total"), d("mem.req_count")), "cycles"};
    m["pe.instructions"] = {d("pe.instructions"), "count"};
    m["pe.vector_ops"] = {d("pe.vector_ops"), "count"};
    m["pe.fast_uop_frac"] = {
        ratio(static_cast<double>(fast), d("pe.instructions")), "ratio"};
    m["pe.busy_frac"] = {ratio(d("pe.busy_cycles"), pe_cycles), "ratio"};
    for (const char *s :
         {"scalar", "vector_busy", "arc", "lsq", "fence", "drain"}) {
        m[std::string("pe.stall_frac.") + s] = {
            ratio(d((std::string("pe.stall_") + s).c_str()), pe_cycles),
            "ratio"};
    }
    m["noc.packets"] = {d("noc.delivered"), "count"};
    m["noc.hops_per_packet"] = {
        ratio(d("noc.hops_total"), d("noc.delivered")), "hops"};
    m["noc.latency_cyc"] = {
        ratio(d("noc.latency_total"), d("noc.delivered")), "cycles"};
    m["system.ticks"] = {static_cast<double>(ticks), "count"};
    m["system.ff_skip_frac"] = {ratio(static_cast<double>(skipped), cycles),
                                "ratio"};
    m["system.ff_warps"] = {static_cast<double>(warps), "count"};
    m["system.ns_per_tick"] = {
        ratio(serial_s * 1e9, static_cast<double>(ticks)), "ns"};
}

void
addSetupSpanMetrics(const std::vector<PointResult> &pass, Metrics &m)
{
    double build = 0, program = 0, stage = 0;
    for (const PointResult &r : pass) {
        build += r.t.build;
        program += r.t.program;
        stage += r.t.stage;
    }
    m["system.build_s"] = {build, "s"};
    m["kernels.program_s"] = {program, "s"};
    m["mem.stage_s"] = {stage, "s"};
}

} // namespace perfbench

namespace {

struct Pass
{
    std::vector<PointResult> points;
    double seconds = 0;
    double rssMb = 0;  ///< parallel pass: the process's peak RSS
};

PointResult
runPoint(const PointDef &def, const Strategy &s, std::uint64_t seed,
         std::size_t index, SpanLog &spans, std::uint64_t parent)
{
    SpanLog::Scope point(spans, "point", parent, def.name);
    PointCtx ctx(s, spans, point.id(), def.name, dataSeed(seed, index));
    try {
        return def.fn(ctx);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "point %s failed: %s\n", def.name.c_str(),
                     e.what());
        PointResult r;
        r.name = def.name;
        return r;
    }
}

Pass
serialPass(const SweepWorkload &w, const Strategy &s, std::uint64_t seed,
           SpanLog &spans, std::uint64_t parent)
{
    SpanLog::Scope span(spans, "serial_pass", parent);
    Pass p;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < w.points.size(); ++i)
        p.points.push_back(runPoint(w.points[i], s, seed, i, spans,
                                    span.id()));
    p.seconds = secondsBetween(t0, Clock::now());
    return p;
}

Pass
parallelPass(const SweepWorkload &w, unsigned jobs, std::uint64_t seed,
             SpanLog &spans, std::uint64_t parent)
{
    SpanLog::Scope span(spans, "parallel_pass", parent);
    Pass p;
    p.points.resize(w.points.size());
    resetPeakRss();
    const auto t0 = Clock::now();
    {
        SweepEngine engine(jobs);
        for (std::size_t i = 0; i < w.points.size(); ++i) {
            const auto submitted = Clock::now();
            engine.submit([&, i, submitted] {
                const double wait = secondsBetween(submitted, Clock::now());
                p.points[i] = runPoint(w.points[i], Strategy{}, seed, i,
                                       spans, span.id());
                p.points[i].queueWait = wait;
            });
        }
        engine.wait();
    }
    p.seconds = secondsBetween(t0, Clock::now());
    p.rssMb = peakRssMb();
    return p;
}

/** Points of @p pass that disagree with the pinned fingerprints. */
std::uint64_t
gate(const Json &pins, const std::string &workload, const Pass &pass,
     std::uint64_t seed)
{
    const Json *w = pins.find("workloads") ? pins.at("workloads").find(workload)
                                           : nullptr;
    std::uint64_t bad = 0;
    for (const PointResult &r : pass.points) {
        const Json *pt = w ? w->find(r.name) : nullptr;
        if (!pt || !r.ok) {
            ++bad;
            continue;
        }
        const Json &cls = pt->asArray().at(seed % 4);
        if (cls.at("cycles").asU64() != r.cycles ||
            cls.at("result").asString() != hex16(r.resultHash) ||
            cls.at("dram").asString() != hex16(r.dramHash)) {
            std::fprintf(stderr, "correctness gate: %s/%s differs from "
                                 "its pinned fingerprint\n",
                         workload.c_str(), r.name.c_str());
            ++bad;
        }
    }
    return bad;
}

Outcome
runSweepWorkload(const RunOptions &opts, const Json &pins, SpanLog &spans)
{
    const SweepWorkload w = makeSweepWorkload(opts.workload);
    Outcome out;
    SpanLog::Scope workload(spans, "workload", 0);
    std::vector<Pass> serial, parallel;
    const auto start = Clock::now();
    auto check = [&](const Pass &p) {
        out.attempted += p.points.size();
        out.failed += gate(pins, w.name, p, opts.seed);
    };
    // Alternate serial and parallel passes until another pair would
    // overrun the measuring time.
    double pair_s = 0;
    do {
        const auto p0 = Clock::now();
        out.speed.sample();
        serial.push_back(
            serialPass(w, Strategy{}, opts.seed, spans, workload.id()));
        check(serial.back());
        parallel.push_back(
            parallelPass(w, opts.jobs, opts.seed, spans, workload.id()));
        check(parallel.back());
        pair_s = secondsBetween(p0, Clock::now());
    } while (secondsBetween(start, Clock::now()) + pair_s <= opts.seconds);

    // Host noise only ever adds time, and on a shared host it comes in
    // episodes of seconds. So a point's time is its best over the
    // passes and the serial figure sums those: an episode during one
    // pass costs nothing as long as another pass ran that point
    // outside it. Set-up time is the sum of per-point medians.
    const std::size_t n = w.points.size();
    std::vector<double> point_ms(n);
    double serial_best = 0, setup_med = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> total, setup;
        for (const Pass &p : serial) {
            total.push_back(p.points[i].t.total());
            setup.push_back(p.points[i].t.setup());
        }
        const double best = *std::min_element(total.begin(), total.end());
        point_ms[i] = best * 1e3;
        serial_best += best;
        setup_med += median(setup);
    }
    std::vector<double> wall_s, queue_s, rss_mb;
    for (const Pass &p : parallel) {
        wall_s.push_back(p.seconds);
        rss_mb.push_back(p.rssMb);
        double q = 0;
        for (const PointResult &r : p.points)
            q += r.queueWait;
        queue_s.push_back(q);
    }
    std::fprintf(stderr, "passes (s): serial");
    for (const Pass &p : serial)
        std::fprintf(stderr, " %.3f", p.seconds);
    std::fprintf(stderr, "; parallel");
    for (const double s : wall_s)
        std::fprintf(stderr, " %.3f", s);
    std::fprintf(stderr, "\n");
    const double wall_best = *std::min_element(wall_s.begin(), wall_s.end());
    std::uint64_t cycles = 0;
    for (const PointResult &r : serial.front().points)
        cycles += r.cycles;

    Metrics &m = out.metrics;
    if (!opts.trace) {
        const double k = out.speed.scale();
        m["wall_s"] = {wall_best * k, "s"};
        m["serial_s"] = {serial_best * k, "s"};
        m["sim_mcps"] = {
            static_cast<double>(cycles) / (serial_best * k) / 1e6,
            "Mcycles/s"};
        m["setup_s"] = {setup_med * k, "s"};
        // The parallel pass holds J machines at once: the process peak.
        m["peak_rss_mb"] = {median(rss_mb), "MB"};
        m["model_err_pct"] = {w.modelErrPct(serial.front().points), "%"};
        m["req_per_s"] = {static_cast<double>(n) / (wall_best * k), "1/s"};
        // A sweep's requests are its points: latency is a point's best
        // serial time, and the percentiles run over points.
        m["latency_p50_ms"] = {percentile(point_ms, 50) * k, "ms"};
        m["latency_p99_ms"] = {percentile(point_ms, 99) * k, "ms"};
        return out;
    }

    const Pass &last = serial.back();
    addCountMetrics(last.points, serial_best, m);
    addSetupSpanMetrics(last.points, m);
    auto gain = [&](const Strategy &s) {
        const Pass p = serialPass(w, s, opts.seed, spans, workload.id());
        check(p);
        return p.seconds / serial_best;
    };
    // Gains are oracle time over default time; islands the reverse.
    m["pe.fastpath_gain"] = {gain({false, true, 1}), "ratio"};
    m["system.ff_gain"] = {gain({true, false, 1}), "ratio"};
    m["system.islands4_gain"] = {1.0 / gain({true, true, 4}), "ratio"};

    SpanLog untraced(false, w.name);
    const Pass plain = parallelPass(w, opts.jobs, opts.seed, untraced, 0);
    check(plain);
    m["trace.overhead_s"] = {wall_best - plain.seconds, "s"};

    m["sim.sweep_parallel_eff"] = {serial_best / (opts.jobs * wall_best),
                                   "ratio"};
    m["sim.sweep_longest_point_frac"] = {
        *std::max_element(point_ms.begin(), point_ms.end()) / 1e3 /
            serial_best,
        "ratio"};
    m["sim.sweep_queue_wait_s"] = {median(queue_s), "s"};
    // No daemon in a sweep: the serve counters are zero by definition;
    // the parse cost is measured on this workload's own spec shape.
    m["serve.hit_frac"] = {0.0, "ratio"};
    m["serve.hit_latency_p50_ms"] = {0.0, "ms"};
    m["serve.miss_latency_p50_ms"] = {0.0, "ms"};
    m["serve.shed"] = {0.0, "count"};
    Json req = Json::object();
    req.set("run", w.sampleSpec().toJson());
    m["serve.us_per_spec_parse"] = {
        usPerSpecParse(std::vector<std::string>(40, req.str())), "us"};
    runLayerDrivers(w.shape, m);
    return out;
}

/** --pin: oracle fingerprints of every sweep point, per data class,
 *  and of every serve_mix spec shape. */
int
writePins(const std::string &path, const std::string &root)
{
    SpanLog off(false, "");
    Json workloads = Json::object();
    for (const char *name : {"cnn_tiles", "mrf_tiles", "fc_layers"}) {
        const SweepWorkload w = makeSweepWorkload(name);
        Json points = Json::object();
        for (std::uint64_t cls = 0; cls < 4; ++cls) {
            const Pass p = serialPass(w, Strategy::oracle(), cls, off, 0);
            for (const PointResult &r : p.points) {
                if (!r.ok) {
                    std::fprintf(stderr, "pin: %s/%s did not halt cleanly\n",
                                 name, r.name.c_str());
                    return 1;
                }
                Json c = Json::object();
                c.set("cycles", static_cast<std::uint64_t>(r.cycles));
                c.set("result", hex16(r.resultHash));
                c.set("dram", hex16(r.dramHash));
                Json arr = points.find(r.name) ? *points.find(r.name)
                                               : Json::array();
                arr.push(std::move(c));
                points.set(r.name, std::move(arr));
            }
            std::fprintf(stderr, "pinned %s data class %llu (%.1f s)\n",
                         name, static_cast<unsigned long long>(cls),
                         p.seconds);
        }
        workloads.set(name, std::move(points));
    }
    workloads.set("serve_mix", pinServeMix(root));
    Json doc = Json::object();
    doc.set("strategy", "oracle: --no-fast-path --no-fast-forward");
    doc.set("workloads", std::move(workloads));
    std::ofstream os(path);
    doc.dump(os, 0);
    os << '\n';
    return os ? 0 : 1;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench-driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 --serve-bin PATH --root DIR "
                 "--work-dir DIR --pins FILE [--commit ID] "
                 "[--source-digest HEX]\n"
                 "       perfbench-driver --pin FILE --root DIR\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "perfbench-driver: refusing to time a build "
                         "without optimisation (build type %s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
#endif
    // A fixed mmap threshold: glibc otherwise raises it each time a large
    // block is freed, so later passes would keep large buffers on the
    // heap and the peak RSS would depend on how many passes came before.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    RunOptions opts;
    std::string pins_path, pin_out, commit = "unknown", digest = "unknown";
    const unsigned nproc =
        std::max(1u, std::thread::hardware_concurrency());
    // At most half the host's CPUs: a pass that needs every CPU quiet at
    // once times the neighbours on a shared host, not the simulator.
    opts.jobs = std::max(1u, std::min(4u, nproc / 2));
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage();
        const std::string v = argv[++i];
        if (a == "--workload")
            opts.workload = v;
        else if (a == "--seed")
            opts.seed = std::stoull(v);
        else if (a == "--seconds")
            opts.seconds = std::stod(v);
        else if (a == "--trace")
            opts.trace = v == "1";
        else if (a == "--serve-bin")
            opts.serveBin = v;
        else if (a == "--root")
            opts.root = v;
        else if (a == "--work-dir")
            opts.workDir = v;
        else if (a == "--pins")
            pins_path = v;
        else if (a == "--pin")
            pin_out = v;
        else if (a == "--commit")
            commit = v;
        else if (a == "--source-digest")
            digest = v;
        else
            return usage();
    }
    if (!pin_out.empty())
        return writePins(pin_out, opts.root);
    if (opts.workload.empty() || pins_path.empty() || opts.workDir.empty())
        return usage();

    opts.clients = std::max(1u, std::min(2u, nproc / 2));
    if (opts.workload == "serve_mix" && opts.clients + kDaemonJobs > nproc) {
        std::fprintf(stderr,
                     "perfbench: warning: %u clients + %u daemon jobs "
                     "exceed nproc = %u; latencies will show contention\n",
                     opts.clients, kDaemonJobs, nproc);
    }

    std::printf("host: nproc=%u jobs=%u clients=%u daemon_jobs=%u "
                "build_type=%s compiler=\"%s\" optimized=1 commit=%s "
                "source_digest=%s\n",
                nproc, opts.jobs, opts.clients, kDaemonJobs,
                PERFBENCH_BUILD_TYPE, __VERSION__, commit.c_str(),
                digest.c_str());
    std::fflush(stdout);

    Json pins;
    {
        std::ifstream in(pins_path);
        std::stringstream ss;
        ss << in.rdbuf();
        try {
            pins = Json::parse(ss.str());
        } catch (const SimError &e) {
            std::fprintf(stderr, "perfbench: cannot read pins %s: %s\n",
                         pins_path.c_str(), e.what());
            return 1;
        }
    }

    SpanLog spans(opts.trace, opts.workload);
    Outcome out;
    try {
        out = opts.workload == "serve_mix"
                  ? runServeMix(opts, pins, spans)
                  : runSweepWorkload(opts, pins, spans);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", opts.workload.c_str(),
                     e.what());
        return 1;
    }
    if (opts.trace) {
        const std::string path = opts.workDir + "/spans-" + opts.workload +
                                 "-" + std::to_string(opts.seed) + ".json";
        spans.write(path);
        out.metrics["trace.spans"] = {static_cast<double>(spans.size()),
                                      "count"};
        std::printf("spans: %s (%zu spans)\n", path.c_str(), spans.size());
    }

    std::printf("host speed: reference kernel best %.6f s over %zu runs; "
                "end-to-end timings scaled by %.4f = %.3f s / best\n",
                out.speed.best(), out.speed.samples(), out.speed.scale(),
                HostSpeed::kNominalS);

    const double fail_frac =
        out.attempted ? static_cast<double>(out.failed) /
                            static_cast<double>(out.attempted)
                      : 1.0;
    for (const auto &[name, vu] : out.metrics)
        std::printf("%-32s %14.6g %s\n", name.c_str(), vu.first,
                    vu.second.c_str());
    std::printf("%-32s %14.6g ratio (%llu of %llu failed)\n", "fail_frac",
                fail_frac, static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));

    Json metrics = Json::object();
    for (const auto &[name, vu] : out.metrics) {
        Json v = Json::object();
        v.set("value", vu.first);
        v.set("unit", vu.second);
        metrics.set(name, std::move(v));
    }
    Json result = Json::object();
    result.set("correct", out.failed == 0 && out.attempted > 0);
    result.set("attempted", out.attempted);
    result.set("failed", out.failed);
    result.set("metrics", std::move(metrics));
    std::printf("%s\n", result.str().c_str());
    return 0;
}
