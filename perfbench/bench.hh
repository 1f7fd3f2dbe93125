/**
 * @file
 * Shared types of the simulator benchmark driver.
 *
 * A workload is a list of sweep points (or, for serve_mix, a request
 * campaign). Every point builds, stages, programs, runs and collects
 * its own Simulation through a PointCtx, which times each phase and,
 * in a traced run, records it as a span. A point's outcome carries
 * its simulated fingerprint (cycles, a hash of RunResult::toJson(),
 * the DRAM fingerprint) for the correctness gate, and the summed
 * per-module counters the per-layer metrics are built from.
 */

#ifndef VIP_PERFBENCH_BENCH_HH
#define VIP_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "kernels/layout.hh"
#include "sim/rng.hh"
#include "system/runspec.hh"
#include "system/simulation.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Execution strategy: the host knobs that must never change results. */
struct Strategy
{
    bool fastPath = true;
    bool fastForward = true;
    unsigned islands = 1;  ///< clamped per machine to gcd(islands, nocX)

    static Strategy oracle() { return {false, false, 1}; }
};

/**
 * Spans kept in memory during a traced run and written out at the end.
 * Disabled, every call is one branch. Thread-safe: the parallel pass
 * records from sweep worker threads.
 */
class SpanLog
{
  public:
    SpanLog(bool enabled, std::string workload);

    bool enabled() const { return enabled_; }

    /** Open a span; returns its id (0 when disabled). */
    std::uint64_t begin(const std::string &name, std::uint64_t parent,
                        const std::string &point);
    void end(std::uint64_t id);

    /** Write every span as one JSON document. */
    void write(const std::string &path) const;

    std::size_t size() const;

    /** Opens on construction, closes on destruction. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const std::string &name, std::uint64_t parent,
              const std::string &point = "")
            : log_(log), id_(log.begin(name, parent, point))
        {}
        ~Scope() { log_.end(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        std::uint64_t id() const { return id_; }

      private:
        SpanLog &log_;
        std::uint64_t id_;
    };

  private:
    struct Span
    {
        std::uint64_t id = 0;
        std::uint64_t parent = 0;
        std::string name;
        std::string point;
        double start = 0;
        double end = -1;
    };

    bool enabled_;
    std::string workload_;
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;  ///< guarded by mutex_; index = id - 1
};

/** Host seconds spent in each phase of one point. */
struct PhaseTimes
{
    double build = 0;
    double program = 0;
    double stage = 0;
    double run = 0;
    double collect = 0;

    double setup() const { return build + program + stage; }
    double total() const { return setup() + run + collect; }
};

/** What one point observed. */
struct PointResult
{
    std::string name;
    bool ok = false;
    vip::Cycles cycles = 0;
    std::uint64_t work = 0;        ///< work items, for paper scaling
    std::uint64_t resultHash = 0;  ///< fnv1a(RunResult::toJson())
    std::uint64_t dramHash = 0;    ///< DramStorage::fingerprint()
    unsigned pes = 0;              ///< PEs in the machine

    /** Summed per-module counters: "mem.col_commands",
     *  "pe.instructions", "noc.delivered", ... */
    std::map<std::string, std::uint64_t> counters;
    std::uint64_t ffSkipped = 0;
    std::uint64_t ffWarps = 0;
    std::uint64_t fastUops = 0;

    PhaseTimes t;
    double queueWait = 0;  ///< parallel pass: submit to start
};

/**
 * The context a point runs in: builds its machine under the pass's
 * strategy and times (and, traced, spans) every phase.
 */
class PointCtx
{
  public:
    PointCtx(const Strategy &strategy, SpanLog &spans,
             std::uint64_t parent_span, std::string point,
             std::uint64_t data_seed);

    /** Construct the machine (strategy applied). */
    vip::Simulation &build(vip::SystemConfig cfg);

    /** Kernel generation plus loadProgram. */
    void program(const std::function<void(vip::Simulation &)> &fn);

    /** DRAM staging of the point's inputs. */
    void stage(const std::function<void(vip::Simulation &)> &fn);

    /** Run until the machine drains; returns total cycles so far. */
    vip::Cycles run();

    /** Fingerprint and summarize the machine. */
    PointResult collect(std::uint64_t work);

    vip::Simulation &sim() { return *sim_; }

    /** The point's data generator, seeded from the run seed. */
    vip::Rng &rng() { return rng_; }

  private:
    template <typename F>
    void timed(const char *span, double &acc, F &&fn);

    Strategy strategy_;
    SpanLog &spans_;
    std::uint64_t parent_;
    std::string point_;
    vip::Rng rng_;
    std::unique_ptr<vip::Simulation> sim_;
    vip::RunResult last_;
    PhaseTimes t_;
};

/** One sweep point: builds and runs itself through the context. */
struct PointDef
{
    std::string name;
    std::function<PointResult(PointCtx &)> fn;
};

/** Access shapes the layer drivers use for a workload. */
struct DriverShape
{
    unsigned vaults = 1;       ///< vault-controller driver width
    unsigned spadBytes = 32;   ///< scratchpad stream length
    unsigned vectorLength = 16;  ///< PE vector driver's vl
};

/** A sweep workload. */
struct SweepWorkload
{
    std::string name;
    std::vector<PointDef> points;
    DriverShape shape;

    /** Mean |simulated - paper| / paper, in percent. */
    std::function<double(const std::vector<PointResult> &)> modelErrPct;

    /** A point of this workload as a RunSpec, for the spec-parse
     *  driver. */
    std::function<vip::RunSpec()> sampleSpec;
};

/** Sweep workloads by name (cnn_tiles, mrf_tiles, fc_layers). */
SweepWorkload makeSweepWorkload(const std::string &name);

/** Assembly text that reassembles to @p prog (branch targets as
 *  absolute instruction indices). */
std::string programSource(const std::vector<vip::Instruction> &prog);

/** Derive a point's data seed from the run seed and a point index. */
std::uint64_t dataSeed(std::uint64_t seed, std::uint64_t index);

// ---- Seeded input data (points.cc) -----------------------------------

std::vector<std::int16_t> randomValues(vip::Rng &rng, std::size_t n, int lo,
                                       int hi);
void writeValues(vip::DramStorage &dram, vip::Addr addr,
                 const std::vector<std::int16_t> &v);
/** A c x h x w map of values in [-8, 8]. */
vip::FeatureMap randomFmap(vip::Rng &rng, unsigned c, unsigned h,
                           unsigned w);
/** Stage random data costs in [0, 24] and the truncated-linear
 *  smoothness matrix into @p layout. */
void uploadRandomMrf(vip::Rng &rng, const vip::MrfDramLayout &layout,
                     vip::DramStorage &dram);

/** @p v as 16 lower-case hex digits (the serve key format). */
std::string hex16(std::uint64_t v);

// ---- Single-phase RunSpecs (specs.cc): serve_mix's request kinds. ----
// Shapes are fixed; @p seed sets the staged data values.

/** One vault sweeping a w x h, L-label tile rightwards (BP-M). */
vip::RunSpec bpSweepSpec(std::uint64_t seed, unsigned w, unsigned h,
                         unsigned labels);

/** One full BP-M iteration over a w x h tile on one vault. */
vip::RunSpec bpTileSpec(std::uint64_t seed, unsigned w, unsigned h,
                        unsigned labels);

/** One conv filter group over a width-wide strip, one row per PE. */
vip::RunSpec convSpec(std::uint64_t seed, unsigned width, unsigned channels);

/** 2x2 max pooling of a width-wide strip, one output row per PE. */
vip::RunSpec poolSpec(std::uint64_t seed, unsigned width, unsigned channels);

/** FC partial products: rows x seg per PE on one vault. */
vip::RunSpec fcSliceSpec(std::uint64_t seed, unsigned rows, unsigned seg);

/** An assembly file on PE 0 with seeded 16-bit values poked at
 *  @p inputs (address, count) pairs. */
vip::RunSpec asmSpec(std::uint64_t seed, const std::string &source,
                     const std::vector<std::pair<vip::Addr, unsigned>> &inputs);

/** Metrics of a run by name: (value, unit). */
using Metrics = std::map<std::string, std::pair<double, std::string>>;

/**
 * vip-serve --jobs for serve_mix. The daemon writes a finished response
 * only when it next reads its connection (or at EOF), so a closed-loop
 * client that waits for each response stalls forever against --jobs > 1.
 * With --jobs 1 each connection runs its requests inline on its own
 * thread, so C connections give C concurrent runs.
 */
constexpr unsigned kDaemonJobs = 1;

/** Everything one benchmark invocation was asked to do. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    unsigned jobs = 1;        ///< J: sweep threads, min(nproc / 2, 4)
    unsigned clients = 1;     ///< C: serve_mix connections, min(nproc / 2, 2)
    std::string serveBin;     ///< the vip-serve binary
    std::string root;         ///< checkout root (examples/asm)
    std::string workDir;      ///< scratch directory inside the checkout
};

/**
 * The host's speed, from a fixed reference kernel timed between passes.
 *
 * A shared host's speed drifts by tens of percent over minutes, so a
 * run's best pass still depends on when the run happened. Every
 * end-to-end timing is therefore multiplied by scale(): the timings
 * read as host seconds on a host where the reference kernel takes
 * kNominalS, and the drift, which slows the kernel and the simulator
 * alike, cancels. The kernel shares no code with the simulator, so no
 * change to the simulator can move the scale.
 */
class HostSpeed
{
  public:
    /** Best time of the kernel on the host the benchmark was set up on
     *  (a 4-vCPU KVM guest on a 2.0 GHz Xeon), rounded. */
    static constexpr double kNominalS = 0.03;

    /** Time the kernel a few times. */
    void sample();

    /** Best kernel time over every sample so far. */
    double best() const;

    double scale() const { return kNominalS / best(); }

    std::size_t samples() const { return samples_.size(); }

  private:
    std::vector<double> samples_;
};

/** How one run went: its metrics and the correctness tally. */
struct Outcome
{
    Metrics metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    HostSpeed speed;  ///< sampled before every pass or campaign
};

/** The serve_mix workload (serve_mix.cc). Every direct run is checked
 *  against @p pins as well as every response against the direct run. */
Outcome runServeMix(const RunOptions &opts, const vip::Json &pins,
                    SpanLog &spans);

/** serve_mix's pins: oracle cycles and result hash of each spec shape
 *  (the shape of spec i is fixed by i mod 32; timing is data-independent,
 *  which the pins themselves check on every run). */
vip::Json pinServeMix(const std::string &root);

/** Per-layer count metrics (mem.*, pe.*, noc.*, system.*) of one
 *  serial pass; @p serial_s feeds system.ns_per_tick. */
void addCountMetrics(const std::vector<PointResult> &pass, double serial_s,
                     Metrics &out);

/** system.build_s, kernels.program_s and mem.stage_s of one pass. */
void addSetupSpanMetrics(const std::vector<PointResult> &pass,
                         Metrics &out);

/** Layer drivers (layers.cc): ns per operation of each module's hot
 *  entry points under @p shape, appended to @p out. */
void runLayerDrivers(const DriverShape &shape, Metrics &out);

/** serve.us_per_spec_parse: RunSpec::fromJson + fingerprint over the
 *  request lines (each {"run": spec}). */
double usPerSpecParse(const std::vector<std::string> &lines);

/** Run @p spec as a point (build, stage, program, run, collect). */
PointResult runSpecPoint(PointCtx &ctx, const vip::RunSpec &spec);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank percentile @p p in [0, 100] of @p v (0 when empty). */
double percentile(std::vector<double> v, double p);

/** Return free heap to the kernel and restart the peak-RSS mark. */
void resetPeakRss();

/** Peak resident set of this process since resetPeakRss(), MB. */
double peakRssMb();

} // namespace perfbench

#endif // VIP_PERFBENCH_BENCH_HH
