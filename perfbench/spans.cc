#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include <malloc.h>
#include <sys/resource.h>

#include "bench.hh"
#include "sim/json.hh"

namespace perfbench {

SpanLog::SpanLog(bool enabled, std::string workload)
    : enabled_(enabled), workload_(std::move(workload)),
      origin_(Clock::now())
{}

std::uint64_t
SpanLog::begin(const std::string &name, std::uint64_t parent,
               const std::string &point)
{
    if (!enabled_)
        return 0;
    const double start = secondsBetween(origin_, Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.name = name;
    s.point = point;
    s.start = start;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void
SpanLog::end(std::uint64_t id)
{
    if (!enabled_ || id == 0)
        return;
    const double end = secondsBetween(origin_, Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(id - 1).end = end;
}

std::size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

void
SpanLog::write(const std::string &path) const
{
    vip::Json arr = vip::Json::array();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const Span &s : spans_) {
            vip::Json j = vip::Json::object();
            j.set("id", s.id);
            j.set("parent", s.parent);
            j.set("name", s.name);
            j.set("workload", workload_);
            j.set("point", s.point);
            j.set("start_s", s.start);
            j.set("end_s", s.end);
            arr.push(std::move(j));
        }
    }
    vip::Json doc = vip::Json::object();
    doc.set("workload", workload_);
    doc.set("spans", std::move(arr));
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write span file " + path);
    doc.dump(os, 0);
    os << '\n';
}

std::string
hex16(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

namespace {

/** Keeps the reference kernel's result alive without the compiler
 *  folding the kernel away. */
volatile std::uint64_t g_referenceSink = 0;

} // namespace

void
HostSpeed::sample()
{
    // Two parts, one sample. The first makes dependent loads from an
    // L1-resident table, with multiplies and a branch the predictor
    // cannot learn: it follows the host's clock and the neighbours on
    // the core. The second chases dependent loads through a 16 MiB
    // table: it follows the neighbours' pressure on the shared cache and
    // memory. Either part alone tracked the simulator less well than
    // their sum (serve_mix and cnn_tiles seeds side by side). The big
    // table is freed after every sample so the kernel never adds to the
    // peak RSS a sweep reports.
    constexpr std::size_t kWords = std::size_t{1} << 11;  // 16 KiB
    constexpr std::size_t kBig = std::size_t{1} << 22;    // 16 MiB of u32
    constexpr int kSamples = 3;
    std::vector<std::uint32_t> big(kBig);
    std::uint64_t s = 0x243f6a8885a308d3ull;
    for (auto &w : big) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        w = static_cast<std::uint32_t>(s >> 32);
    }
    std::vector<std::uint64_t> t(kWords);
    for (int k = 0; k < kSamples; ++k) {
        s = 0x9e3779b97f4a7c15ull;
        for (auto &w : t) {
            s += 0x9e3779b97f4a7c15ull;
            w = (s ^ (s >> 31)) * 0xbf58476d1ce4e5b9ull;
        }
        const auto t0 = Clock::now();
        std::uint64_t x = 1, acc = 0;
        std::size_t idx = 0;
        for (int i = 0; i < 2000000; ++i) {
            const std::uint64_t v = t[idx];
            x = x * 6364136223846793005ull + v;
            if (x >> 63)
                acc += v;
            else
                acc ^= x;
            t[idx] = x;
            idx = (x >> 20) & (kWords - 1);
        }
        std::uint32_t j = 0;
        for (std::uint32_t i = 0; i < 200000; ++i)
            j = (big[j] + i) & (kBig - 1);
        samples_.push_back(secondsBetween(t0, Clock::now()));
        g_referenceSink = acc + j;
    }
}

double
HostSpeed::best() const
{
    return *std::min_element(samples_.begin(), samples_.end());
}

void
resetPeakRss()
{
    // Hand free heap back to the kernel, then restart the high-water
    // mark from the current resident set (clear_refs "5").
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace perfbench
