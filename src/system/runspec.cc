#include "system/runspec.hh"

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "sim/cancel.hh"
#include "sim/json.hh"

namespace vip {

namespace {

/** The keys of a RunSpec object and of its array elements. */
constexpr std::string_view kSpecKeys[] = {"config", "programs", "pokes",
                                          "regs",   "maxCycles", "budgetMs"};
constexpr std::string_view kProgramKeys[] = {"pe", "source"};
constexpr std::string_view kPokeKeys[] = {"addr", "values"};
constexpr std::string_view kRegKeys[] = {"pe", "reg", "value"};

/** Decode an index field, rejecting values a 32-bit index would
 *  silently truncate. */
unsigned
indexField(const Json &j, const char *key, const std::string &path)
{
    const std::uint64_t v = j.at(key).asU64();
    if (v > UINT32_MAX) {
        throw ConfigError(path + key + " = " + std::to_string(v) +
                          " does not fit in 32 bits");
    }
    return static_cast<unsigned>(v);
}

/** Reject an index outside [0, limit), naming the key. */
void
requireBelow(unsigned v, unsigned limit, const std::string &what)
{
    if (v >= limit) {
        throw ConfigError(what + " = " + std::to_string(v) +
                          " is out of range [0, " +
                          std::to_string(limit) + ")");
    }
}

/** Collects the canonical encoding as text, for toJson(). */
class TextSink
{
  public:
    explicit TextSink(std::string &out) : out_(out) {}

    void put(std::string_view s) { out_ += s; }
    void putString(std::string_view s) { appendJsonString(out_, s); }

  private:
    std::string &out_;
};

/** Hashes the canonical encoding as it is written, for fingerprint():
 *  fnv1a() of the text without storing the text. */
class HashSink
{
  public:
    void put(std::string_view s) { h_ = fnv1a(s, h_); }

    void
    putString(std::string_view s)
    {
        scratch_.clear();
        appendJsonString(scratch_, s);
        put(scratch_);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = kFnv1aSeed;
    std::string scratch_;
};

template <typename Sink, typename T>
void
putInteger(Sink &out, T v)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.put(std::string_view(buf, static_cast<std::size_t>(res.ptr - buf)));
}

/**
 * The canonical encoding, with or without the budgetMs field: the
 * compact text of the spec's JSON tree (keys sorted), written to
 * @p out straight from the fields. The one RunSpec encoder: toJson()
 * parses its text and fingerprint() hashes it.
 */
template <typename Sink>
void
encode(Sink &out, const RunSpec &spec, bool with_budget)
{
    out.put("{");
    if (with_budget && spec.budgetMs != 0) {
        out.put("\"budgetMs\":");
        putInteger(out, spec.budgetMs);
        out.put(",");
    }
    out.put("\"config\":");
    out.put(spec.config.toJson().str());
    out.put(",\"maxCycles\":");
    putInteger(out, static_cast<std::uint64_t>(spec.maxCycles));
    out.put(",\"pokes\":[");
    for (std::size_t i = 0; i < spec.pokes.size(); ++i) {
        const RunSpec::DramPoke &p = spec.pokes[i];
        out.put(i ? ",{\"addr\":" : "{\"addr\":");
        putInteger(out, static_cast<std::uint64_t>(p.addr));
        out.put(",\"values\":[");
        for (std::size_t k = 0; k < p.values.size(); ++k) {
            if (k)
                out.put(",");
            putInteger(out, p.values[k]);
        }
        out.put("]}");
    }
    out.put("],\"programs\":[");
    for (std::size_t i = 0; i < spec.programs.size(); ++i) {
        const RunSpec::Program &p = spec.programs[i];
        out.put(i ? ",{\"pe\":" : "{\"pe\":");
        putInteger(out, p.pe);
        out.put(",\"source\":");
        out.putString(p.source);
        out.put("}");
    }
    out.put("],\"regs\":[");
    for (std::size_t i = 0; i < spec.regs.size(); ++i) {
        const RunSpec::RegSet &r = spec.regs[i];
        out.put(i ? ",{\"pe\":" : "{\"pe\":");
        putInteger(out, r.pe);
        out.put(",\"reg\":");
        putInteger(out, r.reg);
        out.put(",\"value\":");
        putInteger(out, r.value);
        out.put("}");
    }
    out.put("]}");
}

} // namespace

Json
RunSpec::toJson() const
{
    std::string text;
    TextSink sink(text);
    encode(sink, *this, true);
    return Json::parse(text);
}

RunSpec
RunSpec::fromJson(const Json &j)
{
    RunSpec spec;
    requireKnownKeys(j, "key", "", kSpecKeys);
    if (const Json *c = j.find("config"))
        spec.config = SystemConfig::fromJson(*c);
    if (const Json *progs = j.find("programs")) {
        for (const Json &pj : progs->asArray()) {
            requireKnownKeys(pj, "key", "programs[].", kProgramKeys);
            Program p;
            p.pe = indexField(pj, "pe", "programs[].");
            p.source = pj.at("source").asString();
            spec.programs.push_back(std::move(p));
        }
    }
    if (const Json *pokes = j.find("pokes")) {
        for (const Json &pj : pokes->asArray()) {
            requireKnownKeys(pj, "key", "pokes[].", kPokeKeys);
            DramPoke p;
            p.addr = static_cast<Addr>(pj.at("addr").asU64());
            const Json::Array &values = pj.at("values").asArray();
            const std::size_t n = values.size();
            p.values.resize(n);
            for (std::size_t k = 0; k < n; ++k) {
                const std::int64_t val = values[k].asI64();
                // One unsigned compare: val outside [-32768, 32767].
                if (static_cast<std::uint64_t>(val + 32768) > 65535) {
                    throw ConfigError(
                        "pokes[].values: " + std::to_string(val) +
                        " does not fit in a 16-bit DRAM word");
                }
                p.values[k] = static_cast<std::int16_t>(val);
            }
            spec.pokes.push_back(std::move(p));
        }
    }
    if (const Json *regs = j.find("regs")) {
        for (const Json &rj : regs->asArray()) {
            requireKnownKeys(rj, "key", "regs[].", kRegKeys);
            RegSet r;
            r.pe = indexField(rj, "pe", "regs[].");
            r.reg = indexField(rj, "reg", "regs[].");
            r.value = rj.at("value").asU64();
            spec.regs.push_back(r);
        }
    }
    if (const Json *mc = j.find("maxCycles"))
        spec.maxCycles = static_cast<Cycles>(mc->asU64());
    if (const Json *bm = j.find("budgetMs"))
        spec.budgetMs = bm->asU64();
    return spec;
}

std::uint64_t
RunSpec::fingerprint() const
{
    // The budget bounds host execution, not results: hash as if
    // unbudgeted so a cached success answers any budget.
    HashSink sink;
    encode(sink, *this, false);
    return sink.value();
}

std::unique_ptr<Simulation>
buildSimulation(const RunSpec &spec)
{
    auto sim = std::make_unique<Simulation>(spec.config);
    const unsigned pes = sim->system().numPes();
    for (const RunSpec::DramPoke &p : spec.pokes)
        sim->pokeDram(p.addr, p.values);
    for (const RunSpec::RegSet &r : spec.regs) {
        requireBelow(r.pe, pes, "regs[].pe");
        requireBelow(r.reg, kNumScalarRegs, "regs[].reg");
        sim->setReg(r.pe, r.reg, r.value);
    }
    for (const RunSpec::Program &p : spec.programs) {
        requireBelow(p.pe, pes, "programs[].pe");
        sim->loadProgram(p.pe, p.source);
    }
    return sim;
}

RunResult
runSpec(const RunSpec &spec, CancelToken *cancel)
{
    CancelToken local;
    CancelToken *tok = cancel;
    if (tok) {
        tok->setBudgetMs(spec.budgetMs);
    } else if (spec.budgetMs != 0) {
        local.setBudgetMs(spec.budgetMs);
        tok = &local;
    }
    auto sim = buildSimulation(spec);
    return sim->run(spec.maxCycles, tok);
}

} // namespace vip
