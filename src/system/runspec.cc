#include "system/runspec.hh"

#include <cstdint>
#include <utility>

#include "sim/cancel.hh"
#include "sim/json.hh"

namespace vip {

namespace {

/** Reject keys outside @p allowed, naming the path (the RunSpec
 *  analogue of config_json.cc's StrictObject, for flat objects). */
void
rejectUnknown(const Json &j, const std::string &path,
              std::initializer_list<const char *> allowed)
{
    for (const auto &[key, value] : j.asObject()) {
        bool known = false;
        for (const char *a : allowed) {
            if (key == a) {
                known = true;
                break;
            }
        }
        if (!known)
            throw ConfigError("unknown key \"" + path + key + "\"");
    }
}

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

/** The canonical encoding, with or without the budgetMs field. */
Json
encode(const RunSpec &spec, bool with_budget)
{
    Json j = Json::object();
    j.set("config", spec.config.toJson());
    Json progs = Json::array();
    progs.reserve(spec.programs.size());
    for (const RunSpec::Program &p : spec.programs) {
        Json pj = Json::object();
        pj.set("pe", p.pe);
        pj.set("source", p.source);
        progs.push(std::move(pj));
    }
    j.set("programs", std::move(progs));
    Json pokesj = Json::array();
    pokesj.reserve(spec.pokes.size());
    for (const RunSpec::DramPoke &p : spec.pokes) {
        Json pj = Json::object();
        pj.set("addr", static_cast<std::uint64_t>(p.addr));
        Json values = Json::array();
        values.reserve(p.values.size());
        for (const std::int16_t v : p.values)
            values.push(static_cast<std::int64_t>(v));
        pj.set("values", std::move(values));
        pokesj.push(std::move(pj));
    }
    j.set("pokes", std::move(pokesj));
    Json regsj = Json::array();
    regsj.reserve(spec.regs.size());
    for (const RunSpec::RegSet &r : spec.regs) {
        Json rj = Json::object();
        rj.set("pe", r.pe);
        rj.set("reg", r.reg);
        rj.set("value", r.value);
        regsj.push(std::move(rj));
    }
    j.set("regs", std::move(regsj));
    j.set("maxCycles", static_cast<std::uint64_t>(spec.maxCycles));
    if (with_budget && spec.budgetMs != 0)
        j.set("budgetMs", spec.budgetMs);
    return j;
}

} // namespace

Json
RunSpec::toJson() const
{
    return encode(*this, true);
}

RunSpec
RunSpec::fromJson(const Json &j)
{
    RunSpec spec;
    rejectUnknown(j, "",
                  {"config", "programs", "pokes", "regs", "maxCycles",
                   "budgetMs"});
    if (const Json *c = j.find("config"))
        spec.config = SystemConfig::fromJson(*c);
    if (const Json *progs = j.find("programs")) {
        for (const Json &pj : progs->asArray()) {
            rejectUnknown(pj, "programs[].", {"pe", "source"});
            Program p;
            p.pe = indexField(pj, "pe", "programs[].");
            p.source = pj.at("source").asString();
            spec.programs.push_back(std::move(p));
        }
    }
    if (const Json *pokes = j.find("pokes")) {
        for (const Json &pj : pokes->asArray()) {
            rejectUnknown(pj, "pokes[].", {"addr", "values"});
            DramPoke p;
            p.addr = static_cast<Addr>(pj.at("addr").asU64());
            const Json::Array &values = pj.at("values").asArray();
            p.values.reserve(values.size());
            for (const Json &v : values) {
                const std::int64_t val = v.asI64();
                if (val < -32768 || val > 32767) {
                    throw ConfigError(
                        "pokes[].values: " + std::to_string(val) +
                        " does not fit in a 16-bit DRAM word");
                }
                p.values.push_back(static_cast<std::int16_t>(val));
            }
            spec.pokes.push_back(std::move(p));
        }
    }
    if (const Json *regs = j.find("regs")) {
        for (const Json &rj : regs->asArray()) {
            rejectUnknown(rj, "regs[].", {"pe", "reg", "value"});
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
    return fnv1a(encode(*this, false).str());
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
