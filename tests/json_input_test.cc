/**
 * @file
 * Generated and hostile input for the JSON reader and writer and for
 * RunSpec decoding. Seeded random value trees must round-trip
 * byte-for-byte. Truncated, byte-flipped and hostile request lines
 * must end in a structured JsonError or ConfigError, never an abort.
 * The test is in the smoke set, so the sanitizer build checks the
 * ownership of Json's hand-written union on every path here.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "sim/json.hh"
#include "sim/rng.hh"
#include "system/runspec.hh"
#include "system/simulation.hh"

namespace vip {
namespace {

/// The parser's nesting limit (Parser::kMaxDepth in sim/json.cc).
constexpr int kMaxDepth = 64;

std::string
randomBytes(Rng &rng, std::size_t max_len)
{
    std::string s(rng.nextBelow(max_len + 1), '\0');
    for (char &c : s)
        c = static_cast<char>(rng.nextBelow(256));
    return s;
}

/// Any finite double except -0.0, which prints as "-0" and reads back
/// as the integer 0: equal, but not byte-identical on a second trip.
double
randomDouble(Rng &rng)
{
    for (;;) {
        const std::uint64_t bits = rng.next();
        double d = 0.0;
        std::memcpy(&d, &bits, sizeof(d));
        if (std::isfinite(d) && !(d == 0.0 && std::signbit(d)))
            return d;
    }
}

Json
randomLeaf(Rng &rng)
{
    switch (rng.nextBelow(7)) {
      case 0: return Json();
      case 1: return Json(rng.nextBelow(2) == 1);
      case 2: return Json(rng.next());
      case 3:
        return Json(-static_cast<std::int64_t>(rng.next() >> 1) - 1);
      case 4: return Json(randomDouble(rng));
      case 5: return Json(randomBytes(rng, 24));
      default: return Json(rng.nextRange(-1000, 1000));
    }
}

/// A tree whose containers nest at most @p depth deep. Below the top
/// eight levels the containers hold one child, so deep trees stay
/// small.
Json
randomTree(Rng &rng, int depth)
{
    if (depth == 0 || rng.nextBelow(5) == 0)
        return randomLeaf(rng);
    const std::uint64_t width = depth > 8 ? 1 : rng.nextBelow(6);
    if (rng.nextBelow(2) == 0) {
        Json a = Json::array();
        for (std::uint64_t i = 0; i < width; ++i)
            a.push(randomTree(rng, depth - 1));
        return a;
    }
    Json o = Json::object();
    for (std::uint64_t i = 0; i < width; ++i)
        o.set(randomBytes(rng, 8), randomTree(rng, depth - 1));
    return o;
}

void
expectRoundTrip(const Json &v, const std::string &what)
{
    const std::string text = v.str();
    const Json back = Json::parse(text);
    EXPECT_TRUE(back == v) << what;
    EXPECT_EQ(back.str(), text) << what;
    EXPECT_TRUE(Json::parse(v.str(0)) == v) << what;
    const Json copy = v;
    EXPECT_EQ(copy.str(), text) << what;
}

TEST(JsonGenerated, RandomTreesRoundTrip)
{
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
        Rng rng(seed);
        // Mostly bushy shallow trees; every tenth reaches the limit
        // (containers kMaxDepth - 1 deep, so leaves sit at kMaxDepth).
        const int depth = seed % 10 == 0 ? kMaxDepth - 1 : 6;
        expectRoundTrip(randomTree(rng, depth),
                        "seed " + std::to_string(seed));
    }
}

TEST(JsonGenerated, LargeNumberArraysRoundTrip)
{
    Rng rng(7);
    Json u = Json::array(), i = Json::array(), d = Json::array();
    for (unsigned k = 0; k < 10'000; ++k) {
        u.push(rng.next());
        i.push(rng.nextRange(-32768, 32767));
        d.push(randomDouble(rng));
    }
    expectRoundTrip(u, "uint64 array");
    expectRoundTrip(i, "int16-range array");
    expectRoundTrip(d, "double array");
}

TEST(JsonGenerated, NestingLimitIsExact)
{
    const auto nested = [](int depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_EQ(Json::parse(nested(kMaxDepth)).str(), nested(kMaxDepth));
    EXPECT_THROW(Json::parse(nested(kMaxDepth + 1)), JsonError);
    std::string objects;
    for (int k = 0; k < kMaxDepth + 1; ++k)
        objects += "{\"k\":";
    objects += "1" + std::string(kMaxDepth + 1, '}');
    EXPECT_THROW(Json::parse(objects), JsonError);

    // Documents cut off at the limit: which of the two errors wins.
    const std::string deeper =
        "JSON nesting deeper than " + std::to_string(kMaxDepth);
    const std::string end = "unexpected end of JSON input";
    std::string keys;
    for (int k = 0; k < kMaxDepth; ++k)
        keys += "{\"k\":";
    const struct
    {
        std::string text;
        std::string message;
    } truncated[] = {
        {std::string(kMaxDepth, '['), end},
        {std::string(kMaxDepth, '[') + " ", end},
        {std::string(kMaxDepth + 1, '['), deeper},
        {std::string(kMaxDepth, '[') + "1", deeper},
        {std::string(kMaxDepth - 1, '[') + "1", end},
        {keys, deeper},
        {keys.substr(5), end},
    };
    for (const auto &t : truncated) {
        try {
            Json::parse(t.text);
            ADD_FAILURE() << t.text << " parsed";
        } catch (const JsonError &e) {
            EXPECT_EQ(e.message(), t.message) << t.text;
        }
    }
}

TEST(JsonGenerated, MovedFromValueIsNull)
{
    Json a = Json::array().push("x").push(Json::object().set("k", 1));
    const std::string text = a.str();
    Json b = std::move(a);
    EXPECT_TRUE(a.isNull());
    EXPECT_EQ(b.str(), text);
    a = std::move(b);
    EXPECT_TRUE(b.isNull());
    EXPECT_EQ(a.str(), text);
    const Json &alias = a;
    a = alias;
    EXPECT_EQ(a.str(), text);
    b = a;
    a = Json();
    EXPECT_EQ(b.str(), text);
}

TEST(JsonNumbers, TokensKeepTheirAcceptSet)
{
    struct Accepted
    {
        const char *token;
        const char *str;
        Json::Type type;
    };
    const Accepted accepted[] = {
        {"0", "0", Json::Type::UInt},
        {"-0", "0", Json::Type::UInt},
        {"007", "7", Json::Type::UInt},
        {"-007", "-7", Json::Type::Int},
        {"18446744073709551615", "18446744073709551615",
         Json::Type::UInt},
        {"-9223372036854775808", "-9223372036854775808",
         Json::Type::Int},
        {"+1", "1", Json::Type::Double},
        {"+1.5", "1.5", Json::Type::Double},
        {".5", "0.5", Json::Type::Double},
        {"-.5", "-0.5", Json::Type::Double},
        {"5.", "5", Json::Type::Double},
        {"00.5", "0.5", Json::Type::Double},
        {"1e5", "100000", Json::Type::Double},
        {"1E+5", "100000", Json::Type::Double},
        {"1e-2", "0.01", Json::Type::Double},
        {"1e-400", "0", Json::Type::Double},
        {"4.9e-324", "4.9406564584124654e-324", Json::Type::Double},
        {"2.5e-310", "2.5000000000000171e-310", Json::Type::Double},
        {"1.7976931348623157e308", "1.7976931348623157e+308",
         Json::Type::Double},
        {"0.1", "0.10000000000000001", Json::Type::Double},
        {"-0.0", "-0", Json::Type::Double},
        {"1.0", "1", Json::Type::Double},
    };
    for (const Accepted &a : accepted) {
        const Json v = Json::parse(a.token);
        EXPECT_EQ(v.str(), a.str) << a.token;
        EXPECT_EQ(v.type(), a.type) << a.token;
    }

    struct Rejected
    {
        const char *token;
        const char *message;
    };
    const Rejected rejected[] = {
        {"18446744073709551616",
         "JSON integer out of range: 18446744073709551616"},
        {"-9223372036854775809",
         "JSON integer out of range: -9223372036854775809"},
        {"1.5e+", "invalid JSON number: 1.5e+"},
        {"1e", "invalid JSON number: 1e"},
        {"-", "invalid JSON number at offset 0"},
        {"--1", "invalid JSON number: --1"},
        {"1-", "invalid JSON number: 1-"},
        {"1-2", "invalid JSON number: 1-2"},
        {"1.2.3", "invalid JSON number: 1.2.3"},
        {"0x10", "trailing characters after JSON document at offset 1"},
        {"1e400", "invalid JSON number: 1e400"},
        {"-1e400", "invalid JSON number: -1e400"},
        {"+", "invalid JSON number: +"},
        {"+-1", "invalid JSON number: +-1"},
        {"e5", "invalid JSON number: e5"},
        {".", "invalid JSON number: ."},
        {"1..", "invalid JSON number: 1.."},
        {"1e+-5", "invalid JSON number: 1e+-5"},
    };
    for (const Rejected &r : rejected) {
        try {
            Json::parse(r.token);
            ADD_FAILURE() << r.token << " parsed";
        } catch (const JsonError &e) {
            EXPECT_EQ(e.message(), r.message) << r.token;
        }
    }
}

enum class Outcome
{
    Ok,
    JsonErr,
    ConfigErr,
};

/// Decode one request line the way the daemon does. Any exception
/// other than the two structured kinds escapes and fails the test;
/// @p error receives a structured error's message.
Outcome
decode(const std::string &line, RunSpec *out = nullptr,
       std::string *error = nullptr)
{
    try {
        const Json req = Json::parse(line);
        RunSpec spec = RunSpec::fromJson(req.at("run"));
        if (out)
            *out = std::move(spec);
        return Outcome::Ok;
    } catch (const JsonError &e) {
        if (error)
            *error = e.message();
        return Outcome::JsonErr;
    } catch (const ConfigError &e) {
        if (error)
            *error = e.message();
        return Outcome::ConfigErr;
    }
}

/// A request line with every RunSpec field set.
std::string
requestLine()
{
    RunSpec spec;
    spec.config = makeSystemConfig(2, 2);
    spec.config.fastForward = false;
    spec.programs.push_back({1, "mov.imm r1, 8\n\tst.sram r1\n\"halt\"\n"});
    Rng rng(11);
    RunSpec::DramPoke poke{0x1000, {}};
    for (unsigned k = 0; k < 300; ++k)
        poke.values.push_back(
            static_cast<std::int16_t>(rng.nextRange(-32768, 32767)));
    spec.pokes.push_back(std::move(poke));
    spec.regs.push_back({0, 3, 0xffffffffffffffffull});
    spec.maxCycles = 123'456;
    spec.budgetMs = 5000;
    Json req = Json::object();
    req.set("run", spec.toJson());
    return req.str();
}

TEST(RunSpecMalformed, EveryTruncationIsAStructuredError)
{
    const std::string line = requestLine();
    RunSpec whole;
    ASSERT_EQ(decode(line, &whole), Outcome::Ok);
    for (std::size_t k = 0; k < line.size(); ++k) {
        EXPECT_NE(decode(line.substr(0, k)), Outcome::Ok)
            << "prefix of " << k << " bytes decoded";
    }
}

TEST(RunSpecMalformed, ByteFlipsDecodeOrFailStructurally)
{
    const std::string line = requestLine();
    Rng rng(5);
    unsigned errors = 0;
    for (unsigned n = 0; n < 3000; ++n) {
        std::string flipped = line;
        const std::size_t at = rng.nextBelow(flipped.size());
        flipped[at] = static_cast<char>(
            flipped[at] ^ static_cast<char>(1 + rng.nextBelow(255)));
        RunSpec spec;
        if (decode(flipped, &spec) != Outcome::Ok) {
            ++errors;
            continue;
        }
        // A flip that still decodes is a valid spec: it re-encodes
        // to a line that decodes to the same spec.
        RunSpec again;
        Json req = Json::object();
        req.set("run", spec.toJson());
        ASSERT_EQ(decode(req.str(), &again), Outcome::Ok) << "flip " << n;
        EXPECT_TRUE(again == spec) << "flip " << n;
    }
    EXPECT_GT(errors, 0u);
}

TEST(RunSpecMalformed, HostileRequestsAreStructuredErrors)
{
    const std::string deep = std::string(kMaxDepth + 1, '[') +
                             std::string(kMaxDepth + 1, ']');
    // "islands" is a retired host knob: accepted and ignored, so a
    // spec that sets it is the spec without it (same re-encoding,
    // same fingerprint), but a malformed value is still an error.
    const std::string no_islands = "{\"run\": {\"config\": {}}}";
    const struct
    {
        std::string line;
        Outcome outcome;
        std::string errorNames = {};  ///< substring of the message
        std::string sameSpecAs = {};  ///< line decoding to an equal spec
    } cases[] = {
        {"{\"run\": {\"pokes\": " + deep + "}}", Outcome::JsonErr},
        {"{\"run\": {\"maxCycles\": 18446744073709551616}}",
         Outcome::JsonErr},
        {"{\"run\": {\"maxCycles\": -1}}", Outcome::JsonErr},
        {"{\"run\": {\"budgetMs\": 1.5}}", Outcome::JsonErr},
        {"{\"run\": {\"pokes\": [{\"addr\": 0, \"values\": [40000]}]}}",
         Outcome::ConfigErr},
        {"{\"run\": {\"pokes\": [{\"addr\": 0, \"values\": [-1e30]}]}}",
         Outcome::JsonErr},
        {"{\"run\": {\"pokes\": [{\"addr\": 0, \"values\": [1.5]}]}}",
         Outcome::JsonErr},
        {"{\"run\": {\"pokes\": [{\"addr\": 0, \"values\": [2.0]}]}}",
         Outcome::Ok},
        {"{\"run\": {\"pokes\": [{\"addr\": 0, \"values\": 7}]}}",
         Outcome::JsonErr},
        {"{\"run\": {\"regs\": [{\"pe\": 4294967296, \"reg\": 0, "
         "\"value\": 0}]}}",
         Outcome::ConfigErr},
        {"{\"run\": {\"programs\": [{\"pe\": 0, \"source\": 5}]}}",
         Outcome::JsonErr},
        {"{\"run\": {\"programs\": [{\"pe\": 0, \"source\": \"\\ud800\"}]}}",
         Outcome::JsonErr},
        {"{\"run\": {\"programs\": [{\"pe\": 0, \"source\": \"\\udc00\"}]}}",
         Outcome::JsonErr},
        {"{\"run\": {\"programs\": [{\"pe\": 0, "
         "\"source\": \"\\ud800\\u0041\"}]}}",
         Outcome::JsonErr},
        {"{\"run\": {\"programs\": [{\"pe\": 0, \"source\": \"\\ud800x\"}]}}",
         Outcome::JsonErr},
        {"{\"run\": {\"programs\": [{\"pe\": 0, "
         "\"source\": \"\\ud83d\\ude00\"}]}}",
         Outcome::Ok},
        {"{\"run\": {\"bogus\": 1}}", Outcome::ConfigErr},
        {"{\"run\": {\"config\": {\"bogus\": 1}}}", Outcome::ConfigErr,
         "bogus"},
        {"{\"run\": {\"config\": {\"islands\": 4}}}", Outcome::Ok, "",
         no_islands},
        {"{\"run\": {\"config\": {\"islands\": \"x\"}}}",
         Outcome::ConfigErr, "islands"},
        {"{\"run\": {\"config\": {\"islands\": -1}}}",
         Outcome::ConfigErr, "islands"},
        // Values past their field's width are errors, never wrapped
        // into a smaller machine that shares the smaller one's key.
        {"{\"run\": {\"config\": {\"mem\": {\"geom\": "
         "{\"vaults\": 4294967297}}}}}",
         Outcome::ConfigErr, "mem.geom.vaults"},
        {"{\"run\": {\"config\": {\"pesPerVault\": 4294967297}}}",
         Outcome::ConfigErr, "pesPerVault"},
        {"{\"run\": {\"config\": {\"nocX\": 4294967296}}}",
         Outcome::ConfigErr, "nocX"},
        {"{\"run\": {\"config\": {\"pe\": "
         "{\"lsqEntries\": 4294967296}}}}",
         Outcome::ConfigErr, "pe.lsqEntries"},
        {"{\"run\": []}", Outcome::JsonErr},
        {"{\"cmd\": \"stats\"}", Outcome::JsonErr},
        {"", Outcome::JsonErr},
    };
    for (const auto &c : cases) {
        RunSpec spec;
        std::string error;
        EXPECT_EQ(decode(c.line, &spec, &error), c.outcome) << c.line;
        EXPECT_NE(error.find(c.errorNames), std::string::npos)
            << c.line << ": " << error;
        if (c.sameSpecAs.empty())
            continue;
        RunSpec same;
        ASSERT_EQ(decode(c.sameSpecAs, &same), Outcome::Ok);
        EXPECT_EQ(spec.toJson().str(), same.toJson().str()) << c.line;
        EXPECT_EQ(spec.fingerprint(), same.fingerprint()) << c.line;
    }
}

TEST(RunSpecMalformed, PokesOutsideTheDramAreConfigErrors)
{
    // buildSimulation() checks each poke's bytes [addr, addr + 2n)
    // against the machine's capacity, the bound a PE's own transfers
    // meet, without letting addr + 2n wrap. These used to abort the
    // daemon (past the 64 GiB page table) or be staged silently
    // (between the capacity and 64 GiB).
    const std::uint64_t cap = RunSpec{}.config.mem.geom.capacity();
    const auto poke = [](std::uint64_t addr, const std::string &values) {
        return "{\"run\": {\"pokes\": [{\"addr\": " +
               std::to_string(addr) + ", \"values\": " + values + "}]}}";
    };
    const struct
    {
        std::string line;
        bool ok;
    } cases[] = {
        {poke(std::uint64_t{1} << 36, "[1]"), false},
        {poke(~std::uint64_t{0} - 1, "[1, 2]"), false},  // 2^64 - 2
        {poke(cap - 2, "[1, 2]"), false},                // straddles
        {poke(cap, "[1]"), false},
        {poke(cap - 3, "[1, 2]"), false},
        {poke(cap - 2, "[1]"), true},  // the last word
        {poke(cap - 4, "[1, 2]"), true},
        {poke(0, "[1, 2]"), true},
    };
    for (const auto &c : cases) {
        RunSpec spec;
        ASSERT_EQ(decode(c.line, &spec), Outcome::Ok) << c.line;
        try {
            buildSimulation(spec);
            EXPECT_TRUE(c.ok) << c.line;
        } catch (const ConfigError &e) {
            EXPECT_FALSE(c.ok) << c.line << ": " << e.message();
            EXPECT_NE(e.message().find("pokes[].addr"), std::string::npos)
                << e.message();
        }
    }
}

} // namespace
} // namespace vip
