/**
 * @file
 * Tests for the simulation substrate: statistics, histograms, the
 * deterministic RNG, the exception classifier, type conversions, the
 * JSON writer's exact bytes, and the sweep engine's worker bound.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/error.hh"
#include "sim/histogram.hh"
#include "sim/json.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/sweep.hh"
#include "sim/types.hh"

namespace vip {
namespace {

TEST(Types, CycleConversions)
{
    EXPECT_EQ(nsToCycles(0.8), 1u);    // tCK
    EXPECT_EQ(nsToCycles(13.75), 18u); // tCL rounds up
    EXPECT_EQ(nsToCycles(27.5), 35u);  // tRAS
    EXPECT_EQ(nsToCycles(1950.0), 2438u);
    EXPECT_NEAR(cyclesToMs(1'250'000), 1.0, 1e-9);
}

TEST(Stats, CountersAndDump)
{
    StatGroup root("root");
    StatGroup child("child", &root);
    Counter a(&root, "a", "counter a");
    Counter b(&child, "b", "counter b");
    a += 5;
    ++a;
    b += 2;

    EXPECT_EQ(a.value(), 6u);

    std::ostringstream os;
    root.dump(os);
    EXPECT_EQ(os.str(), "root.a 6 # counter a\n"
                        "root.child.b 2 # counter b\n");
}

TEST(Histogram, BucketsAndPercentiles)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    for (unsigned i = 0; i < 99; ++i)
        h.sample(10);
    h.sample(5000);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.max(), 5000u);
    EXPECT_NEAR(h.mean(), (99 * 10 + 5000) / 100.0, 1e-9);
    // 99% of samples fit under the bucket containing 10.
    EXPECT_LE(h.percentileBound(0.99), 16u);
    h.reset();
    EXPECT_EQ(h.count(), 0u);

    // Bucket edges: a lone sample's bucket is [2^(b-1), 2^b), reported
    // by its upper bound 2^b; the last bucket takes everything from
    // 2^30 up.
    const std::pair<std::uint64_t, std::uint64_t> edges[] = {
        {0, 1},
        {1, 2},
        {2, 4},
        {3, 4},
        {(1ull << 30) - 1, 1ull << 30},
        {1ull << 30, 1ull << 31},
        {1ull << 31, 1ull << 31},
        {UINT64_MAX, 1ull << 31},
    };
    for (const auto &[v, bound] : edges) {
        Histogram one;
        one.sample(v);
        EXPECT_EQ(one.percentileBound(1.0), bound) << "sample " << v;
        EXPECT_EQ(one.max(), v);
    }
}

TEST(Rng, DeterministicAndUniform)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        const auto va = a.next();
        EXPECT_EQ(va, b.next());
        (void)c.next();
    }
    Rng d(42), e(43);
    EXPECT_NE(d.next(), e.next());

    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        const auto v = r.nextBelow(10);
        EXPECT_LT(v, 10u);
        const auto s = r.nextRange(-5, 5);
        EXPECT_GE(s, -5);
        EXPECT_LE(s, 5);
        const double f = r.nextDouble();
        EXPECT_GE(f, 0.0);
        EXPECT_LT(f, 1.0);
    }

    // Rough uniformity: each decile of nextBelow(10) within 3x of
    // expectation over 10k draws.
    unsigned hist[10] = {};
    Rng u(11);
    for (int i = 0; i < 10000; ++i)
        ++hist[u.nextBelow(10)];
    for (unsigned dec : hist) {
        EXPECT_GT(dec, 1000u / 3);
        EXPECT_LT(dec, 3000u);
    }
}

/// currentError() of whatever @p thrower throws.
template <typename F>
SimError
classify(F thrower)
{
    try {
        thrower();
    } catch (...) {
        return currentError();
    }
    ADD_FAILURE() << "nothing was thrown";
    return SimError("", "");
}

TEST(CurrentError, NamesEveryFailure)
{
    const SimError deadlock =
        classify([] { throw DeadlockError("wedged", "pe0 stalled"); });
    EXPECT_EQ(deadlock.kind(), "deadlock");
    EXPECT_EQ(deadlock.message(), "wedged");
    EXPECT_EQ(deadlock.detail(), "pe0 stalled");

    const SimError oom = classify([] { throw std::bad_alloc(); });
    EXPECT_EQ(oom.kind(), "transient");
    EXPECT_EQ(oom.message(), std::bad_alloc().what());

    const SimError other =
        classify([] { throw std::out_of_range("index 9"); });
    EXPECT_EQ(other.kind(), "exception");
    EXPECT_EQ(other.message(), "index 9");
    EXPECT_EQ(other.detail(), "");

    const SimError unknown = classify([] { throw 42; });
    EXPECT_EQ(unknown.kind(), "unknown");
    EXPECT_EQ(unknown.message(), "non-exception object thrown");
}

/// One value of every JSON type: the integer extremes, doubles that
/// need all 17 digits, non-finite doubles (emitted as null), every
/// string escape, and empty and nested containers.
Json
wireSample()
{
    std::string escapes = "\"\\/\b\f\n\r\t\x01";
    escapes += '\x1f';
    escapes += '\x7f';
    escapes += '\0';
    escapes += "end";
    Json nested = Json::object();
    nested.set("list", Json::array()
                           .push(1)
                           .push(Json::array().push(Json::array()))
                           .push(Json::object().set("k", Json::object())));
    nested.set("empty", "");
    Json j = Json::object();
    j.set("u64max", std::uint64_t{UINT64_MAX});
    j.set("i64min", std::int64_t{INT64_MIN});
    j.set("zero", 0);
    j.set("minusOne", -1);
    j.set("tenth", 0.1);
    j.set("huge", 1e300);
    j.set("negHalf", -0.5);
    j.set("nan", std::nan(""));
    j.set("inf", HUGE_VAL);
    j.set("yes", true);
    j.set("no", false);
    j.set("nothing", nullptr);
    j.set("escapes", escapes);
    j.set("utf8", "caf\xc3\xa9");
    j.set("emptyArray", Json::array());
    j.set("emptyObject", Json::object());
    j.set("nested", std::move(nested));
    return j;
}

// These bytes feed the serve cache keys, the responses' "key" fields
// and journal lines: a change to any of them is a wire change.

TEST(JsonWire, CompactBytesArePinned)
{
    const std::string expected =
        "{\"emptyArray\":[],\"emptyObject\":{},"
        "\"escapes\":\"\\\"\\\\/\\b\\f\\n\\r\\t\\u0001\\u001f\x7f"
        "\\u0000end\",\"huge\":1.0000000000000001e+300,"
        "\"i64min\":-9223372036854775808,\"inf\":null,\"minusOne\":-1,"
        "\"nan\":null,\"negHalf\":-0.5,"
        "\"nested\":{\"empty\":\"\",\"list\":[1,[[]],{\"k\":{}}]},"
        "\"no\":false,\"nothing\":null,\"tenth\":0.10000000000000001,"
        "\"u64max\":18446744073709551615,\"utf8\":\"caf\xc3\xa9\","
        "\"yes\":true,\"zero\":0}";
    const Json j = wireSample();
    EXPECT_EQ(j.str(), expected);
    std::ostringstream os;
    j.dump(os);
    EXPECT_EQ(os.str(), expected);
}

TEST(JsonWire, PrettyBytesArePinned)
{
    const std::string body =
        "  \"emptyArray\": [],\n"
        "  \"emptyObject\": {},\n"
        "  \"escapes\": \"\\\"\\\\/\\b\\f\\n\\r\\t\\u0001\\u001f\x7f"
        "\\u0000end\",\n"
        "  \"huge\": 1.0000000000000001e+300,\n"
        "  \"i64min\": -9223372036854775808,\n"
        "  \"inf\": null,\n"
        "  \"minusOne\": -1,\n"
        "  \"nan\": null,\n"
        "  \"negHalf\": -0.5,\n"
        "  \"nested\": {\n"
        "    \"empty\": \"\",\n"
        "    \"list\": [\n"
        "      1,\n"
        "      [\n"
        "        []\n"
        "      ],\n"
        "      {\n"
        "        \"k\": {}\n"
        "      }\n"
        "    ]\n"
        "  },\n"
        "  \"no\": false,\n"
        "  \"nothing\": null,\n"
        "  \"tenth\": 0.10000000000000001,\n"
        "  \"u64max\": 18446744073709551615,\n"
        "  \"utf8\": \"caf\xc3\xa9\",\n"
        "  \"yes\": true,\n"
        "  \"zero\": 0\n";
    const Json j = wireSample();
    EXPECT_EQ(j.str(0), "{\n" + body + "}");

    // indent = 2 starts two levels deep: the opening brace is not
    // indented, every line after it is shifted by four spaces.
    std::string shifted;
    std::size_t start = 0;
    while (start < body.size()) {
        const std::size_t nl = body.find('\n', start);
        shifted += "    " + body.substr(start, nl + 1 - start);
        start = nl + 1;
    }
    EXPECT_EQ(j.str(2), "{\n" + shifted + "    }");
    std::ostringstream os;
    j.dump(os, 2);
    EXPECT_EQ(os.str(), j.str(2));
}

TEST(JsonWire, TopLevelScalarsAndEmptyContainersArePinned)
{
    // wireSample() only holds values inside an object; an indent adds
    // no whitespace around a top-level scalar or an empty container.
    EXPECT_EQ(Json().str(), "null");
    EXPECT_EQ(Json(std::int64_t{-7}).str(0), "-7");
    EXPECT_EQ(Json(-HUGE_VAL).str(2), "null");
    EXPECT_EQ(Json("x").str(0), "\"x\"");
    EXPECT_EQ(Json::array().str(0), "[]");
    EXPECT_EQ(Json::array().str(2), "[]");
    EXPECT_EQ(Json::object().str(0), "{}");
    EXPECT_EQ(Json::object().str(2), "{}");
    EXPECT_EQ(Json::array().push(Json::object()).str(0), "[\n  {}\n]");
}

TEST(SweepEngine, RefusesMoreWorkersThanTheBound)
{
    // One past the bound only: an engine with a large count would start
    // that many threads wherever the bound fails to hold.
    try {
        SweepEngine engine(SweepEngine::kMaxJobs + 1);
        FAIL() << "an engine of " << engine.jobs() << " workers started";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.message(),
                  "a sweep engine takes at most 256 workers, not 257");
    }
    EXPECT_GE(SweepEngine::hardwareJobs(), 1u);
    EXPECT_LE(SweepEngine::hardwareJobs(), SweepEngine::kMaxJobs);
}

} // namespace
} // namespace vip
