/**
 * @file
 * A minimal JSON value type for the simulator's wire formats.
 *
 * The serve protocol, `RunSpec`, and `SystemConfig` all need to
 * round-trip structured data through text, and the container bakes in
 * no JSON dependency — so this is a deliberately small, deterministic
 * implementation:
 *
 *  - **Deterministic emission.** Object keys are stored in a std::map
 *    and always emitted sorted; integers print in decimal and doubles
 *    through "%.17g" (shortest round-trippable form gcc produces).
 *    Two equal values therefore serialize to identical bytes — the
 *    property the serve result cache's byte-identical-response
 *    guarantee and `RunSpec::fingerprint()` stand on.
 *  - **64-bit-clean numbers.** JSON numbers without a fraction or
 *    exponent parse as unsigned/signed 64-bit integers, not doubles,
 *    so a register value like 0xffffffffffffffff survives the trip.
 *  - **Structured failure.** Parse errors and type mismatches throw
 *    JsonError (a SimError with kind "json"), so the serve loop turns
 *    a malformed request line into an `{"error": ...}` response the
 *    same way it handles a bad config.
 *
 * Not supported (not needed here): duplicate object keys (last one
 * wins), non-BMP \u escapes beyond surrogate pairs, numbers outside
 * the uint64/int64/double ranges.
 *
 * Layout: a Json is 16 bytes — a type tag plus a union holding a
 * scalar inline or an owning pointer to its string, Array or Object.
 * A request line is mostly number arrays, so the size of one number
 * sets the cost of parsing and hashing a spec. Copies are deep; moves
 * steal the pointer and are noexcept, so Array growth moves.
 */

#ifndef VIP_SIM_JSON_HH
#define VIP_SIM_JSON_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/error.hh"

namespace vip {

/** Malformed JSON text or a type/shape mismatch during decode. */
class JsonError : public SimError
{
  public:
    explicit JsonError(std::string message)
        : SimError("json", std::move(message))
    {}
};

class Json
{
  public:
    enum class Type
    {
        Null,
        Bool,
        UInt,   ///< non-negative integer (uint64 range)
        Int,    ///< negative integer (int64 range)
        Double,
        String,
        Array,
        Object,
    };

    using Array = std::vector<Json>;
    using Object = std::map<std::string, Json>;

    Json() = default;
    Json(std::nullptr_t) noexcept {}
    Json(bool b) noexcept : type_(Type::Bool) { u_.b = b; }
    Json(std::uint64_t v) noexcept : type_(Type::UInt) { u_.u = v; }
    Json(std::int64_t v) noexcept
    {
        if (v < 0) {
            type_ = Type::Int;
            u_.i = v;
        } else {
            type_ = Type::UInt;
            u_.u = static_cast<std::uint64_t>(v);
        }
    }
    Json(int v) noexcept : Json(static_cast<std::int64_t>(v)) {}
    Json(unsigned v) noexcept : Json(static_cast<std::uint64_t>(v)) {}
    Json(unsigned long long v) noexcept
        : Json(static_cast<std::uint64_t>(v))
    {}
    Json(double v) noexcept : type_(Type::Double) { u_.d = v; }
    Json(std::string s) : type_(Type::String)
    {
        u_.s = new std::string(std::move(s));
    }
    Json(const char *s) : type_(Type::String) { u_.s = new std::string(s); }
    /** Take over a built array or object. */
    explicit Json(Array a) : type_(Type::Array)
    {
        u_.a = new Array(std::move(a));
    }
    explicit Json(Object o) : type_(Type::Object)
    {
        u_.o = new Object(std::move(o));
    }

    Json(const Json &o);
    Json(Json &&o) noexcept : type_(o.type_), u_(o.u_)
    {
        o.type_ = Type::Null;
    }
    Json &operator=(const Json &o);
    Json &operator=(Json &&o) noexcept;
    ~Json() { release(); }

    static Json
    array()
    {
        Json j;
        j.u_.a = new Array();
        j.type_ = Type::Array;
        return j;
    }

    static Json
    object()
    {
        Json j;
        j.u_.o = new Object();
        j.type_ = Type::Object;
        return j;
    }

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool
    isNumber() const
    {
        return type_ == Type::UInt || type_ == Type::Int ||
               type_ == Type::Double;
    }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Typed accessors; throw JsonError on a mismatch (integral
     *  doubles are accepted by the integer accessors and vice versa,
     *  so "1.0" and "1" decode interchangeably). */
    bool asBool() const;
    std::uint64_t
    asU64() const
    {
        return type_ == Type::UInt ? u_.u : convertU64();
    }
    std::int64_t
    asI64() const
    {
        // Int holds only negative values, so an integer fits int64
        // exactly when its tag matches its sign bit: one compare, not a
        // branch on a sign that follows no pattern.
        if (type_ == (u_.i < 0 ? Type::Int : Type::UInt))
            return u_.i;
        return convertI64();
    }
    double asDouble() const;
    const std::string &asString() const;

    const Array &asArray() const;
    const Object &asObject() const;

    /** Object lookup; null when absent (or not an object). */
    const Json *find(const std::string &key) const;

    /** Object lookup; throws JsonError when the key is absent. */
    const Json &at(const std::string &key) const;

    /** Object insert/overwrite; converts a Null value to an Object. */
    Json &set(const std::string &key, Json value);

    /** Array append; converts a Null value to an Array. */
    Json &push(Json value);

    std::size_t
    size() const
    {
        return isArray() ? u_.a->size() : isObject() ? u_.o->size() : 0;
    }

    bool operator==(const Json &o) const;
    bool operator!=(const Json &o) const { return !(*this == o); }

    /**
     * Serialize. @p indent < 0 emits the compact single-line form
     * (the wire format: JSON-lines requires no embedded newlines);
     * @p indent >= 0 pretty-prints with 2-space indentation starting
     * at that depth. Keys always emit in sorted order.
     */
    std::string str(int indent = -1) const;

    /** Write str(indent) to @p os. */
    void dump(std::ostream &os, int indent = -1) const;

    /** Parse one JSON document; trailing garbage throws JsonError. */
    static Json parse(const std::string &text);

  private:
    friend class JsonParser;  // builds values in place

    /** asU64()/asI64() of any other type: integral doubles convert,
     *  the rest throw. */
    std::uint64_t convertU64() const;
    std::int64_t convertI64() const;

    /** Append the serialization to @p out: the one writer behind
     *  str() and dump(). */
    void write(std::string &out, int indent) const;

    /** Free the owned string/container, if any (type_ is left
     *  stale: callers reassign it). */
    void release() noexcept;

    Type type_ = Type::Null;
    union
    {
        bool b;
        std::uint64_t u;
        std::int64_t i;
        double d;
        std::string *s;
        Array *a;
        Object *o;
    } u_{};
};

/** Append @p s as a quoted, escaped JSON string: the string encoding
 *  of str(), for encoders that write canonical JSON text directly. */
void appendJsonString(std::string &out, std::string_view s);

/** The FNV-1a offset basis: the hash of no bytes. */
inline constexpr std::uint64_t kFnv1aSeed = 0xcbf29ce484222325ULL;

/** FNV-1a over @p text, the repo's standard content-hash primitive
 *  (the same scheme DramStorage::fingerprint applies per page). Pass a
 *  previous result as @p seed to hash text that arrives in pieces. */
inline std::uint64_t
fnv1a(std::string_view text, std::uint64_t seed = kFnv1aSeed)
{
    std::uint64_t h = seed;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace vip

#endif // VIP_SIM_JSON_HH
