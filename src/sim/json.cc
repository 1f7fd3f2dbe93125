#include "sim/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace vip {

static_assert(sizeof(Json) == 16, "a Json is a tag and one 8-byte word");

namespace {

template <typename T>
void
writeInteger(std::string &out, T v)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

[[noreturn]] void
fail(const std::string &what)
{
    throw JsonError(what);
}

const char *
typeName(Json::Type t)
{
    switch (t) {
      case Json::Type::Null: return "null";
      case Json::Type::Bool: return "bool";
      case Json::Type::UInt:
      case Json::Type::Int: return "integer";
      case Json::Type::Double: return "number";
      case Json::Type::String: return "string";
      case Json::Type::Array: return "array";
      case Json::Type::Object: return "object";
    }
    return "?";
}

} // namespace

/**
 * One-pass recursive-descent parser over the request line. It walks a
 * pointer and uses the string's terminating NUL as a sentinel: every
 * scan stops at a byte outside its class, and only a NUL is checked
 * against the end, to tell the end of the input from an embedded NUL.
 */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text)
        : begin_(text.c_str()), end_(begin_ + text.size()), p_(begin_)
    {}

    Json
    document()
    {
        Json v = value();
        skipWs();
        if (p_ != end_)
            fail("trailing characters after JSON document at offset " +
                 std::to_string(offset()));
        return v;
    }

  private:
    static constexpr int kMaxDepth = 64;

    std::size_t offset() const { return static_cast<std::size_t>(p_ - begin_); }

    /** Fail with the end-of-input message when the cursor is at the
     *  end (an unexpected byte there is the sentinel NUL). */
    void
    checkEnd() const
    {
        if (p_ == end_)
            fail("unexpected end of JSON input");
    }

    void
    skipWs()
    {
        while (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')
            ++p_;
    }

    void
    literal(const char *word)
    {
        for (const char *w = word; *w; ++w, ++p_) {
            if (*p_ != *w)
                fail(std::string("invalid JSON literal (expected '") +
                     word + "')");
        }
    }

    /** One value; every value, scalars included, counts as a nesting
     *  level. */
    Json
    value()
    {
        if (depth_ == kMaxDepth)
            fail("JSON nesting deeper than " + std::to_string(kMaxDepth));
        skipWs();
        switch (*p_) {
          case '{': return object();
          case '[': return array();
          case '"': return Json(string());
          case 't': literal("true"); return Json(true);
          case 'f': literal("false"); return Json(false);
          case 'n': literal("null"); return Json();
          case '\0': checkEnd(); break;
          default: break;
        }
        Json out;
        number(out);
        return out;
    }

    Json
    object()
    {
        ++depth_;
        ++p_;  // '{'
        Json::Object obj;
        skipWs();
        if (*p_ != '}') {
            for (;;) {
                skipWs();
                if (*p_ != '"') {
                    checkEnd();
                    fail("expected string key in JSON object at offset " +
                         std::to_string(offset()));
                }
                std::string key = string();
                skipWs();
                if (*p_ != ':') {
                    checkEnd();
                    fail("expected ':' after JSON object key \"" + key +
                         "\"");
                }
                ++p_;
                // Canonical text has sorted keys, so the end is the
                // right hint; a duplicate key keeps the last value.
                obj.insert_or_assign(obj.end(), std::move(key), value());
                skipWs();
                if (*p_ == '}')
                    break;
                if (*p_ != ',') {
                    checkEnd();
                    fail("expected ',' or '}' in JSON object at offset " +
                         std::to_string(offset()));
                }
                ++p_;
            }
        }
        ++p_;  // '}'
        --depth_;
        return Json(std::move(obj));
    }

    Json
    array()
    {
        ++depth_;
        ++p_;  // '['
        Json::Array arr;
        skipWs();
        // "[" cut off at the end is an end-of-input error even at the
        // nesting limit, where value() would report the depth first.
        checkEnd();
        if (*p_ != ']') {
            for (;;) {
                arr.push_back(value());
                skipWs();
                if (*p_ == ']')
                    break;
                if (*p_ != ',') {
                    checkEnd();
                    fail("expected ',' or ']' in JSON array at offset " +
                         std::to_string(offset()));
                }
                ++p_;
            }
        }
        ++p_;  // ']'
        --depth_;
        return Json(std::move(arr));
    }

    std::string
    string()
    {
        ++p_;  // '"'
        std::string out;
        for (;;) {
            // Copy the run up to the next quote or escape whole.
            const char *run = p_;
            for (char c; (c = *p_) != '"' && c != '\\'; ++p_) {
                if (c == '\0')
                    checkEnd();
            }
            out.append(run, p_);
            if (*p_++ == '"')
                return out;
            checkEnd();
            const char esc = *p_++;
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': unicodeEscape(out); break;
              default:
                fail(std::string("invalid JSON escape '\\") + esc + "'");
            }
        }
    }

    unsigned
    hex4()
    {
        unsigned v = 0;
        for (int k = 0; k < 4; ++k) {
            checkEnd();
            const char c = *p_++;
            v <<= 4;
            if (c >= '0' && c <= '9')
                v |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v |= static_cast<unsigned>(c - 'A' + 10);
            else
                fail("invalid \\u escape in JSON string");
        }
        return v;
    }

    /** Decode the \u escape after "\u" and append it as UTF-8. */
    void
    unicodeEscape(std::string &out)
    {
        unsigned cp = hex4();
        if (cp >= 0xd800 && cp <= 0xdbff) {
            // High surrogate: a low surrogate must follow.
            if (p_[0] != '\\' || p_[1] != 'u')
                fail("unpaired surrogate in JSON string");
            p_ += 2;
            const unsigned lo = hex4();
            if (lo < 0xdc00 || lo > 0xdfff)
                fail("unpaired surrogate in JSON string");
            cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
        } else if (cp >= 0xdc00 && cp <= 0xdfff) {
            fail("unpaired surrogate in JSON string");
        }
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    static bool
    numberChar(char c)
    {
        return (c >= '0' && c <= '9') || c == '.' || c == 'e' ||
               c == 'E' || c == '+' || c == '-';
    }

    /**
     * A number token is the longest run of [0-9.eE+-] after an
     * optional '-'. Integers (-?[0-9]+) convert as they are scanned,
     * straight into @p out (a null value), with no branch on the sign;
     * any other token, and every malformed one, leaves through
     * numberRest() behind a single branch.
     */
    void
    number(Json &out)
    {
        const char *start = p_;
        const char *p = start;
        const bool negative = *p == '-';
        p += negative;
        const char *digits = p;
        constexpr std::uint64_t kMax = UINT64_MAX;
        constexpr std::uint64_t kMinMagnitude = std::uint64_t{1} << 63;
        std::uint64_t u = 0;
        bool overflow = false;
        for (unsigned d; (d = static_cast<unsigned char>(*p) - 48u) <= 9;
             ++p) {
            if (u < kMax / 10 || (u == kMax / 10 && d <= kMax % 10))
                u = u * 10 + d;
            else
                overflow = true;
        }
        p_ = p;
        if (numberChar(*p) | (p == digits) | overflow |
            (negative & (u > kMinMagnitude))) {
            numberRest(out, start, p == digits);
            return;
        }
        // "-0" is the integer 0, like every other non-negative value.
        out.type_ = negative & (u != 0) ? Json::Type::Int : Json::Type::UInt;
        out.u_.u = negative ? 0 - u : u;
    }

    /** The rest of number() from @p start: a non-integer token through
     *  strtod on a NUL-terminated copy (strtod on the line itself could
     *  read past the token, e.g. a hex float after a '+'), or the
     *  error for an empty or out-of-range one. */
    [[gnu::noinline]] void
    numberRest(Json &out, const char *start, bool no_digits)
    {
        if (numberChar(*p_)) {
            while (numberChar(*p_))
                ++p_;
            const std::string tok(start, p_);
            char *end = nullptr;
            const double v = std::strtod(tok.c_str(), &end);
            if (end != tok.c_str() + tok.size() || !std::isfinite(v))
                fail("invalid JSON number: " + tok);
            out = Json(v);
            return;
        }
        if (no_digits)
            fail("invalid JSON number at offset " +
                 std::to_string(static_cast<std::size_t>(start - begin_)));
        fail("JSON integer out of range: " + std::string(start, p_));
    }

    const char *const begin_;
    const char *const end_;
    const char *p_;
    int depth_ = 0;
};

void
appendJsonString(std::string &out, std::string_view s)
{
    out += '"';
    // Append runs of plain bytes whole; only escapes go byte by byte.
    std::size_t plain = 0;
    for (std::size_t k = 0; k < s.size(); ++k) {
        const unsigned char c = static_cast<unsigned char>(s[k]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s, plain, k - plain);
        plain = k + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default: {
            const char esc[] = {'\\', 'u', '0', '0',
                                "0123456789abcdef"[c >> 4],
                                "0123456789abcdef"[c & 0xf]};
            out.append(esc, sizeof(esc));
          }
        }
    }
    out.append(s, plain, std::string_view::npos);
    out += '"';
}

Json::Json(const Json &o) : type_(o.type_), u_(o.u_)
{
    switch (type_) {
      case Type::String: u_.s = new std::string(*o.u_.s); break;
      case Type::Array: u_.a = new Array(*o.u_.a); break;
      case Type::Object: u_.o = new Object(*o.u_.o); break;
      default: break;
    }
}

Json &
Json::operator=(const Json &o)
{
    if (this != &o)
        *this = Json(o);
    return *this;
}

Json &
Json::operator=(Json &&o) noexcept
{
    // Detach @p o before releasing, in case it lives inside this
    // value.
    const Type t = o.type_;
    const auto u = o.u_;
    o.type_ = Type::Null;
    release();
    type_ = t;
    u_ = u;
    return *this;
}

void
Json::release() noexcept
{
    switch (type_) {
      case Type::String: delete u_.s; break;
      case Type::Array: delete u_.a; break;
      case Type::Object: delete u_.o; break;
      default: break;
    }
}

bool
Json::asBool() const
{
    if (type_ != Type::Bool)
        fail(std::string("expected bool, got ") + typeName(type_));
    return u_.b;
}

std::uint64_t
Json::convertU64() const
{
    switch (type_) {
      case Type::UInt:
        return u_.u;
      case Type::Int:
        fail("expected non-negative integer, got " +
             std::to_string(u_.i));
      case Type::Double:
        if (u_.d >= 0 && u_.d <= 1.8446744073709550e19 &&
            u_.d == std::floor(u_.d))
            return static_cast<std::uint64_t>(u_.d);
        fail("expected non-negative integer, got non-integral number");
      default:
        fail(std::string("expected integer, got ") + typeName(type_));
    }
}

std::int64_t
Json::convertI64() const
{
    switch (type_) {
      case Type::UInt:
        if (u_.u > 0x7fffffffffffffffULL)
            fail("integer out of int64 range: " + std::to_string(u_.u));
        return static_cast<std::int64_t>(u_.u);
      case Type::Int:
        return u_.i;
      case Type::Double:
        if (u_.d == std::floor(u_.d) && u_.d >= -9.2233720368547758e18 &&
            u_.d <= 9.2233720368547758e18)
            return static_cast<std::int64_t>(u_.d);
        fail("expected integer, got non-integral number");
      default:
        fail(std::string("expected integer, got ") + typeName(type_));
    }
}

double
Json::asDouble() const
{
    switch (type_) {
      case Type::UInt: return static_cast<double>(u_.u);
      case Type::Int: return static_cast<double>(u_.i);
      case Type::Double: return u_.d;
      default:
        fail(std::string("expected number, got ") + typeName(type_));
    }
}

const std::string &
Json::asString() const
{
    if (type_ != Type::String)
        fail(std::string("expected string, got ") + typeName(type_));
    return *u_.s;
}

const Json::Array &
Json::asArray() const
{
    if (type_ != Type::Array)
        fail(std::string("expected array, got ") + typeName(type_));
    return *u_.a;
}

const Json::Object &
Json::asObject() const
{
    if (type_ != Type::Object)
        fail(std::string("expected object, got ") + typeName(type_));
    return *u_.o;
}

const Json *
Json::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    const auto it = u_.o->find(key);
    return it == u_.o->end() ? nullptr : &it->second;
}

const Json &
Json::at(const std::string &key) const
{
    const Json *v = find(key);
    if (!v)
        fail("missing required key \"" + key + "\"");
    return *v;
}

Json &
Json::set(const std::string &key, Json value)
{
    if (type_ == Type::Null)
        *this = object();
    if (type_ != Type::Object)
        fail(std::string("set() on a ") + typeName(type_));
    (*u_.o)[key] = std::move(value);
    return *this;
}

Json &
Json::push(Json value)
{
    if (type_ == Type::Null)
        *this = array();
    if (type_ != Type::Array)
        fail(std::string("push() on a ") + typeName(type_));
    u_.a->push_back(std::move(value));
    return *this;
}

bool
Json::operator==(const Json &o) const
{
    if (isNumber() && o.isNumber()) {
        // Integers compare exactly when both sides are integral so
        // uint64 values beyond 2^53 don't collapse through double.
        const bool li = type_ != Type::Double;
        const bool ri = o.type_ != Type::Double;
        if (li && ri) {
            if ((type_ == Type::Int) != (o.type_ == Type::Int))
                return false;
            return type_ == Type::Int ? u_.i == o.u_.i : u_.u == o.u_.u;
        }
        return asDouble() == o.asDouble();
    }
    if (type_ != o.type_)
        return false;
    switch (type_) {
      case Type::Null: return true;
      case Type::Bool: return u_.b == o.u_.b;
      case Type::String: return *u_.s == *o.u_.s;
      case Type::Array: return *u_.a == *o.u_.a;
      case Type::Object: return *u_.o == *o.u_.o;
      default: return true;  // numbers handled above
    }
}

void
Json::write(std::string &out, int indent) const
{
    switch (type_) {
      case Type::Null:
        out += "null";
        return;
      case Type::Bool:
        out += u_.b ? "true" : "false";
        return;
      case Type::UInt:
        writeInteger(out, u_.u);
        return;
      case Type::Int:
        writeInteger(out, u_.i);
        return;
      case Type::Double: {
        if (!std::isfinite(u_.d)) {
            out += "null";  // JSON has no NaN/Inf
            return;
        }
        char buf[32];
        const int n = std::snprintf(buf, sizeof(buf), "%.17g", u_.d);
        out.append(buf, static_cast<std::size_t>(n));
        return;
      }
      case Type::String:
        appendJsonString(out, *u_.s);
        return;
      case Type::Array:
      case Type::Object:
        break;
    }
    const bool is_array = type_ == Type::Array;
    if (size() == 0) {
        out += is_array ? "[]" : "{}";
        return;
    }
    const bool pretty = indent >= 0;
    const int inner = pretty ? indent + 1 : -1;
    out += is_array ? '[' : '{';
    bool first = true;
    const auto separate = [&] {
        if (!first)
            out += ',';
        first = false;
        if (pretty) {
            out += '\n';
            out.append(static_cast<std::size_t>(inner) * 2, ' ');
        }
    };
    if (is_array) {
        for (const Json &v : *u_.a) {
            separate();
            v.write(out, inner);
        }
    } else {
        for (const auto &[key, val] : *u_.o) {
            separate();
            appendJsonString(out, key);
            out += pretty ? ": " : ":";
            val.write(out, inner);
        }
    }
    if (pretty) {
        out += '\n';
        out.append(static_cast<std::size_t>(indent) * 2, ' ');
    }
    out += is_array ? ']' : '}';
}

std::string
Json::str(int indent) const
{
    std::string out;
    write(out, indent);
    return out;
}

void
Json::dump(std::ostream &os, int indent) const
{
    os << str(indent);
}

Json
Json::parse(const std::string &text)
{
    return JsonParser(text).document();
}

} // namespace vip
