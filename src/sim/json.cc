#include "sim/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace vip {

static_assert(sizeof(Json) == 16, "a Json is a tag and one 8-byte word");

namespace {

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

void
writeString(std::string &out, const std::string &s)
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
    out.append(s, plain, std::string::npos);
    out += '"';
}

template <typename T>
void
writeInteger(std::string &out, T v)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

/** One-pass recursive-descent parser over the request line. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Json
    document()
    {
        const Json v = value();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after JSON document at offset " +
                 std::to_string(pos_));
        return v;
    }

  private:
    static constexpr int kMaxDepth = 64;

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of JSON input");
        return text_[pos_];
    }

    char get() { const char c = peek(); ++pos_; return c; }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                ++pos_;
            else
                break;
        }
    }

    void
    expect(const char *literal)
    {
        for (const char *p = literal; *p; ++p) {
            if (pos_ >= text_.size() || text_[pos_] != *p)
                fail(std::string("invalid JSON literal (expected '") +
                     literal + "')");
            ++pos_;
        }
    }

    Json
    value()
    {
        if (++depth_ > kMaxDepth)
            fail("JSON nesting deeper than " +
                 std::to_string(kMaxDepth));
        skipWs();
        Json out;
        switch (peek()) {
          case '{': out = object(); break;
          case '[': out = array(); break;
          case '"': out = Json(string()); break;
          case 't': expect("true"); out = Json(true); break;
          case 'f': expect("false"); out = Json(false); break;
          case 'n': expect("null"); break;
          default: out = number(); break;
        }
        --depth_;
        return out;
    }

    Json
    object()
    {
        Json out = Json::object();
        get();  // '{'
        skipWs();
        if (peek() == '}') {
            get();
            return out;
        }
        for (;;) {
            skipWs();
            if (peek() != '"')
                fail("expected string key in JSON object at offset " +
                     std::to_string(pos_));
            std::string key = string();
            skipWs();
            if (get() != ':')
                fail("expected ':' after JSON object key \"" + key +
                     "\"");
            out.set(key, value());
            skipWs();
            const char c = get();
            if (c == '}')
                return out;
            if (c != ',')
                fail("expected ',' or '}' in JSON object at offset " +
                     std::to_string(pos_ - 1));
        }
    }

    Json
    array()
    {
        Json out = Json::array();
        get();  // '['
        skipWs();
        if (peek() == ']') {
            get();
            return out;
        }
        for (;;) {
            out.push(value());
            skipWs();
            const char c = get();
            if (c == ']')
                return out;
            if (c != ',')
                fail("expected ',' or ']' in JSON array at offset " +
                     std::to_string(pos_ - 1));
        }
    }

    std::string
    string()
    {
        get();  // '"'
        std::string out;
        for (;;) {
            // Copy the run up to the next quote or escape whole.
            std::size_t k = pos_;
            while (k < text_.size() && text_[k] != '"' && text_[k] != '\\')
                ++k;
            out.append(text_, pos_, k - pos_);
            pos_ = k;
            if (get() == '"')
                return out;
            const char esc = get();
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': out += unicodeEscape(); break;
              default:
                fail(std::string("invalid JSON escape '\\") + esc +
                     "'");
            }
        }
    }

    unsigned
    hex4()
    {
        unsigned v = 0;
        for (int k = 0; k < 4; ++k) {
            const char c = get();
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

    std::string
    unicodeEscape()
    {
        unsigned cp = hex4();
        if (cp >= 0xd800 && cp <= 0xdbff) {
            // High surrogate: a low surrogate must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u')
                fail("unpaired surrogate in JSON string");
            pos_ += 2;
            const unsigned lo = hex4();
            if (lo < 0xdc00 || lo > 0xdfff)
                fail("unpaired surrogate in JSON string");
            cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
        } else if (cp >= 0xdc00 && cp <= 0xdfff) {
            fail("unpaired surrogate in JSON string");
        }
        // UTF-8 encode.
        std::string out;
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
        return out;
    }

    Json
    number()
    {
        const std::size_t start = pos_;
        bool negative = false, integral = true;
        if (peek() == '-') {
            negative = true;
            get();
        }
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        const char *first = text_.data() + start;
        const char *last = text_.data() + pos_;
        // The token text is built only for an error message.
        const auto token = [&] { return text_.substr(start, pos_ - start); };
        if (first == last || (negative && last - first == 1))
            fail("invalid JSON number at offset " +
                 std::to_string(start));
        if (integral) {
            // The token is -?[0-9]+, so from_chars fails only when the
            // value overflows.
            std::uint64_t u = 0;
            std::int64_t i = 0;
            const auto res = negative ? std::from_chars(first, last, i)
                                      : std::from_chars(first, last, u);
            if (res.ec == std::errc::result_out_of_range)
                fail("JSON integer out of range: " + token());
            if (res.ec != std::errc() || res.ptr != last)
                fail("invalid JSON number: " + token());
            return negative ? Json(i) : Json(u);
        }
        const std::string tok = token();
        char *end = nullptr;
        const double v = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size() || !std::isfinite(v))
            fail("invalid JSON number: " + tok);
        return Json(v);
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

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
Json::asU64() const
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
Json::asI64() const
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

void
Json::reserve(std::size_t n)
{
    if (type_ == Type::Null)
        *this = array();
    if (type_ != Type::Array)
        fail(std::string("reserve() on a ") + typeName(type_));
    u_.a->reserve(n);
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
        writeString(out, *u_.s);
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
            writeString(out, key);
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
    return Parser(text).document();
}

} // namespace vip
