#include "isa/assembler.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <map>
#include <optional>
#include <string>

#include "sim/error.hh"

namespace vip {

namespace {

/** std::isspace in the "C" locale. */
bool
isSpace(char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
}

std::string_view
trim(std::string_view s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && isSpace(s[b]))
        ++b;
    while (e > b && isSpace(s[e - 1]))
        --e;
    return s.substr(b, e - b);
}

/** s.find(c, from) as a plain loop: the pieces of a line are a few
 *  bytes long, too short to pay for a memchr call. */
std::size_t
findChar(std::string_view s, char c, std::size_t from = 0)
{
    for (std::size_t i = from; i < s.size(); ++i) {
        if (s[i] == c)
            return i;
    }
    return std::string_view::npos;
}

/**
 * The first N pieces of a split token and how many there were in all:
 * the parser checks the count before it reads a piece, and no form it
 * accepts has more than N.
 */
template <std::size_t N>
class Pieces
{
  public:
    std::size_t size() const { return count_; }
    std::string_view operator[](std::size_t i) const { return at_[i]; }

    void
    add(std::string_view piece)
    {
        if (count_ < N)
            at_[count_] = piece;
        ++count_;
    }

  private:
    std::array<std::string_view, N> at_;
    std::size_t count_ = 0;
};

using Operands = Pieces<3>;
using MnemonicParts = Pieces<4>;

/** Split "a, b, c" into trimmed operands (a trailing empty one is
 *  dropped). */
Operands
splitOperands(std::string_view s)
{
    Operands out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const auto comma = findChar(s, ',', start);
        if (comma == std::string_view::npos) {
            const auto piece = trim(s.substr(start));
            if (!piece.empty())
                out.add(piece);
            break;
        }
        out.add(trim(s.substr(start, comma - start)));
        start = comma + 1;
    }
    return out;
}

std::optional<unsigned>
parseReg(std::string_view tok)
{
    if (tok.size() < 2 || (tok[0] != 'r' && tok[0] != 'R'))
        return std::nullopt;
    unsigned v = 0;
    const char *end = tok.data() + tok.size();
    auto [p, ec] = std::from_chars(tok.data() + 1, end, v);
    if (ec != std::errc() || p != end || v >= kNumScalarRegs)
        return std::nullopt;
    return v;
}

std::optional<std::int64_t>
parseImm(std::string_view tok)
{
    if (tok.empty())
        return std::nullopt;
    std::int64_t sign = 1;
    std::size_t i = 0;
    if (tok[0] == '-') {
        sign = -1;
        i = 1;
    } else if (tok[0] == '+') {
        i = 1;
    }
    int base = 10;
    if (tok.size() > i + 1 && tok[i] == '0' &&
        (tok[i + 1] == 'x' || tok[i + 1] == 'X')) {
        base = 16;
        i += 2;
    }
    std::int64_t v = 0;
    const char *end = tok.data() + tok.size();
    auto [p, ec] = std::from_chars(tok.data() + i, end, v, base);
    if (ec != std::errc() || p != end)
        return std::nullopt;
    return sign * v;
}

/**
 * Read the mnemonic that starts @p text (up to the first space or tab)
 * in one pass: its dot-separated parts and an optional width tag, e.g.
 * "m.v.add.min[16]" -> {"m","v","add","min"}, W16. Returns the whole
 * mnemonic token; a bad tag throws an AssemblyFailure at @p line.
 */
std::string_view
splitMnemonic(std::string_view text, MnemonicParts &parts, ElemWidth &width,
              unsigned line)
{
    std::size_t end = 0, start = 0;
    std::size_t bracket = std::string_view::npos;
    for (; end < text.size() && text[end] != ' ' && text[end] != '\t';
         ++end) {
        if (bracket != std::string_view::npos)
            continue;
        if (text[end] == '[') {
            bracket = end;
        } else if (text[end] == '.') {
            parts.add(text.substr(start, end - start));
            start = end + 1;
        }
    }
    const std::string_view tok = text.substr(0, end);
    parts.add(tok.substr(start, std::min(bracket, end) - start));
    width = ElemWidth::W16;
    if (bracket != std::string_view::npos) {
        const std::string_view tag = tok.substr(bracket);
        if (tag == "[8]" || tag == "[8-bit]") {
            width = ElemWidth::W8;
        } else if (tag == "[16]" || tag == "[16-bit]") {
            width = ElemWidth::W16;
        } else if (tag == "[32]" || tag == "[32-bit]") {
            width = ElemWidth::W32;
        } else if (tag == "[64]" || tag == "[64-bit]") {
            width = ElemWidth::W64;
        } else {
            throw AssemblyFailure(line,
                                  "bad width tag '" + std::string(tag) + "'");
        }
    }
    return tok;
}

std::optional<VecOp>
parseVecOp(std::string_view s)
{
    if (s == "mul") return VecOp::Mul;
    if (s == "add") return VecOp::Add;
    if (s == "sub") return VecOp::Sub;
    if (s == "min") return VecOp::Min;
    if (s == "max") return VecOp::Max;
    if (s == "nop") return VecOp::Nop;
    return std::nullopt;
}

std::optional<RedOp>
parseRedOp(std::string_view s)
{
    if (s == "add") return RedOp::Add;
    if (s == "min") return RedOp::Min;
    if (s == "max") return RedOp::Max;
    return std::nullopt;
}

std::optional<ScalarOp>
parseScalarOp(std::string_view s)
{
    if (s == "add") return ScalarOp::Add;
    if (s == "sub") return ScalarOp::Sub;
    if (s == "sll") return ScalarOp::Sll;
    if (s == "srl") return ScalarOp::Srl;
    if (s == "sra") return ScalarOp::Sra;
    if (s == "and") return ScalarOp::And;
    if (s == "or") return ScalarOp::Or;
    if (s == "xor") return ScalarOp::Xor;
    return std::nullopt;
}

std::optional<BranchCond>
parseBranch(std::string_view s)
{
    if (s == "blt") return BranchCond::Lt;
    if (s == "bge") return BranchCond::Ge;
    if (s == "beq") return BranchCond::Eq;
    if (s == "bne") return BranchCond::Ne;
    return std::nullopt;
}

struct PendingLabel
{
    std::size_t instIndex;
    std::string_view label;
    unsigned line;
};

} // namespace

std::vector<Instruction>
assemble(std::string_view source)
{
    std::vector<Instruction> prog;
    // Labels and fixups view the source, which outlives this call.
    std::map<std::string_view, std::size_t> labels;
    std::vector<PendingLabel> fixups;

    unsigned line_no = 0;
    auto fail = [&line_no](const std::string &msg) {
        throw AssemblyFailure(line_no, msg);
    };

    prog.reserve(std::min<std::size_t>(
        std::count(source.begin(), source.end(), '\n') + 1,
        kInstBufferEntries + 1));
    std::size_t next = 0;
    while (next < source.size()) {
        const std::size_t nl = source.find('\n', next);
        const std::string_view raw =
            source.substr(next, nl == std::string_view::npos
                                    ? std::string_view::npos
                                    : nl - next);
        next = nl == std::string_view::npos ? source.size() : nl + 1;
        ++line_no;
        // One pass finds where a comment starts and whether a label's
        // colon comes before it.
        std::size_t cut = 0;
        bool has_colon = false;
        while (cut < raw.size() && raw[cut] != ';' && raw[cut] != '#')
            has_colon |= raw[cut++] == ':';
        std::string_view text = trim(raw.substr(0, cut));
        if (text.empty())
            continue;

        // Labels (possibly followed by an instruction on the same line).
        while (has_colon) {
            const auto colon = findChar(text, ':');
            if (colon == std::string_view::npos)
                break;
            const std::string_view label = trim(text.substr(0, colon));
            if (label.empty() || label.find(' ') != std::string_view::npos)
                fail("malformed label");
            if (!labels.emplace(label, prog.size()).second)
                fail("duplicate label '" + std::string(label) + "'");
            text = trim(text.substr(colon + 1));
        }
        if (text.empty())
            continue;

        // Mnemonic and operands.
        MnemonicParts parts;
        Instruction inst;
        const std::string_view mnemonic =
            splitMnemonic(text, parts, inst.width, line_no);
        const Operands ops =
            splitOperands(mnemonic.size() < text.size()
                              ? text.substr(mnemonic.size() + 1)
                              : std::string_view());

        auto needOps = [&](std::size_t n) {
            if (ops.size() != n) {
                fail("expected " + std::to_string(n) + " operands, got " +
                     std::to_string(ops.size()));
            }
        };
        auto reg = [&](std::size_t i) {
            const auto r = parseReg(ops[i]);
            if (!r)
                fail("bad register '" + std::string(ops[i]) + "'");
            return static_cast<std::uint8_t>(*r);
        };
        auto imm = [&](std::size_t i) {
            const auto v = parseImm(ops[i]);
            if (!v)
                fail("bad immediate '" + std::string(ops[i]) + "'");
            return *v;
        };
        // The three-register form: rd, rs1, rs2.
        auto regs3 = [&] {
            needOps(3);
            inst.rd = reg(0);
            inst.rs1 = reg(1);
            inst.rs2 = reg(2);
        };
        // The two-register form: rd, rs1.
        auto regs2 = [&] {
            needOps(2);
            inst.rd = reg(0);
            inst.rs1 = reg(1);
        };

        const std::string_view head = parts[0];

        if (head == "set" && parts.size() == 2) {
            inst.op = parts[1] == "vl" ? Opcode::SetVl : Opcode::SetMr;
            if (parts[1] != "vl" && parts[1] != "mr") {
                fail("unknown config register '" + std::string(parts[1]) +
                     "'");
            }
            needOps(1);
            inst.rs1 = reg(0);
        } else if (head == "v" && parts.size() == 2 && parts[1] == "drain") {
            inst.op = Opcode::VDrain;
            needOps(0);
        } else if (head == "m" && parts.size() == 4 && parts[1] == "v") {
            inst.op = Opcode::MatVec;
            const auto vop = parseVecOp(parts[2]);
            const auto rop = parseRedOp(parts[3]);
            if (!vop || !rop) {
                fail("bad m.v operator composition '" +
                     std::string(mnemonic) + "'");
            }
            inst.vop = *vop;
            inst.rop = *rop;
            regs3();
        } else if (head == "v" && parts.size() == 3 &&
                   (parts[1] == "v" || parts[1] == "s")) {
            inst.op = parts[1] == "v" ? Opcode::VecVec : Opcode::VecScalar;
            const auto vop = parseVecOp(parts[2]);
            if (!vop || *vop == VecOp::Nop)
                fail("bad vector operator '" + std::string(parts[2]) + "'");
            inst.vop = *vop;
            regs3();
        } else if (head == "mov" && parts.size() == 1) {
            inst.op = Opcode::Mov;
            regs2();
        } else if (head == "mov" && parts.size() == 2 && parts[1] == "imm") {
            inst.op = Opcode::MovImm;
            needOps(2);
            inst.rd = reg(0);
            inst.imm = imm(1);
        } else if (parseScalarOp(head) && parts.size() <= 2) {
            inst.sop = *parseScalarOp(head);
            const bool has_imm = parts.size() == 2 && parts[1] == "imm";
            if (parts.size() == 2 && !has_imm)
                fail("unknown mnemonic '" + std::string(mnemonic) + "'");
            inst.op = has_imm ? Opcode::ScalarRI : Opcode::ScalarRR;
            needOps(3);
            inst.rd = reg(0);
            inst.rs1 = reg(1);
            if (has_imm)
                inst.imm = imm(2);
            else
                inst.rs2 = reg(2);
        } else if (parseBranch(head) && parts.size() == 1) {
            inst.op = Opcode::Branch;
            inst.cond = *parseBranch(head);
            needOps(3);
            inst.rs1 = reg(0);
            inst.rs2 = reg(1);
            fixups.push_back({prog.size(), ops[2], line_no});
        } else if (head == "jmp" && parts.size() == 1) {
            inst.op = Opcode::Jmp;
            needOps(1);
            fixups.push_back({prog.size(), ops[0], line_no});
        } else if (head == "ld" && parts.size() == 2 && parts[1] == "sram") {
            inst.op = Opcode::LdSram;
            regs3();
        } else if (head == "st" && parts.size() == 2 && parts[1] == "sram") {
            inst.op = Opcode::StSram;
            regs3();
        } else if (head == "ld" && parts.size() == 2 && parts[1] == "reg") {
            inst.op = Opcode::LdReg;
            regs2();
        } else if (head == "st" && parts.size() == 2 && parts[1] == "reg") {
            inst.op = Opcode::StReg;
            regs2();
        } else if (head == "memfence" && parts.size() == 1) {
            inst.op = Opcode::Memfence;
            needOps(0);
        } else if (head == "halt" && parts.size() == 1) {
            inst.op = Opcode::Halt;
            needOps(0);
        } else if (head == "nop" && parts.size() == 1) {
            inst.op = Opcode::Nop;
            needOps(0);
        } else {
            fail("unknown mnemonic '" + std::string(mnemonic) + "'");
        }

        prog.push_back(inst);
    }

    // Second pass: resolve branch/jump targets.
    for (const auto &fix : fixups) {
        const auto it = labels.find(fix.label);
        if (it != labels.end()) {
            prog[fix.instIndex].imm = static_cast<std::int64_t>(it->second);
            continue;
        }
        // Numeric absolute targets are accepted too.
        const auto target = parseImm(fix.label);
        if (!target || *target < 0 ||
            static_cast<std::size_t>(*target) > prog.size()) {
            throw AssemblyFailure(fix.line, "undefined label '" +
                                                std::string(fix.label) +
                                                "'");
        }
        prog[fix.instIndex].imm = *target;
    }

    if (prog.size() > kInstBufferEntries) {
        throw AssemblyFailure(
            0, "program has " + std::to_string(prog.size()) +
                   " instructions; the PE instruction buffer holds " +
                   std::to_string(kInstBufferEntries));
    }
    return prog;
}

} // namespace vip
