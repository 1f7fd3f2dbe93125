/**
 * @file
 * Program translation for the PE front end: Instruction -> Uop (see
 * decode.hh for the model).
 *
 * The width-specialized vector kernels live here too, so translation
 * resolves them once per static instruction instead of once per issue.
 */

#include "pe/decode.hh"

#include <algorithm>
#include <cstring>
#include <limits>

namespace vip {

namespace {

std::int64_t
redIdentity(RedOp op)
{
    switch (op) {
      case RedOp::Add: return 0;
      case RedOp::Min: return std::numeric_limits<std::int64_t>::max();
      case RedOp::Max: return std::numeric_limits<std::int64_t>::min();
    }
    return 0;
}

/*
 * Width-specialized vector kernels. The interpreter used to re-dispatch
 * ElemWidth (and apply the VecOp/RedOp switches) per element; these
 * templates hoist every dispatch out of the element loop — the
 * instruction selects one fully-specialized kernel, whose inner loop is
 * branch-free element arithmetic on raw scratchpad bytes. Semantics are
 * bit-identical to the switch ladders they replace: elements are
 * sign-extended to 64 bits, operated on in 64-bit arithmetic, and
 * saturated back to the element width on store, in the same element
 * order (memcpy keeps unaligned starts well-defined — any byte address
 * may start a vector).
 */

template <typename T>
inline std::int64_t
loadElem(const std::uint8_t *p)
{
    T v;
    std::memcpy(&v, p, sizeof(T));
    return static_cast<std::int64_t>(v);
}

template <typename T>
inline void
storeElemSat(std::uint8_t *p, std::int64_t v)
{
    if constexpr (sizeof(T) < sizeof(std::int64_t)) {
        v = std::clamp<std::int64_t>(v, std::numeric_limits<T>::min(),
                                     std::numeric_limits<T>::max());
    }
    const T t = static_cast<T>(v);
    std::memcpy(p, &t, sizeof(T));
}

template <VecOp op>
inline std::int64_t
vecOp(std::int64_t a, std::int64_t b)
{
    if constexpr (op == VecOp::Mul) return a * b;
    if constexpr (op == VecOp::Add) return a + b;
    if constexpr (op == VecOp::Sub) return a - b;
    if constexpr (op == VecOp::Min) return std::min(a, b);
    if constexpr (op == VecOp::Max) return std::max(a, b);
    return a;  // Nop
}

template <RedOp op>
inline std::int64_t
redOp(std::int64_t acc, std::int64_t v)
{
    if constexpr (op == RedOp::Add) return acc + v;
    if constexpr (op == RedOp::Min) return std::min(acc, v);
    return std::max(acc, v);  // Max
}

template <typename T, VecOp op>
void
runVecVec(std::uint8_t *dst, const std::uint8_t *a, const std::uint8_t *b,
          unsigned vl)
{
    for (unsigned i = 0; i < vl; ++i) {
        storeElemSat<T>(dst + i * sizeof(T),
                        vecOp<op>(loadElem<T>(a + i * sizeof(T)),
                                  loadElem<T>(b + i * sizeof(T))));
    }
}

template <typename T, VecOp op>
void
runVecScalar(std::uint8_t *dst, const std::uint8_t *a, std::int64_t scalar,
             unsigned vl)
{
    for (unsigned i = 0; i < vl; ++i) {
        storeElemSat<T>(dst + i * sizeof(T),
                        vecOp<op>(loadElem<T>(a + i * sizeof(T)), scalar));
    }
}

template <typename T, VecOp vop, RedOp rop>
std::int64_t
runMatVecRow(const std::uint8_t *row, const std::uint8_t *vec, unsigned vl)
{
    std::int64_t acc = redIdentity(rop);
    for (unsigned i = 0; i < vl; ++i) {
        const std::int64_t m = loadElem<T>(row + i * sizeof(T));
        // applyVecOp(Nop, m, v) == m with v never loaded.
        const std::int64_t x =
            vop == VecOp::Nop ? m
                              : vecOp<vop>(m, loadElem<T>(vec +
                                                          i * sizeof(T)));
        acc = redOp<rop>(acc, x);
    }
    return acc;
}

template <typename T>
VecVecFn
vecVecFnForT(VecOp op)
{
    switch (op) {
      case VecOp::Mul: return &runVecVec<T, VecOp::Mul>;
      case VecOp::Add: return &runVecVec<T, VecOp::Add>;
      case VecOp::Sub: return &runVecVec<T, VecOp::Sub>;
      case VecOp::Min: return &runVecVec<T, VecOp::Min>;
      case VecOp::Max: return &runVecVec<T, VecOp::Max>;
      case VecOp::Nop: return &runVecVec<T, VecOp::Nop>;
    }
    return &runVecVec<T, VecOp::Nop>;
}

template <typename T>
VecScalarFn
vecScalarFnForT(VecOp op)
{
    switch (op) {
      case VecOp::Mul: return &runVecScalar<T, VecOp::Mul>;
      case VecOp::Add: return &runVecScalar<T, VecOp::Add>;
      case VecOp::Sub: return &runVecScalar<T, VecOp::Sub>;
      case VecOp::Min: return &runVecScalar<T, VecOp::Min>;
      case VecOp::Max: return &runVecScalar<T, VecOp::Max>;
      case VecOp::Nop: return &runVecScalar<T, VecOp::Nop>;
    }
    return &runVecScalar<T, VecOp::Nop>;
}

template <typename T, VecOp vop>
MatVecRowFn
matVecRowFnForR(RedOp rop)
{
    switch (rop) {
      case RedOp::Add: return &runMatVecRow<T, vop, RedOp::Add>;
      case RedOp::Min: return &runMatVecRow<T, vop, RedOp::Min>;
      case RedOp::Max: return &runMatVecRow<T, vop, RedOp::Max>;
    }
    return &runMatVecRow<T, vop, RedOp::Add>;
}

template <typename T>
MatVecRowFn
matVecRowFnForT(VecOp vop, RedOp rop)
{
    switch (vop) {
      case VecOp::Mul: return matVecRowFnForR<T, VecOp::Mul>(rop);
      case VecOp::Add: return matVecRowFnForR<T, VecOp::Add>(rop);
      case VecOp::Sub: return matVecRowFnForR<T, VecOp::Sub>(rop);
      case VecOp::Min: return matVecRowFnForR<T, VecOp::Min>(rop);
      case VecOp::Max: return matVecRowFnForR<T, VecOp::Max>(rop);
      case VecOp::Nop: return matVecRowFnForR<T, VecOp::Nop>(rop);
    }
    return matVecRowFnForR<T, VecOp::Nop>(rop);
}

} // namespace

VecVecFn
vecVecFnFor(ElemWidth w, VecOp op)
{
    switch (w) {
      case ElemWidth::W8: return vecVecFnForT<std::int8_t>(op);
      case ElemWidth::W16: return vecVecFnForT<std::int16_t>(op);
      case ElemWidth::W32: return vecVecFnForT<std::int32_t>(op);
      case ElemWidth::W64: return vecVecFnForT<std::int64_t>(op);
    }
    return vecVecFnForT<std::int64_t>(op);
}

VecScalarFn
vecScalarFnFor(ElemWidth w, VecOp op)
{
    switch (w) {
      case ElemWidth::W8: return vecScalarFnForT<std::int8_t>(op);
      case ElemWidth::W16: return vecScalarFnForT<std::int16_t>(op);
      case ElemWidth::W32: return vecScalarFnForT<std::int32_t>(op);
      case ElemWidth::W64: return vecScalarFnForT<std::int64_t>(op);
    }
    return vecScalarFnForT<std::int64_t>(op);
}

MatVecRowFn
matVecRowFnFor(ElemWidth w, VecOp vop, RedOp rop)
{
    switch (w) {
      case ElemWidth::W8: return matVecRowFnForT<std::int8_t>(vop, rop);
      case ElemWidth::W16: return matVecRowFnForT<std::int16_t>(vop, rop);
      case ElemWidth::W32: return matVecRowFnForT<std::int32_t>(vop, rop);
      case ElemWidth::W64: return matVecRowFnForT<std::int64_t>(vop, rop);
    }
    return matVecRowFnForT<std::int64_t>(vop, rop);
}

std::int64_t
applyScalarOp(ScalarOp op, std::int64_t a, std::int64_t b)
{
    switch (op) {
      case ScalarOp::Add: return a + b;
      case ScalarOp::Sub: return a - b;
      case ScalarOp::Sll: return static_cast<std::int64_t>(
          static_cast<std::uint64_t>(a) << (b & 63));
      case ScalarOp::Srl: return static_cast<std::int64_t>(
          static_cast<std::uint64_t>(a) >> (b & 63));
      case ScalarOp::Sra: return a >> (b & 63);
      case ScalarOp::And: return a & b;
      case ScalarOp::Or: return a | b;
      case ScalarOp::Xor: return a ^ b;
    }
    return a;
}

std::int64_t
saturateToWidth(std::int64_t v, ElemWidth w)
{
    switch (w) {
      case ElemWidth::W8:
        return std::clamp<std::int64_t>(v, INT8_MIN, INT8_MAX);
      case ElemWidth::W16:
        return std::clamp<std::int64_t>(v, INT16_MIN, INT16_MAX);
      case ElemWidth::W32:
        return std::clamp<std::int64_t>(v, INT32_MIN, INT32_MAX);
      case ElemWidth::W64:
        return v;
    }
    return v;
}

namespace {

/** Append register @p r to the µop's gating set. */
inline void
addGating(Uop &u, std::uint8_t r)
{
    u.gating[u.nGating++] = r;
}

} // namespace

Uop
translateUop(const Instruction &inst)
{
    Uop u;
    u.op = inst.op;
    u.sop = inst.sop;
    u.cond = inst.cond;
    u.width = inst.width;
    u.vop = inst.vop;
    u.rop = inst.rop;
    u.rd = inst.rd;
    u.rs1 = inst.rs1;
    u.rs2 = inst.rs2;
    u.imm = inst.imm;
    u.wBytes = widthBytes(inst.width);

    // The gating sets below replicate the interpreter's old
    // Pe::gatingRegs() switch exactly; they are now assigned once at
    // translation instead of re-derived per issue attempt.
    switch (inst.op) {
      case Opcode::SetVl:
      case Opcode::SetMr:
        u.cls = UopClass::Config;
        addGating(u, inst.rs1);
        break;
      case Opcode::VDrain:
        u.cls = UopClass::Drain;
        break;
      case Opcode::MatVec:
        u.cls = UopClass::Vector;
        addGating(u, inst.rd);
        addGating(u, inst.rs1);
        addGating(u, inst.rs2);
        u.matVecRow = matVecRowFnFor(inst.width, inst.vop, inst.rop);
        break;
      case Opcode::VecVec:
        u.cls = UopClass::Vector;
        addGating(u, inst.rd);
        addGating(u, inst.rs1);
        addGating(u, inst.rs2);
        u.vecVec = vecVecFnFor(inst.width, inst.vop);
        break;
      case Opcode::VecScalar:
        u.cls = UopClass::Vector;
        addGating(u, inst.rd);
        addGating(u, inst.rs1);
        addGating(u, inst.rs2);
        u.vecScalar = vecScalarFnFor(inst.width, inst.vop);
        break;
      case Opcode::ScalarRR:
        u.cls = UopClass::Scalar;
        u.form = ScalarForm::RR;
        addGating(u, inst.rs1);
        addGating(u, inst.rs2);
        break;
      case Opcode::ScalarRI:
        u.cls = UopClass::Scalar;
        u.form = ScalarForm::RI;
        addGating(u, inst.rs1);
        break;
      case Opcode::Mov:
        // rd <- rs1, encoded as the RI form rs1 | 0: bit-identical to
        // the interpreter's plain copy, and one fewer case at issue.
        u.cls = UopClass::Scalar;
        u.form = ScalarForm::RI;
        u.sop = ScalarOp::Or;
        u.imm = 0;
        addGating(u, inst.rs1);
        break;
      case Opcode::MovImm:
        u.cls = UopClass::Scalar;
        u.form = ScalarForm::Imm;
        break;
      case Opcode::Branch:
        u.cls = UopClass::Branch;
        addGating(u, inst.rs1);
        addGating(u, inst.rs2);
        break;
      case Opcode::Jmp:
        u.cls = UopClass::Branch;
        break;
      case Opcode::LdSram:
      case Opcode::StSram:
        u.cls = UopClass::Memory;
        addGating(u, inst.rd);
        addGating(u, inst.rs1);
        addGating(u, inst.rs2);
        break;
      case Opcode::LdReg:
        u.cls = UopClass::Memory;
        addGating(u, inst.rs1);
        break;
      case Opcode::StReg:
        u.cls = UopClass::Memory;
        addGating(u, inst.rd);
        addGating(u, inst.rs1);
        break;
      case Opcode::Memfence:
        u.cls = UopClass::Fence;
        break;
      case Opcode::Halt:
        u.cls = UopClass::Halt;
        break;
      case Opcode::Nop:
        u.cls = UopClass::Nop;
        break;
    }
    return u;
}

std::vector<Uop>
translateProgram(const std::vector<Instruction> &prog)
{
    std::vector<Uop> uops;
    uops.reserve(prog.size());
    for (const Instruction &inst : prog)
        uops.push_back(translateUop(inst));
    return uops;
}

} // namespace vip
