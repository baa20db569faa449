/**
 * @file
 * The templated kernel bodies behind simd/kernels.h, written once
 * against the Vec API of support/simd.h and instantiated per backend
 * by the kernels_<arch>.cc translation units (each compiled with the
 * matching -m flags, so including this header anywhere else is
 * almost certainly a mistake).
 *
 * Determinism: every loop below processes independent SoA lanes in
 * chunks of V::kWidth with the scalar per-lane operation sequence
 * (see the vector kernels in expr/op_kernels.h and the blocked-order
 * comments inline). kBatchLanes is statically a multiple of every
 * backend width, so the tape/MLP row loops never carry a ragged
 * tail; the Adam and weight-gradient kernels run over arbitrary
 * lengths and finish the remainder with the identical scalar
 * formula.
 *
 * Live chunks: the row kernels sweep only the first C chunks of each
 * row, where C covers the batch's live lanes (withLiveChunks). A
 * lane's arithmetic never reads another lane, so skipping the dead
 * chunks changes no bit of a live lane.
 */
#ifndef FELIX_SIMD_KERNELS_IMPL_H_
#define FELIX_SIMD_KERNELS_IMPL_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <type_traits>
#include <utility>

#include "expr/op_kernels.h"
#include "expr/tape.h"
#include "simd/kernels.h"
#include "support/batch.h"
#include "support/logging.h"
#include "support/simd.h"

namespace felix {
namespace simd {

/** Calls body(std::integral_constant<std::size_t, C>{}) with C the
 *  number of V-wide chunks that hold lanes 0..lanes-1, rounded up to
 *  a power of two and capped at the row's kBatchLanes / W. The row
 *  kernels below are templated on C, so their trip counts stay
 *  compile-time constants (the MLP forward sizes its accumulator
 *  tile by C, and the tape forward forwards in registers when
 *  C == 1), and the power-of-two rounding keeps each kernel to at
 *  most 1 + log2(L / W) bodies per backend. */
template <class V, std::size_t C = 1, class Body>
inline void
withLiveChunks(std::size_t lanes, Body &&body)
{
    constexpr std::size_t kRow = kBatchLanes / V::kWidth;
    if constexpr (C < kRow) {
        if (lanes > C * V::kWidth)
            return withLiveChunks<V, std::min(2 * C, kRow)>(
                lanes, std::forward<Body>(body));
    }
    body(std::integral_constant<std::size_t, C>{});
}

/** CompiledExprs::forwardBatch instruction sweep (SSA slots: the
 *  destination row never aliases the operand rows).
 *
 *  The tape is mostly one long dependent chain — instruction i+1
 *  usually consumes slot i — so a naive sweep pays a store-to-load
 *  round trip per instruction on the critical path. When a row is a
 *  single vector (C == 1), `last` mirrors the previous instruction's
 *  result in a register; operands that name slot-1 read the register
 *  copy instead of reloading the row just stored, which shortens the
 *  chain to the arithmetic itself. The bits are identical either way
 *  (the register copy is exactly what was stored), so per-lane
 *  exactness is unaffected. With C > 1 the chunks already form C
 *  independent chains that overlap in the pipeline, and carrying C
 *  live registers plus per-chunk blends costs more than the reloads
 *  save, so the plain loads are kept. */
template <class V, std::size_t C>
void
tapeForwardC(const expr::TapeProgram &program, double *vals)
{
    constexpr std::size_t L = kBatchLanes;
    constexpr std::size_t W = V::kWidth;
    constexpr bool kFwd = (C == 1);      // register-forward slot-1?
    namespace opk = expr::opk;
    std::size_t slot = program.firstOpSlot();
    if (program.instrs.empty())
        return;
    // Seed `last` with slot-1's row (always a leaf slot: an
    // optimized tape with instructions has at least one variable or
    // constant), so the first instruction needs no special case.
    V last[1] = {V::broadcast(0.0)};
    if constexpr (kFwd)
        last[0] = V::load(&vals[(slot - 1) * L]);
    for (const expr::TapeInstr &instr : program.instrs) {
        const int prev = static_cast<int>(slot) - 1;
        const bool f0 = kFwd && instr.a0 == prev;
        const bool f1 = kFwd && instr.a1 == prev;
        const double *a =
            &vals[static_cast<std::size_t>(instr.a0) * L];
        const double *b =
            instr.a1 >= 0
                ? &vals[static_cast<std::size_t>(instr.a1) * L]
                : a;
        const double *c =
            instr.a2 >= 0
                ? &vals[static_cast<std::size_t>(instr.a2) * L]
                : a;
        double *out = &vals[slot++ * L];

#define FELIX_SIMD_LANES_1(KER)                                        \
    for (std::size_t ch = 0; ch < C; ++ch) {                           \
        const V va = f0 ? last[0] : V::load(a + ch * W);               \
        const V r = opk::KER<V>(va);                                   \
        r.store(out + ch * W);                                         \
        if constexpr (kFwd)                                            \
            last[0] = r;                                               \
    }                                                                  \
    break
#define FELIX_SIMD_LANES_2(KER)                                        \
    for (std::size_t ch = 0; ch < C; ++ch) {                           \
        const V va = f0 ? last[0] : V::load(a + ch * W);               \
        const V vb = f1 ? last[0] : V::load(b + ch * W);               \
        const V r = opk::KER<V>(va, vb);                               \
        r.store(out + ch * W);                                         \
        if constexpr (kFwd)                                            \
            last[0] = r;                                               \
    }                                                                  \
    break

        switch (instr.op) {
          case expr::OpCode::Add: FELIX_SIMD_LANES_2(fwdAddV);
          case expr::OpCode::Sub: FELIX_SIMD_LANES_2(fwdSubV);
          case expr::OpCode::Mul: FELIX_SIMD_LANES_2(fwdMulV);
          case expr::OpCode::Div: FELIX_SIMD_LANES_2(fwdDivV);
          case expr::OpCode::Pow: FELIX_SIMD_LANES_2(fwdPowV);
          case expr::OpCode::Min: FELIX_SIMD_LANES_2(fwdMinV);
          case expr::OpCode::Max: FELIX_SIMD_LANES_2(fwdMaxV);
          case expr::OpCode::Neg: FELIX_SIMD_LANES_1(fwdNegV);
          case expr::OpCode::Log: FELIX_SIMD_LANES_1(fwdLogV);
          case expr::OpCode::Exp: FELIX_SIMD_LANES_1(fwdExpV);
          case expr::OpCode::Sqrt: FELIX_SIMD_LANES_1(fwdSqrtV);
          case expr::OpCode::Abs: FELIX_SIMD_LANES_1(fwdAbsV);
          case expr::OpCode::Floor: FELIX_SIMD_LANES_1(fwdFloorV);
          case expr::OpCode::Atan: FELIX_SIMD_LANES_1(fwdAtanV);
          case expr::OpCode::Sigmoid: FELIX_SIMD_LANES_1(fwdSigmoidV);
          case expr::OpCode::Lt: FELIX_SIMD_LANES_2(fwdLtV);
          case expr::OpCode::Le: FELIX_SIMD_LANES_2(fwdLeV);
          case expr::OpCode::Gt: FELIX_SIMD_LANES_2(fwdGtV);
          case expr::OpCode::Ge: FELIX_SIMD_LANES_2(fwdGeV);
          case expr::OpCode::Eq: FELIX_SIMD_LANES_2(fwdEqV);
          case expr::OpCode::Ne: FELIX_SIMD_LANES_2(fwdNeV);
          case expr::OpCode::Select: {
            const bool f2 = kFwd && instr.a2 == prev;
            for (std::size_t ch = 0; ch < C; ++ch) {
                const V va = f0 ? last[0] : V::load(a + ch * W);
                const V vb = f1 ? last[0] : V::load(b + ch * W);
                const V vc = f2 ? last[0] : V::load(c + ch * W);
                const V r = opk::fwdSelectV<V>(va, vb, vc);
                r.store(out + ch * W);
                if constexpr (kFwd)
                    last[0] = r;
            }
            break;
          }
          case expr::OpCode::ConstOp:
          case expr::OpCode::VarOp:
            panic("leaf opcode in optimized tape");
        }

#undef FELIX_SIMD_LANES_1
#undef FELIX_SIMD_LANES_2
    }
}

template <class V>
void
tapeForwardT(const expr::TapeProgram &program, double *vals,
             std::size_t lanes)
{
    withLiveChunks<V>(lanes, [&](auto c) {
        tapeForwardC<V, decltype(c)::value>(program, vals);
    });
}

/** CompiledExprs::finishBackwardBatch reverse sweep. The chunk-level
 *  all-zero skip is the vector form of the scalar per-lane zero
 *  skip: skipping a chunk whose adjoints are all +0.0 adds nothing,
 *  and chunks with any live lane go through backpropOpV, whose
 *  blends add exact +0.0 on the dead lanes (a bitwise no-op on
 *  accumulator rows — see the kernel's comment). The skip decides
 *  per chunk from that chunk's lanes alone, so sweeping fewer chunks
 *  changes no decision in the chunks that are swept. */
template <class V, std::size_t C>
void
tapeBackwardC(const expr::TapeProgram &program, const double *vals,
              double *adjs)
{
    constexpr std::size_t L = kBatchLanes;
    constexpr std::size_t W = V::kWidth;
    const V zero = V::broadcast(0.0);
    for (std::size_t i = program.instrs.size(); i-- > 0;) {
        const expr::TapeInstr &instr = program.instrs[i];
        const std::size_t slot = program.firstOpSlot() + i;
        const double *adjRow = &adjs[slot * L];
        const double *valRow = &vals[slot * L];
        const double *a0Row =
            &vals[static_cast<std::size_t>(instr.a0) * L];
        double *adj0Row =
            &adjs[static_cast<std::size_t>(instr.a0) * L];
        const double *a1Row =
            instr.a1 >= 0
                ? &vals[static_cast<std::size_t>(instr.a1) * L]
                : nullptr;
        double *adj1Row =
            instr.a1 >= 0
                ? &adjs[static_cast<std::size_t>(instr.a1) * L]
                : nullptr;
        double *adj2Row =
            instr.a2 >= 0
                ? &adjs[static_cast<std::size_t>(instr.a2) * L]
                : nullptr;
        for (std::size_t l = 0; l < C * W; l += W) {
            const V adj = V::load(adjRow + l);
            if (!anyLane(cne(adj, zero)))
                continue;
            expr::opk::backpropOpV<V>(
                instr.op, adj, V::load(valRow + l),
                V::load(a0Row + l),
                a1Row ? V::load(a1Row + l) : zero, adj0Row + l,
                adj1Row ? adj1Row + l : nullptr,
                adj2Row ? adj2Row + l : nullptr);
        }
    }
}

template <class V>
void
tapeBackwardT(const expr::TapeProgram &program, const double *vals,
              double *adjs, std::size_t lanes)
{
    withLiveChunks<V>(lanes, [&](auto c) {
        tapeBackwardC<V, decltype(c)::value>(program, vals, adjs);
    });
}

/** Blocked batched MLP layer forward (Mlp::forwardLayerBatch): four
 *  neurons share each input-row load; per lane the accumulation
 *  order stays bias first, then inputs 0..in-1. A pass covers G of
 *  the C live chunks, so at most 4 x 2 accumulators are live at any
 *  width: narrow backends make more passes instead of spilling a
 *  4 x C tile to the stack. Lanes are independent, so the passes
 *  change memory traffic only. The tile loops are unrolled
 *  explicitly: -O2 (the default RelWithDebInfo build) leaves them
 *  rolled and the tile in memory, which made this kernel about 1.5x
 *  slower than at -O3. Unrolling reorders no per-lane operation. */
template <class V, std::size_t C>
void
mlpForwardLayerC(const double *weights, const double *bias, int in,
                 int out, bool hidden, const double *cur,
                 double *out_rows)
{
    constexpr std::size_t L = kBatchLanes;
    constexpr std::size_t W = V::kWidth;
    constexpr std::size_t G = C % 2 == 0 ? 2 : 1; // chunks per pass
    const V zero = V::broadcast(0.0);
    constexpr int kBlock = 4;
    const int fullEnd = out - out % kBlock;
    for (int ob = 0; ob < fullEnd; ob += kBlock) {
        for (std::size_t g = 0; g < C; g += G) {
            V acc[kBlock][G];
#pragma GCC unroll 4
            for (int b = 0; b < kBlock; ++b)
#pragma GCC unroll 2
                for (std::size_t ch = 0; ch < G; ++ch)
                    acc[b][ch] = V::broadcast(bias[ob + b]);
            for (int i = 0; i < in; ++i) {
                const double *curRow =
                    cur + static_cast<std::size_t>(i) * L + g * W;
#pragma GCC unroll 4
                for (int b = 0; b < kBlock; ++b) {
                    const V w = V::broadcast(
                        weights[static_cast<std::size_t>(ob + b) * in +
                                i]);
#pragma GCC unroll 2
                    for (std::size_t ch = 0; ch < G; ++ch)
                        acc[b][ch] =
                            acc[b][ch] + w * V::load(curRow + ch * W);
                }
            }
#pragma GCC unroll 4
            for (int b = 0; b < kBlock; ++b) {
                double *outRow = out_rows +
                                 static_cast<std::size_t>(ob + b) * L +
                                 g * W;
#pragma GCC unroll 2
                for (std::size_t ch = 0; ch < G; ++ch) {
                    V a = acc[b][ch];
                    if (hidden)
                        a = select(clt(a, zero), zero, a);
                    a.store(outRow + ch * W);
                }
            }
        }
    }
    for (int o = fullEnd; o < out; ++o) {
        V acc[C];
        for (std::size_t ch = 0; ch < C; ++ch)
            acc[ch] = V::broadcast(bias[o]);
        const double *row =
            weights + static_cast<std::size_t>(o) * in;
        for (int i = 0; i < in; ++i) {
            const V w = V::broadcast(row[i]);
            const double *curRow =
                cur + static_cast<std::size_t>(i) * L;
            for (std::size_t ch = 0; ch < C; ++ch)
                acc[ch] = acc[ch] + w * V::load(curRow + ch * W);
        }
        double *outRow = out_rows + static_cast<std::size_t>(o) * L;
        for (std::size_t ch = 0; ch < C; ++ch) {
            V a = acc[ch];
            if (hidden)
                a = select(clt(a, zero), zero, a);
            a.store(outRow + ch * W);
        }
    }
}

template <class V>
void
mlpForwardLayerT(const double *weights, const double *bias, int in,
                 int out, bool hidden, const double *cur,
                 double *out_rows, std::size_t lanes)
{
    withLiveChunks<V>(lanes, [&](auto c) {
        mlpForwardLayerC<V, decltype(c)::value>(
            weights, bias, in, out, hidden, cur, out_rows);
    });
}

/** The masked adjoint rows of one MLP layer: madj = gate ? adj : 0,
 *  selected BEFORE any multiply (the -0.0 argument in mlp.cc). The
 *  input gradient itself is mlpForwardLayerT over the transposed
 *  weights. */
template <class V, std::size_t C>
void
mlpBackwardLayerC(int out, bool hidden, const double *out_acts,
                  const double *adj, double *madj)
{
    constexpr std::size_t L = kBatchLanes;
    constexpr std::size_t W = V::kWidth;
    const V zero = V::broadcast(0.0);
    for (int o = 0; o < out; ++o) {
        const std::size_t row = static_cast<std::size_t>(o) * L;
        for (std::size_t l = 0; l < C * W; l += W) {
            V a = V::load(adj + row + l);
            if (hidden)
                a = select(cgt(V::load(out_acts + row + l), zero), a,
                           zero);
            a.store(madj + row + l);
        }
    }
}

template <class V>
void
mlpBackwardLayerT(int out, bool hidden, const double *out_acts,
                  const double *adj, double *madj, std::size_t lanes)
{
    withLiveChunks<V>(lanes, [&](auto c) {
        mlpBackwardLayerC<V, decltype(c)::value>(out, hidden, out_acts,
                                                 adj, madj);
    });
}

/** An NR-row x NC-vector tile of mlpWeightGradT starting at input i:
 *  NR*NC independent accumulators, each summing one (row, input
 *  vector) down the chunk's samples. */
template <class V, int NR, int NC>
inline void
weightGradTileT(const double *madj, std::size_t stride, const double *x,
                std::size_t in, int n, std::size_t i, double *gw)
{
    constexpr std::size_t W = V::kWidth;
    V acc[NR][NC];
    for (int r = 0; r < NR; ++r)
        for (int c = 0; c < NC; ++c)
            acc[r][c] = V::broadcast(0.0);
    for (int s = 0; s < n; ++s) {
        const double *xRow = x + static_cast<std::size_t>(s) * in + i;
        V xv[NC];
        for (int c = 0; c < NC; ++c)
            xv[c] = V::load(xRow + c * W);
        for (int r = 0; r < NR; ++r) {
            const V a = V::broadcast(madj[r * stride + s]);
            for (int c = 0; c < NC; ++c)
                acc[r][c] = acc[r][c] + a * xv[c];
        }
    }
    for (int r = 0; r < NR; ++r) {
        for (int c = 0; c < NC; ++c) {
            double *g = gw + r * in + i + c * W;
            (V::load(g) + acc[r][c]).store(g);
        }
    }
}

/** NR consecutive rows of mlpWeightGradT: two input vectors at a
 *  time, then one, then a scalar tail with the same per-element
 *  sequence (layer widths need not be a multiple of W). */
template <class V, int NR>
void
weightGradRowsT(const double *madj, std::size_t stride, const double *x,
                std::size_t in, int n, double *gw)
{
    constexpr std::size_t W = V::kWidth;
    std::size_t i = 0;
    for (; i + 2 * W <= in; i += 2 * W)
        weightGradTileT<V, NR, 2>(madj, stride, x, in, n, i, gw);
    for (; i + W <= in; i += W)
        weightGradTileT<V, NR, 1>(madj, stride, x, in, n, i, gw);
    for (; i < in; ++i) {
        for (int r = 0; r < NR; ++r) {
            double acc = 0.0;
            for (int s = 0; s < n; ++s)
                acc = acc + madj[r * stride + s] *
                                x[static_cast<std::size_t>(s) * in + i];
            gw[r * in + i] += acc;
        }
    }
}

/** One chunk's share of a block of weight-gradient rows
 *  (Mlp::trainBatch phase 2). Per (row, input) the chunk partial is
 *  formed from +0.0 in ascending sample order and then added to the
 *  running total — the scalar trainer's per-sample accumulation
 *  followed by its chunk-order reduction, bit for bit. Closed ReLU
 *  gates arrive as exact 0.0 entries of madj, so they add +/-0.0 to
 *  an accumulator that can never hold -0.0: a bitwise no-op (the
 *  argument in mlp.cc). Rows go four at a time so each loaded input
 *  vector feeds four accumulators. */
template <class V>
void
mlpWeightGradT(const double *madj, std::size_t madj_stride,
               const double *x, int in, int rows, int n, double *gw,
               double *gb)
{
    const std::size_t inz = static_cast<std::size_t>(in);
    int r = 0;
    for (; r + 4 <= rows; r += 4)
        weightGradRowsT<V, 4>(madj + r * madj_stride, madj_stride, x,
                              inz, n, gw + r * inz);
    for (; r < rows; ++r)
        weightGradRowsT<V, 1>(madj + r * madj_stride, madj_stride, x,
                              inz, n, gw + r * inz);
    for (r = 0; r < rows; ++r) {
        const double *row = madj + r * madj_stride;
        double acc = 0.0;
        for (int s = 0; s < n; ++s)
            acc = acc + row[s];
        gb[r] += acc;
    }
}

/** Adam parameter update (optim/adam.cc formula order), vector body
 *  plus a scalar ragged tail with the identical operation sequence. */
template <class V>
void
adamStepT(double *x, const double *g, double *m, double *v,
          std::size_t n, double beta1, double beta2, double corr1,
          double corr2, double lr, double eps)
{
    constexpr std::size_t W = V::kWidth;
    const V b1 = V::broadcast(beta1);
    const V b2 = V::broadcast(beta2);
    const V ob1 = V::broadcast(1.0 - beta1);
    const V ob2 = V::broadcast(1.0 - beta2);
    const V c1 = V::broadcast(corr1);
    const V c2 = V::broadcast(corr2);
    const V vlr = V::broadcast(lr);
    const V veps = V::broadcast(eps);
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
        const V gi = V::load(g + i);
        const V mi = b1 * V::load(m + i) + ob1 * gi;
        const V vi = b2 * V::load(v + i) + (ob2 * gi) * gi;
        mi.store(m + i);
        vi.store(v + i);
        const V mHat = mi / c1;
        const V vHat = vi / c2;
        (V::load(x + i) - (vlr * mHat) / (vsqrt(vHat) + veps))
            .store(x + i);
    }
    for (; i < n; ++i) {
        m[i] = beta1 * m[i] + (1.0 - beta1) * g[i];
        v[i] = beta2 * v[i] + (1.0 - beta2) * g[i] * g[i];
        const double mHat = m[i] / corr1;
        const double vHat = v[i] / corr2;
        x[i] -= lr * mHat / (std::sqrt(vHat) + eps);
    }
}

/** The FMA-contraction canary: fl(fl(a*b)+c) through this backend's
 *  multiply and add. If the TU is (re)compiled with contraction
 *  enabled — e.g. the global -ffp-contract=off is dropped under
 *  FELIX_NATIVE — the compiler may fuse this into one rounding and
 *  tests/test_simd.cc's guard fails. */
template <class V>
double
probeMulAddT(double a, double b, double c)
{
    double out[V::kWidth];
    (V::broadcast(a) * V::broadcast(b) + V::broadcast(c)).store(out);
    return out[0];
}

/** Assemble one backend's table. */
template <class V>
KernelSet
makeKernelSet(const char *name)
{
    static_assert(kBatchLanes % V::kWidth == 0,
                  "kBatchLanes must be a multiple of every backend "
                  "vector width");
    return KernelSet{static_cast<int>(V::kWidth),
                     name,
                     &tapeForwardT<V>,
                     &tapeBackwardT<V>,
                     &mlpForwardLayerT<V>,
                     &mlpBackwardLayerT<V>,
                     &mlpWeightGradT<V>,
                     &adamStepT<V>,
                     &probeMulAddT<V>};
}

} // namespace simd
} // namespace felix

#endif // FELIX_SIMD_KERNELS_IMPL_H_
