/**
 * @file
 * Runtime-dispatched SIMD kernel table for the hot SoA loops: tape
 * forward/backward (expr/compiled.cc), the blocked batched MLP
 * layer kernels (costmodel/mlp.cc), and the Adam parameter update
 * (optim/adam.cc, costmodel/mlp.cc).
 *
 * Every backend is the SAME templated kernel body
 * (src/simd/kernels_impl.h) instantiated against one vector type
 * from support/simd.h and compiled in its own translation unit with
 * the matching -m flags. Dispatch picks the widest backend the CPU
 * supports at first use and publishes the active lane width as the
 * `simd.width` gauge; setPreferredWidth() lets tests and benches
 * reach the other backends in-process. Because each
 * lane executes the identical scalar operation sequence at every
 * width (see support/simd.h), switching backends never changes a
 * bit of any result — tests/test_simd.cc enforces exactly that.
 */
#ifndef FELIX_SIMD_KERNELS_H_
#define FELIX_SIMD_KERNELS_H_

#include <cstddef>
#include <vector>

#include "expr/tape.h"

namespace felix {
namespace simd {

/** One compiled backend: function pointers plus identity. */
struct KernelSet
{
    int width;        ///< doubles per vector register
    const char *name; ///< "scalar", "sse2", "avx2", "avx512", "neon"

    /** Instruction sweep of CompiledExprs::forwardBatch over the
     *  kBatchLanes-wide SoA slot buffer. */
    void (*tapeForward)(const expr::TapeProgram &program,
                        double *vals);
    /** Reverse sweep of CompiledExprs::backwardBatch (seeding and
     *  input-gradient extraction stay with the caller). */
    void (*tapeBackward)(const expr::TapeProgram &program,
                         const double *vals, double *adjs);

    /** One batched MLP layer forward: out_rows[o*L+l] from
     *  cur[i*L+l], with ReLU when hidden. */
    void (*mlpForwardLayer)(const double *weights, const double *bias,
                            int in, int out, bool hidden,
                            const double *cur, double *out_rows);
    /** One batched MLP layer of the input-gradient backward: fills
     *  the masked adjoint rows madj from adj/out_acts and
     *  accumulates prev[i*L+l] += madj[o*L+l] * w[o][i] in the
     *  blocked scalar order (prev must arrive zeroed). */
    void (*mlpBackwardLayer)(const double *weights, int in, int out,
                             bool hidden, const double *out_acts,
                             const double *adj, double *madj,
                             double *prev);

    /** One Adam update over a flat parameter vector, vectorized with
     *  a scalar ragged tail running the identical formula order. */
    void (*adamStep)(double *x, const double *g, double *m, double *v,
                     std::size_t n, double beta1, double beta2,
                     double corr1, double corr2, double lr,
                     double eps);

    /** fl(a*b)+c through this backend's mul/add — the FMA-contraction
     *  canary (must equal the separately-rounded scalar result). */
    double (*probeMulAdd)(double a, double b, double c);
};

/**
 * The backend the hot paths should call through. Resolved on first
 * use: widest compiled-in backend the CPU reports support for,
 * unless overridden by setPreferredWidth(). Cheap (one relaxed
 * atomic load) — but hot loops should still hoist the reference out
 * of per-row loops.
 */
const KernelSet &activeKernels();

/**
 * Force a backend by lane width: 0 restores auto-detection, 1 is the
 * scalar fallback, 2/4/8 select SSE2/NEON, AVX2, AVX-512. Returns
 * false (and changes nothing) if that width is not compiled in or
 * the CPU lacks it. Not synchronized against kernels already
 * running — switch between batches, not during one. The parity
 * tests and bench_tape use it; no user setting reaches it.
 */
bool setPreferredWidth(int width);

/** Lane width of the active backend (also the `simd.width` gauge). */
int activeWidth();

/** Name of the active backend ("scalar", "sse2", ...). */
const char *activeBackendName();

/**
 * Widths usable on this machine (compiled in AND supported by the
 * CPU), ascending; always contains 1.
 */
std::vector<int> availableWidths();

} // namespace simd
} // namespace felix

#endif // FELIX_SIMD_KERNELS_H_
