/**
 * @file
 * Runtime-dispatched SIMD kernel table for the hot SoA loops: tape
 * forward/backward (expr/compiled.cc), the blocked batched MLP
 * layer, mask and weight-gradient kernels (costmodel/mlp.cc), and
 * the Adam parameter update (optim/adam.cc, costmodel/mlp.cc).
 *
 * The row kernels take the live-lane count of their batch and sweep
 * only the vector chunks that hold those lanes: ceil(lanes / W)
 * chunks, rounded up to a power of two so every body keeps a
 * compile-time trip count. Rows keep their kBatchLanes stride.
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
     *  kBatchLanes-wide SoA slot buffer. Only the live chunks are
     *  swept; the rest of every row is left as it was. */
    void (*tapeForward)(const expr::TapeProgram &program,
                        double *vals, std::size_t lanes);
    /** Reverse sweep of CompiledExprs::finishBackwardBatch over
     *  the live chunks (seeding and input-gradient extraction stay
     *  with the caller). */
    void (*tapeBackward)(const expr::TapeProgram &program,
                         const double *vals, double *adjs,
                         std::size_t lanes);

    /** One batched MLP layer forward over the live chunks:
     *  out_rows[o*L+l] from cur[i*L+l], with ReLU when hidden. Over
     *  transposed weights and a zero bias it is also the input
     *  gradient of a layer (Mlp::forwardInputGradStaged). */
    void (*mlpForwardLayer)(const double *weights, const double *bias,
                            int in, int out, bool hidden,
                            const double *cur, double *out_rows,
                            std::size_t lanes);
    /** The masking half of one layer's backward: madj = adj where
     *  the layer's ReLU gate is open (out_acts > 0), +0.0 where it
     *  is closed; a copy of adj for the linear head. */
    void (*mlpBackwardLayer)(int out, bool hidden,
                             const double *out_acts,
                             const double *adj, double *madj,
                             std::size_t lanes);
    /** One training chunk's share of a block of weight-gradient rows
     *  (Mlp::trainBatch): for every row r < rows and input i, the sum
     *  over samples s < n of madj[r*madj_stride+s] * x[s*in+i],
     *  formed from +0.0 in ascending s, is added to gw[r*in+i]; the
     *  sum of the madj row is added to gb[r] the same way. x holds
     *  the chunk's layer inputs lane-major (one sample's inputs
     *  contiguous), so the sweep vectorizes across inputs. */
    void (*mlpWeightGrad)(const double *madj, std::size_t madj_stride,
                          const double *x, int in, int rows, int n,
                          double *gw, double *gb);

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
