/**
 * @file
 * The process-wide SIMD lane width for batched (structure-of-arrays)
 * evaluation: the tape engine (expr/compiled.h) and the MLP inference
 * path (costmodel/mlp.h) evaluate up to kBatchLanes points in
 * lockstep, with every per-point buffer laid out as rows of exactly
 * kBatchLanes doubles.
 *
 * The width is a compile-time constant and the row stride of every
 * batched buffer, and it is pinned to a multiple of 8 so every row is
 * a whole number of vector registers for every SIMD backend in
 * src/support/simd.h (scalar x1, SSE2/NEON x2, AVX2 x4, AVX-512 x8)
 * — the row loops in src/simd/kernels_impl.h therefore never carry a
 * ragged tail. Ragged BATCHES (width < kBatchLanes) keep the full
 * row stride, so no layout depends on the width, but the kernels
 * sweep only the vector chunks that hold live lanes (a power-of-two
 * chunk count, each a compile-time trip count); padding lanes inside
 * a live chunk carry lane 0's values, and adjoint seeding is masked
 * to the live lanes. Arbitrary-length vectors (the Adam kernel) end
 * in a scalar remainder loop.
 *
 * kBatchLanes is deliberately a build-level constant
 * (-DFELIX_BATCH_LANES=N via the CMake cache variable) rather than
 * derived from each TU's target flags: TUs are compiled with
 * different -m flags (src/simd/), so a per-TU derivation would give
 * different row layouts per TU — an ODR disaster. Changing the value
 * changes which points share a batch, which is allowed to change
 * nothing (batch composition is schedule-independent, see
 * docs/tape_engine.md section 4).
 */
#ifndef FELIX_SUPPORT_BATCH_H_
#define FELIX_SUPPORT_BATCH_H_

#include <cstddef>

#ifndef FELIX_BATCH_LANES
#define FELIX_BATCH_LANES 16
#endif

namespace felix {

/** Lane count of every batched evaluation path (compile-time). */
inline constexpr std::size_t kBatchLanes = FELIX_BATCH_LANES;

static_assert(kBatchLanes >= 8 && kBatchLanes % 8 == 0,
              "kBatchLanes must be a positive multiple of 8 so SoA "
              "rows divide evenly into every SIMD backend width");

} // namespace felix

#endif // FELIX_SUPPORT_BATCH_H_
