/**
 * @file
 * Shim left behind by the removed copy-and-patch tape JIT. Every tape
 * now runs through the batched SIMD interpreter (simd/kernels.h), so
 * both queries below are constant false.
 *
 * The only includer is the end-to-end benchmark
 * (e2ebench/bench_e2e.cc), which still reports a `jit` field in its
 * host fingerprint. The benchmark change that drops that field
 * deletes this header with it. Nothing else may include it.
 */
#ifndef FELIX_JIT_JIT_H_
#define FELIX_JIT_JIT_H_

namespace felix {
namespace jit {

/** No build compiles tapes to native code. */
inline bool
supported()
{
    return false;
}

/** No build compiles tapes to native code. */
inline bool
enabled()
{
    return false;
}

} // namespace jit
} // namespace felix

#endif // FELIX_JIT_JIT_H_
