/**
 * @file
 * Runtime CPU-feature dispatch between the compiled SIMD backends.
 *
 * Backends present in the binary are declared by the FELIX_HAVE_*
 * macros CMake defines alongside the backend translation units
 * (src/simd/CMakeLists.txt); at first use the widest backend the
 * CPU supports wins. The only override is setPreferredWidth(), the
 * in-process switch the parity tests and bench_tape use to reach
 * the other backends. The active lane width is published as the
 * `simd.width` gauge.
 */
#include "simd/kernels.h"

#include <atomic>
#include <mutex>

#include "obs/metrics.h"
#include "support/logging.h"

namespace felix {
namespace simd {

extern const KernelSet kKernelsScalar;
#ifdef FELIX_HAVE_SSE2_KERNELS
extern const KernelSet kKernelsSse2;
#endif
#ifdef FELIX_HAVE_AVX2_KERNELS
extern const KernelSet kKernelsAvx2;
#endif
#ifdef FELIX_HAVE_AVX512_KERNELS
extern const KernelSet kKernelsAvx512;
#endif
#ifdef FELIX_HAVE_NEON_KERNELS
extern const KernelSet kKernelsNeon;
#endif

namespace {

bool
cpuSupportsBackend(const KernelSet &set)
{
#if defined(__x86_64__) || defined(__i386__)
    switch (set.width) {
      case 1:
      case 2:
        return true; // SSE2 is baseline x86-64
      case 4:
        return __builtin_cpu_supports("avx2") != 0;
      case 8:
        return __builtin_cpu_supports("avx512f") != 0 &&
               __builtin_cpu_supports("avx512dq") != 0;
      default:
        return false;
    }
#else
    (void)set;
    return true; // scalar / NEON need no runtime check
#endif
}

/** Compiled-in backends, ascending width; scalar is always [0]. */
const KernelSet *const kCompiledSets[] = {
    &kKernelsScalar,
#ifdef FELIX_HAVE_SSE2_KERNELS
    &kKernelsSse2,
#endif
#ifdef FELIX_HAVE_NEON_KERNELS
    &kKernelsNeon,
#endif
#ifdef FELIX_HAVE_AVX2_KERNELS
    &kKernelsAvx2,
#endif
#ifdef FELIX_HAVE_AVX512_KERNELS
    &kKernelsAvx512,
#endif
};

std::atomic<const KernelSet *> g_active{nullptr};
std::mutex g_mutex;     // serializes resolution + overrides
int g_override = 0;     // 0 = auto; else a forced width

const KernelSet *
findWidth(int width)
{
    for (const KernelSet *set : kCompiledSets)
        if (set->width == width && cpuSupportsBackend(*set))
            return set;
    return nullptr;
}

const KernelSet *
widestSupported()
{
    const KernelSet *best = &kKernelsScalar;
    for (const KernelSet *set : kCompiledSets)
        if (set->width > best->width && cpuSupportsBackend(*set))
            best = set;
    return best;
}

void
publish(const KernelSet *set)
{
    g_active.store(set, std::memory_order_release);
    obs::MetricsRegistry::instance().gauge("simd.width").set(
        static_cast<double>(set->width));
    inform("simd: dispatching to ", set->name, " backend (",
           set->width, " lanes/vector)");
}

/** Resolve under g_mutex: override > widest. */
const KernelSet *
resolveLocked()
{
    if (g_override != 0) {
        if (const KernelSet *set = findWidth(g_override))
            return set;
    }
    return widestSupported();
}

} // namespace

const KernelSet &
activeKernels()
{
    const KernelSet *set = g_active.load(std::memory_order_acquire);
    if (set == nullptr) {
        std::lock_guard<std::mutex> lock(g_mutex);
        set = g_active.load(std::memory_order_acquire);
        if (set == nullptr) {
            set = resolveLocked();
            publish(set);
        }
    }
    return *set;
}

bool
setPreferredWidth(int width)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    if (width != 0 && findWidth(width) == nullptr)
        return false;
    g_override = width;
    publish(resolveLocked());
    return true;
}

int
activeWidth()
{
    return activeKernels().width;
}

const char *
activeBackendName()
{
    return activeKernels().name;
}

std::vector<int>
availableWidths()
{
    std::vector<int> widths;
    for (const KernelSet *set : kCompiledSets)
        if (cpuSupportsBackend(*set))
            widths.push_back(set->width);
    return widths;
}

} // namespace simd
} // namespace felix
