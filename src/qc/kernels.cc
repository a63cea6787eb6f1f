#include "qc/kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace qiset {
namespace kernels {

// ------------------------------------------------------ scalar tier
//
// The reference semantics every SIMD tier must reproduce bit for bit.
// These loops are verbatim ports of the historical Matrix methods;
// this translation unit builds with -ffp-contract=off so no FMA
// contraction can sneak in on targets where the compiler would
// otherwise fuse (the SIMD tiers use explicit mul/add intrinsics for
// the same reason).

namespace {

template <size_t N>
void
scalarMul(cplx* out, const cplx* a, const cplx* b)
{
    for (size_t i = 0; i < N * N; ++i)
        out[i] = cplx(0.0, 0.0);
    for (size_t i = 0; i < N; ++i) {
        for (size_t k = 0; k < N; ++k) {
            cplx aik = a[i * N + k];
            if (aik == cplx(0.0, 0.0))
                continue;
            for (size_t j = 0; j < N; ++j)
                out[i * N + j] += aik * b[k * N + j];
        }
    }
}

void
scalarMul4x4(cplx* out, const cplx* a, const cplx* b)
{
    scalarMul<4>(out, a, b);
}

void
scalarMul2x2(cplx* out, const cplx* a, const cplx* b)
{
    scalarMul<2>(out, a, b);
}

void
scalarDagger(cplx* out, const cplx* in, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < n; ++j)
            out[j * n + i] = std::conj(in[i * n + j]);
}

void
scalarKron2x2(cplx* out, const cplx* a, const cplx* b)
{
    for (size_t i = 0; i < 16; ++i)
        out[i] = cplx(0.0, 0.0);
    for (size_t i = 0; i < 2; ++i)
        for (size_t j = 0; j < 2; ++j) {
            cplx aij = a[i * 2 + j];
            if (aij == cplx(0.0, 0.0))
                continue;
            for (size_t k = 0; k < 2; ++k)
                for (size_t l = 0; l < 2; ++l)
                    out[(i * 2 + k) * 4 + (j * 2 + l)] =
                        aij * b[k * 2 + l];
        }
}

cplx
scalarHsDot(const cplx* a, const cplx* b, size_t count)
{
    cplx sum(0.0, 0.0);
    for (size_t i = 0; i < count; ++i)
        sum += std::conj(a[i]) * b[i];
    return sum;
}

const KernelOps kScalarOps = {
    "scalar",      scalarMul4x4, scalarMul2x2,
    scalarDagger, scalarKron2x2, scalarHsDot,
};

} // namespace

// ------------------------------------------------------- dispatch
//
// The SIMD tier lives in its own translation unit (compiled with the
// ISA flags it needs) and exports a factory that returns its table
// when the host can run it, nullptr otherwise.

namespace detail {
const KernelOps* avx2Ops(); // kernels_avx2.cc
} // namespace detail

namespace {

/** Table of a named tier if runnable on this host, else nullptr. */
const KernelOps*
runnableOps(const char* name)
{
    if (!name)
        return nullptr;
    if (std::strcmp(name, "scalar") == 0)
        return &kScalarOps;
    if (std::strcmp(name, "avx2") == 0)
        return detail::avx2Ops();
    return nullptr;
}

const KernelOps*
bestNativeOps()
{
    if (const KernelOps* ops = detail::avx2Ops())
        return ops;
    return &kScalarOps;
}

std::atomic<const KernelOps*> g_active{nullptr};

} // namespace

const char*
resolveTier(const char* tier_env, const char* force_scalar_env)
{
    if (force_scalar_env && force_scalar_env[0] != '\0' &&
        std::strcmp(force_scalar_env, "0") != 0)
        return "scalar";
    if (const KernelOps* ops = runnableOps(tier_env))
        return ops->tier;
    return bestNativeOps()->tier;
}

const KernelOps&
active()
{
    const KernelOps* ops = g_active.load(std::memory_order_acquire);
    if (!ops) {
        // Benign race: concurrent first calls resolve to the same
        // table (the environment is fixed for the process lifetime).
        ops = runnableOps(resolveTier(
            std::getenv("QISET_KERNEL_TIER"),
            std::getenv("QISET_FORCE_SCALAR")));
        g_active.store(ops, std::memory_order_release);
    }
    return *ops;
}

const char*
tierName()
{
    return active().tier;
}

bool
setTier(const char* name)
{
    const KernelOps* ops = runnableOps(name);
    if (!ops)
        return false;
    active(); // ensure env resolution happened first
    g_active.store(ops, std::memory_order_release);
    return true;
}

const KernelOps*
opsForTier(const char* name)
{
    return runnableOps(name);
}

std::vector<const char*>
runnableTiers()
{
    std::vector<const char*> tiers;
    tiers.push_back("scalar");
    if (detail::avx2Ops())
        tiers.push_back("avx2");
    return tiers;
}

} // namespace kernels
} // namespace qiset
