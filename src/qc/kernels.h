#ifndef QISET_QC_KERNELS_H
#define QISET_QC_KERNELS_H

/**
 * @file
 * Runtime-dispatched SIMD microkernels for the compile hot path.
 *
 * The NuOp BFGS multistarts, KAK magic-basis transforms, consolidation
 * ping-pong and Circuit::unitary all reduce to a handful of dense
 * complex-matrix primitives on 2x2/4x4 operands. This layer provides
 * those primitives as raw row-major kernels behind one dispatch table,
 * selected once at startup:
 *
 *   - AVX2 on x86-64 when the CPU supports it,
 *   - an always-correct scalar fallback everywhere else (aarch64
 *     included).
 *
 * BIT-IDENTITY CONTRACT: every tier performs exactly the same IEEE-754
 * operations in exactly the same order as the scalar reference — plain
 * mul/add/sub (no FMA contraction; the kernel sources build with
 * -ffp-contract=off), identical per-element accumulation order, and
 * the same structural-zero skips as the historical Matrix loops. A
 * matrix product, Kronecker product or trace overlap therefore yields
 * the same bits on every tier, which is what keeps the profile cache
 * keys, NuOp multistart seeds and golden IR hashes invariant across
 * hosts and lets the regression gate compare the tiers directly. The
 * SIMD speedup comes from width (4 doubles per instruction) and from
 * eliminating branches and temporaries, never from reassociation.
 *
 * Dispatch can be pinned for benchmarking and tests:
 *   - env QISET_KERNEL_TIER=scalar|avx2 (read at first use), or
 *     QISET_FORCE_SCALAR=1 as a shorthand for the scalar tier;
 *   - kernels::setTier("scalar") at runtime (the kernel-equivalence
 *     suite and bench_hotpath's scalar-baseline leg use this).
 */

#include <cstddef>
#include <vector>

#include "qc/matrix.h"

namespace qiset {
namespace kernels {

/**
 * One dispatch tier's kernel table. All pointers are row-major complex
 * arrays; output arrays must not alias inputs. Every function owns its
 * full output (zero-fills where the reference semantics start from
 * zeros), so callers never pre-clear.
 */
struct KernelOps
{
    /** Tier name: "scalar" or "avx2". */
    const char* tier;

    /**
     * out = a * b for 4x4 complex matrices, reproducing the historical
     * Matrix::operator* loop bit for bit: i-major, k-middle, j-inner
     * accumulation with the (i,k) structural-zero skip.
     */
    void (*mul4x4)(cplx* out, const cplx* a, const cplx* b);

    /** out = a * b for 2x2 complex matrices (same contract). */
    void (*mul2x2)(cplx* out, const cplx* a, const cplx* b);

    /** out = conj(transpose(in)) for an n x n matrix, n in {2, 4}. */
    void (*dagger)(cplx* out, const cplx* in, size_t n);

    /**
     * out(4x4) = a(2x2) (x) b(2x2), preserving the structural-zero
     * skip of Matrix::kron (zero a_ij entries leave +0.0 blocks).
     */
    void (*kron2x2)(cplx* out, const cplx* a, const cplx* b);

    /**
     * Hilbert-Schmidt dot sum_i conj(a[i]) * b[i] over `count`
     * elements, accumulated strictly in index order (the decomposition
     * fidelity of Eq. 2 is |hsDot| / dim — its bits feed the BFGS
     * line search, so the reduction order is part of the contract).
     */
    cplx (*hsDot)(const cplx* a, const cplx* b, size_t count);
};

/**
 * The active dispatch table. Resolved once on first use (honoring
 * QISET_KERNEL_TIER / QISET_FORCE_SCALAR); later setTier() calls
 * switch it process-wide.
 */
const KernelOps& active();

/** Name of the active tier ("scalar" or "avx2"). */
const char* tierName();

/**
 * Pin dispatch to a named tier.
 * @return false (no change) when the tier is unknown or the host
 *         cannot run it.
 */
bool setTier(const char* name);

/**
 * Kernel table of a named tier, or nullptr when this host cannot run
 * it. The equivalence test suite iterates every runnable tier through
 * this without disturbing the active dispatch.
 */
const KernelOps* opsForTier(const char* name);

/** Names of the tiers this host can run ("scalar" always included). */
std::vector<const char*> runnableTiers();

/**
 * Tier name an environment setting resolves to, given the values of
 * QISET_KERNEL_TIER and QISET_FORCE_SCALAR (either may be nullptr).
 * Unknown or unrunnable requests fall back to the best native tier.
 * Pure function, exposed for tests.
 */
const char* resolveTier(const char* tier_env, const char* force_scalar_env);

} // namespace kernels
} // namespace qiset

#endif // QISET_QC_KERNELS_H
