#ifndef QISET_COMPILER_TRANSLATE_H
#define QISET_COMPILER_TRANSLATE_H

/**
 * @file
 * Gate translation: rewrite routed application circuits into the
 * target instruction set using NuOp (Section V).
 *
 * Decomposition fidelity Fd for a (target unitary, gate type, layer
 * count) triple is independent of which edge the gate runs on, so the
 * pass computes a *fidelity profile* per (unitary, type) once and
 * reuses it across edges, circuits and instruction sets. The per-edge
 * noise-adaptive selection (Eq. 2) then only combines the cached Fd
 * values with the edge's calibrated fidelities.
 */

#include <map>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "common/arena.h"
#include "common/thread_pool.h"
#include "compiler/profile_cache.h"
#include "device/device.h"
#include "isa/gate_set.h"
#include "nuop/decomposer.h"
#include "nuop/decomposition_strategy.h"

namespace qiset {

/**
 * Gate specs an instruction set exposes (discrete + continuous),
 * with the analytic-availability tier each type advertises. Each is
 * named by its calibration key, in fidelityKeys() order.
 */
std::vector<GateSpec> gateSpecs(const GateSet& gate_set);

/**
 * Warm the cache for every distinct (2Q unitary, gate spec) pair of a
 * circuit: the lookup sweep translateCircuit runs, without selection
 * or emission. 2Q ops are grouped by the exact bytes of their unitary
 * and each group is looked up once per spec, in parallel across the
 * pool when provided (cooperatively — safe even when the caller is
 * itself a pool worker). Each lookup is tallied into `local`, when
 * given, once per block of its group (see ProfileCache::get), so the
 * counts equal one lookup per (2Q op, spec). `max_parallelism` caps
 * the threads used, including the caller (0 = no cap, 1 = serial).
 */
void precomputeProfiles(const Circuit& circuit,
                        const std::vector<GateSpec>& specs,
                        const NuOpDecomposer& decomposer,
                        const DecompositionStrategy& strategy,
                        ProfileCache& cache, ThreadPool* pool,
                        LocalCacheCounters* local = nullptr,
                        size_t max_parallelism = 0);

/** Outcome of selecting the best decomposition for one edge. */
struct GateChoice
{
    const GateProfile* profile = nullptr;
    const LayerFit* fit = nullptr;
    /** Calibrated fidelity of the chosen type on the edge. */
    double edge_fidelity = 1.0;
    /** Overall implementation fidelity Fu = Fd * Fh. */
    double overall = 0.0;
};

/**
 * Noise-adaptive selection (Eq. 2) across the profiles available on an
 * edge. In exact mode the smallest depth reaching the exact threshold
 * wins per type (when no fit reaches it, the best-Fu fit of any
 * fidelity wins; translation counts these as exact_fallbacks); in
 * approximate mode Fu is maximized over depths.
 * Exact Fu ties break deterministically — fewer layers first, then
 * lexicographically smaller gate-type name — so the choice never
 * depends on the order profiles are supplied in.
 */
GateChoice selectGate(const std::vector<const GateProfile*>& profiles,
                      const std::vector<double>& edge_fidelities,
                      double one_qubit_fidelity, bool approximate,
                      double exact_threshold);

/** A compiled circuit plus bookkeeping for simulation and metrics. */
struct TranslateResult
{
    Circuit circuit;
    /** Two-qubit native gate count (the paper's instruction count). */
    int two_qubit_count = 0;
    /** Native 2Q gates by type name. */
    std::map<std::string, int> type_usage;
    /** Product of per-gate fidelity estimates (compiler's Fu). */
    double estimated_fidelity = 1.0;
    /**
     * Profile-cache traffic of *this* translation only, one lookup per
     * (2Q block, gate spec) (global cache stats also include
     * concurrently-compiling circuits).
     */
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    /** 2Q blocks served by the analytic tier (engine == "kak"). */
    int analytic_ops = 0;
    /**
     * 2Q blocks whose canonical-representative dressing failed and
     * fell back to raw-keyed NuOp profiles. The fallback does happen
     * on near-identity controlled phases: 10 of the ~2,200 blocks of
     * a QFT-32 compile on Sycamore. Each distinct such unitary pays
     * cold BFGS solves, so a growing count flags a cold-path cliff.
     */
    int dressing_fallbacks = 0;
    /**
     * Exact-mode 2Q blocks for which no fit met the exact threshold,
     * so selectGate took the best-Fu fit of any fidelity (a lossy
     * zero-layer fit included): each such block is implemented only
     * approximately.
     */
    int exact_fallbacks = 0;

    TranslateResult() : circuit(1) {}
};

/**
 * Translate a routed circuit (register positions 0..n-1 hosted on
 * physical qubits `physical`) into native gates of the instruction
 * set, stamping error rates and durations from the device calibration.
 * The decomposition strategy chooses the engine per (unitary, gate
 * type); for canonicalizing strategies the cached circuit implements
 * the Weyl-chamber representative and is re-dressed here with the
 * exact local factors of each concrete target.
 *
 * Each distinct 2Q block unitary is resolved once per call — its
 * profiles (precomputeProfiles' sweep) and its dressing — and the
 * Eq. 2 selection then runs per block against that block's edge.
 * Scratch bumps from `arena` when given (the caller resets it after
 * the call), else from a call-local arena.
 */
TranslateResult translateCircuit(const Circuit& routed,
                                 const std::vector<int>& physical,
                                 const Device& device,
                                 const GateSet& gate_set,
                                 const NuOpDecomposer& decomposer,
                                 const DecompositionStrategy& strategy,
                                 ProfileCache& cache, bool approximate,
                                 ThreadPool* pool = nullptr,
                                 size_t max_parallelism = 0,
                                 MemArena* arena = nullptr);

/** Baseline overload: the "nuop" engine. */
TranslateResult translateCircuit(const Circuit& routed,
                                 const std::vector<int>& physical,
                                 const Device& device,
                                 const GateSet& gate_set,
                                 const NuOpDecomposer& decomposer,
                                 ProfileCache& cache, bool approximate,
                                 ThreadPool* pool = nullptr,
                                 size_t max_parallelism = 0);

} // namespace qiset

#endif // QISET_COMPILER_TRANSLATE_H
