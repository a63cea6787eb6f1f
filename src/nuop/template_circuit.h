#ifndef QISET_NUOP_TEMPLATE_CIRCUIT_H
#define QISET_NUOP_TEMPLATE_CIRCUIT_H

/**
 * @file
 * NuOp template circuits (Fig. 4 of the paper).
 *
 * A template with i layers alternates arbitrary single-qubit rotations
 * and a two-qubit hardware gate:
 *
 *     (U3 (x) U3) . G . (U3 (x) U3) . G . ... . (U3 (x) U3)
 *
 * For a fixed hardware gate type, the optimization variables are the
 * 6(i+1) single-qubit angles. For the Full-XY / Full-fSim continuous
 * families, the two-qubit gate angles join the variable set (1 or 2
 * extra per layer).
 */

#include <vector>

#include "qc/matrix.h"

namespace qiset {

/** What the two-qubit slots of a template contain. */
enum class TemplateFamily
{
    /** A fixed 4x4 gate unitary repeated in every layer. */
    Fixed,
    /** XY(theta) with theta a free variable per layer. */
    FullXy,
    /** fSim(theta, phi) with both angles free per layer. */
    FullFsim,
    /**
     * CZ(phi) with phi a free variable per layer — the continuous
     * Controlled-Phase family of Lacroix et al. (paper ref. [13]).
     */
    FullCphase,
};

/** Parameterized two-qubit decomposition template. */
class TwoQubitTemplate
{
  public:
    /** Template whose layers all use the given fixed hardware gate. */
    TwoQubitTemplate(int layers, Matrix fixed_gate);

    /** Template over a continuous gate family. */
    TwoQubitTemplate(int layers, TemplateFamily family);

    int layers() const { return layers_; }
    TemplateFamily family() const { return family_; }

    /** Total number of optimization variables. */
    int numParams() const;

    /** Build the 4x4 unitary realized by the given parameter vector. */
    Matrix build(const std::vector<double>& params) const;

    /**
     * Reusable matrix scratch for the template product and its
     * gradient: one slot per U3 factor, Kronecker pair (plus one for
     * its two U3s' trig), continuous-family layer gate and running
     * product of the last build, and the gradient's backward sweep
     * (two adjoint slots and one environment slot). Every matrix is
     * SBO-inline (<= 4x4), so the slot vector is the scratch's only
     * allocation; reserve() sizes it once for a whole layer sweep, and
     * reusing one scratch across the ~10^5 objective and gradient
     * evaluations of a BFGS multistart sweep keeps the optimizer's
     * inner loop allocation-free. The first 2(layers+1) slots hold the
     * last build's U3 factors in execution order [a0, b0, a1, b1, ...].
     */
    struct BuildScratch
    {
        /** Size the slots for templates of up to `layers` layers. */
        void reserve(int layers);

        std::vector<Matrix> slots;
    };

    /**
     * Decomposition infidelity 1 - Fd against a target unitary, where
     * Fd = |Tr(Ud^dagger Ut)| / 4 (Eq. 1, phase-invariant).
     */
    double infidelity(const std::vector<double>& params,
                      const Matrix& target) const;

    /**
     * infidelity() over reusable scratch — the allocation-free BFGS
     * objective. Bit-identical to infidelity().
     */
    double infidelityWithScratch(const std::vector<double>& params,
                                 const Matrix& target,
                                 BuildScratch& scratch) const;

    /**
     * Exact gradient of infidelityWithScratch at x, into `grad`, by
     * one forward build and one backward sweep (the adjoint method):
     * the build, then infidelityGradientFromBuild. With U = F_2L ...
     * F_1 F_0 the template's stage factors (pairs at even stages,
     * layer gates at odd ones), P_j = F_j ... F_0 the build's running
     * products and R_j = T^dag F_2L ... F_(j+1), each stage's
     * environment E_j = P_(j-1) R_j gives w = Tr(T^dag U) =
     * Tr(E_j F_j), so every angle of stage j differentiates w as a
     * trace of E_j against its factor's closed-form derivative. The
     * result agrees with numericalGradientInto to within its
     * truncation error, and is byte-identical on every kernel tier. A
     * target orthogonal to the template's unitary (|Tr(T^dag U)| = 0,
     * where |w| has no gradient) gets the zero vector.
     */
    void infidelityGradient(const std::vector<double>& x,
                            const Matrix& target,
                            std::vector<double>& grad,
                            BuildScratch& scratch) const;

    /**
     * The backward sweep of infidelityGradient alone, over the build
     * that `scratch` already holds: that build must be of this
     * template at x, as infidelityWithScratch(x, target, scratch)
     * leaves it. It reads the build's factors, running products and
     * U3 trig, so it recomputes no factor and no cos/sin/exp of a U3
     * angle, and writes exactly what infidelityGradient writes. NuOp's
     * BFGS gradient is this sweep (minimizeBfgs evaluates the
     * objective at every point it then differentiates); on one host a
     * sweep cost about one objective evaluation, where the build plus
     * sweep cost about two (docs/benchmarks.md, bench_nuop_perf).
     */
    void infidelityGradientFromBuild(const std::vector<double>& x,
                                     const Matrix& target,
                                     std::vector<double>& grad,
                                     BuildScratch& scratch) const;

    /**
     * Angles of the two-qubit gate in a given layer for a parameter
     * vector (continuous families only): {theta} or {theta, phi}.
     */
    std::vector<double> layerGateAngles(const std::vector<double>& params,
                                        int layer) const;

    /**
     * The 2(layers+1) single-qubit U3 matrices of the template in
     * execution order [a0, b0, a1, b1, ...] (a acts on the first
     * qubit). Used when emitting the optimized decomposition as a
     * circuit.
     */
    std::vector<Matrix> u3Matrices(const std::vector<double>& params) const;

    /**
     * u3Matrices into a caller-owned vector. The translator emits one
     * block per two-qubit op; reusing the vector (and the inline
     * storage of the matrices already in it) keeps that loop
     * allocation-free after the first block.
     */
    void u3MatricesInto(const std::vector<double>& params,
                        std::vector<Matrix>& out) const;

    /** The two-qubit gate applied in a layer for a parameter vector. */
    Matrix layerGate(const std::vector<double>& params, int layer) const;

  private:
    /** Number of parameters consumed by each two-qubit slot. */
    int gateParamsPerLayer() const;

    /** Slots a `layers`-layer template uses in a BuildScratch. */
    static size_t slotCount(int layers);

    /** Where each kind of matrix lives in a BuildScratch's slots. */
    struct Slots
    {
        Matrix* u3;      ///< 2(layers+1): [a0, b0, a1, b1, ...]
        Matrix* trig;    ///< layers+1, 2x4: row k of [b] holds
                         ///< u3[2b+k]'s cos(alpha/2) + i sin(alpha/2),
                         ///< e^(i beta), e^(i lambda), e^(i(beta+lambda))
        Matrix* pair;    ///< layers+1: a_b (x) b_b
        Matrix* gate;    ///< layers: continuous-family gates
        Matrix* product; ///< 2 layers+1: [j] is stage j's running
                         ///< product (stage 0's is pair[0], so [0]
                         ///< stays unused)
        Matrix* adjoint; ///< 2: the gradient's R_j, ping-ponged
        Matrix* env;     ///< 1: the gradient's stage environment
    };

    /** Slots of this template in `scratch` (sizing it if needed). */
    Slots slotsIn(BuildScratch& scratch) const;

    /** Continuous-family layer gate from its 1 or 2 angles. */
    void layerGateInto(Matrix& out, const double* angles) const;

    /**
     * Stage j's factor: pair j/2 at even stages, the layer gate of
     * layer j/2 at odd ones.
     */
    const Matrix& stageFactor(const Slots& slots, int stage) const;

    /** The running product P_j = F_j ... F_0 of the last build. */
    const Matrix& runningProduct(const Slots& slots, int stage) const;

    /**
     * Build every factor and running product of params into the
     * scratch; returns the top product (valid until the scratch is
     * next used).
     */
    const Matrix& buildWithScratch(const std::vector<double>& params,
                                   BuildScratch& scratch) const;

    int layers_;
    TemplateFamily family_;
    Matrix fixed_gate_;
};

} // namespace qiset

#endif // QISET_NUOP_TEMPLATE_CIRCUIT_H
