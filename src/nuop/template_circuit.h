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
     * Reusable matrix scratch for the template product: one slot per
     * U3 factor, Kronecker pair, continuous-family layer gate and
     * running product of the last build, plus the slots a
     * finite-difference probe rebuilds (one factor, its pair and the
     * running products above it). Every matrix is SBO-inline
     * (<= 4x4), so the slot vector is the scratch's only allocation;
     * reserve() sizes it once for a whole layer sweep, and reusing
     * one scratch across the ~10^5 objective evaluations of a BFGS
     * multistart sweep keeps the optimizer's inner loop
     * allocation-free.
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
     * Central-difference gradient of infidelityWithScratch at x, into
     * `grad`: bit-identical to numericalGradientInto (bfgs.h) over
     * that objective, at a fraction of its cost. The template is
     * built once at x; each of the 2n probes then recomputes only
     * the factor its angle moves (a U3, or a continuous family's
     * layer gate), that factor's pair and the running products above
     * it. Every kernel call sees the bytes the full probe build would
     * give it, so every probe value is bit-identical to
     * infidelityWithScratch at the probe point.
     */
    void infidelityGradient(const std::vector<double>& x,
                            const Matrix& target, double eps,
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
        Matrix* u3;            ///< 2(layers+1): [a0, b0, a1, b1, ...]
        Matrix* pair;          ///< layers+1: a_b (x) b_b
        Matrix* gate;          ///< layers: continuous-family gates
        Matrix* product;       ///< 2 layers+1: [j] is stage j's
                               ///< running product (stage 0's is
                               ///< pair[0], so [0] stays unused)
        Matrix* probe_product; ///< 2 layers+1: a probe's products
        Matrix* probe_u3;      ///< a probe's U3
        Matrix* probe_pair;    ///< a probe's pair
        Matrix* probe_gate;    ///< a probe's layer gate
    };

    /** Slots of this template in `scratch` (sizing it if needed). */
    Slots slotsIn(BuildScratch& scratch) const;

    /** Continuous-family layer gate from its 1 or 2 angles. */
    void layerGateInto(Matrix& out, const double* angles) const;

    /**
     * The one template product loop, from stage `from` up. Stage 2b
     * multiplies pair b onto the running product from the left, stage
     * 2L+1 the gate of layer L; `factor` stands in for stage `from`'s
     * own factor and `below` is the running product under it
     * (nullptr at stage 0, whose running product is its pair).
     * Stages above `from` read their factors from the slots. Stage
     * j's product lands in out[j]; returns the top product.
     */
    const Matrix& productsFrom(int from, const Matrix& factor,
                               const Matrix* below, Matrix* out,
                               const Slots& slots) const;

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
