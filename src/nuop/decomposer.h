#ifndef QISET_NUOP_DECOMPOSER_H
#define QISET_NUOP_DECOMPOSER_H

/**
 * @file
 * NuOp: numerical-optimization gate decomposition (Section V).
 *
 * Given an application two-qubit unitary and one or more hardware gate
 * types, NuOp grows template circuits layer by layer, optimizes the
 * single-qubit angles with BFGS and selects the decomposition that
 * maximizes either the decomposition fidelity Fd alone (exact mode,
 * Eq. 1) or the product Fd * Fh of decomposition and hardware fidelity
 * (approximate / noise-aware mode, Eq. 2).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "nuop/bfgs.h"
#include "nuop/template_circuit.h"
#include "qc/matrix.h"

namespace qiset {

/** One hardware gate type available on a target qubit pair. */
struct HardwareGate
{
    /** Display name, e.g. "SYC", "CZ", "fSim(0.52,3.14)". */
    std::string name;
    /** Template family (Fixed for a concrete gate type). */
    TemplateFamily family = TemplateFamily::Fixed;
    /** Gate unitary (Fixed family only). */
    Matrix unitary;
    /** Calibrated hardware fidelity of this gate on this pair. */
    double fidelity = 1.0;
};

/** Convenience builder for a fixed hardware gate. */
HardwareGate makeFixedGate(const std::string& name, const Matrix& unitary,
                           double fidelity = 1.0);

/** Tuning parameters for NuOp. */
struct NuOpOptions
{
    /** Maximum template layers (paper: 10; <4 suffice in practice). */
    int max_layers = 8;
    /** Random multistarts per (target, gate, layers) optimization. */
    int multistarts = 4;
    /** Decomposition fidelity defining an "exact" decomposition. */
    double exact_threshold = 1.0 - 1e-9;
    /** Hardware fidelity assumed for every single-qubit gate in Fh. */
    double one_qubit_fidelity = 1.0;
    /**
     * Base seed for the multistart generator. Each start's initial
     * point is seeded per (target, gate, layers, start index), so
     * decompositions are pure functions of their inputs — identical
     * across serial and parallel compilation orders.
     */
    uint64_t seed = 17;
    /** Inner optimizer settings. */
    BfgsOptions bfgs;
};

/** Result of decomposing one application unitary into one gate type. */
struct Decomposition
{
    /** Name of the hardware gate chosen. */
    std::string gate_name;
    /** Template family of the chosen gate. */
    TemplateFamily family = TemplateFamily::Fixed;
    /** Unitary of the chosen gate (Fixed family). */
    Matrix gate_unitary;
    /** Number of two-qubit gate applications. */
    int layers = 0;
    /** Decomposition fidelity Fd (Eq. 1). */
    double decomposition_fidelity = 0.0;
    /** Hardware fidelity Fh of the decomposed circuit. */
    double hardware_fidelity = 1.0;
    /** Optimized template parameters (see TwoQubitTemplate layout). */
    std::vector<double> params;
    /** True when Fd met the exact threshold. */
    bool meets_threshold = false;

    /** Overall implementation fidelity Fu = Fd * Fh (Eq. 2). */
    double overallFidelity() const
    {
        return decomposition_fidelity * hardware_fidelity;
    }
};

/**
 * Preallocated scratch for one layer sweep: the BFGS workspace, the
 * template's matrix slots (every factor, U3 trig and running product
 * of the last build, plus the gradient's backward-sweep slots), the
 * block of multistart starting points, and the best parameter vector.
 * One instance serves a whole layer sweep — the profile ladder's or
 * decomposeExact/decomposeApproximate's; the sweep sizes the matrix
 * slots once for its deepest template and the other buffers are
 * resized per problem — so the optimizer's inner loops run
 * allocation-free after the first multistart block.
 */
struct NuOpScratch
{
    BfgsWorkspace bfgs;
    /** Matrix slots, sized once per sweep via build.reserve(). */
    TwoQubitTemplate::BuildScratch build;
    /** Starting points of the current multistart block. */
    std::vector<std::vector<double>> block_x0;
    /** Best parameters of the current layer count's multistarts. */
    std::vector<double> best_params;
};

/** The NuOp compilation pass core. */
class NuOpDecomposer
{
  public:
    explicit NuOpDecomposer(NuOpOptions options = {});

    const NuOpOptions& options() const { return options_; }

    /**
     * Best decomposition fidelity achievable with exactly `layers`
     * applications of the gate. Optionally returns the optimized
     * parameters. A layer sweep passes one `scratch` to every call
     * (see NuOpScratch); nullptr uses a per-call one. Results do not
     * depend on the scratch.
     */
    double bestFidelityForLayers(const Matrix& target,
                                 const HardwareGate& gate, int layers,
                                 std::vector<double>* params_out = nullptr,
                                 NuOpScratch* scratch = nullptr) const;

    /**
     * Exact decomposition: smallest layer count whose Fd reaches the
     * exact threshold (grows 0..max_layers; returns the best attempt
     * with meets_threshold=false if the threshold was never reached).
     */
    Decomposition decomposeExact(const Matrix& target,
                                 const HardwareGate& gate) const;

    /**
     * Approximate / noise-aware decomposition: maximize Fd * Fh over
     * layer counts (Eq. 2), pruning once deeper circuits cannot win.
     */
    Decomposition decomposeApproximate(const Matrix& target,
                                       const HardwareGate& gate) const;

    /**
     * Noise-adaptive selection across gate types: decompose with every
     * candidate and return the one with the best overall fidelity Fu.
     * @param approximate Use Eq. 2 (true) or exact mode (false).
     */
    Decomposition decomposeBest(const Matrix& target,
                                const std::vector<HardwareGate>& gates,
                                bool approximate = true) const;

    /** Fh for a gate repeated `layers` times with 1Q interleavings. */
    double hardwareFidelity(const HardwareGate& gate, int layers) const;

  private:
    NuOpOptions options_;
};

} // namespace qiset

#endif // QISET_NUOP_DECOMPOSER_H
