#ifndef QISET_NUOP_DECOMPOSITION_STRATEGY_H
#define QISET_NUOP_DECOMPOSITION_STRATEGY_H

/**
 * @file
 * Pluggable two-qubit decomposition engines.
 *
 * Translation is a policy, not a fixed algorithm: how a (target
 * unitary, hardware gate type) pair turns into a fidelity profile is
 * delegated to a DecompositionStrategy that makeDecompositionStrategy()
 * builds from CompileOptions::decomposition (mirroring RoutingStrategy
 * for SWAP routing). The set of engines is fixed:
 *
 *  - "nuop": the paper's numerical engine — BFGS multistarts over
 *    layered templates (Section V). Bit-identical to the historical
 *    hard-wired path.
 *  - "auto": tiered — take the analytic path (Cartan synthesis, see
 *    kakSynthesize) whenever it reaches the exact threshold, fall
 *    back to NuOp otherwise. Analytically, local targets cost zero
 *    layers, any target locally equivalent to the gate costs one, and
 *    CZ-class gates synthesize every SU(4) target in the
 *    Shende-Bullock-Markov minimal count (1/2/3) with closed-form
 *    locals. This bypasses the BFGS hot path (the dominant cold-cache
 *    compile cost) on every analytically reachable target. Profiles
 *    the analytic tier serves carry the engine tag "kak".
 *
 * "auto" additionally canonicalizes cache keys by Weyl-chamber
 * coordinates: locally-equivalent targets (rampant across the QFT/QAOA
 * controlled-phase families once routing and consolidation dress them
 * with 1Q factors) share one profile entry, and the translator
 * re-dresses the cached circuit with the exact local factors at
 * emission time (localFactorsBetween).
 */

#include <memory>
#include <string>
#include <vector>

#include "nuop/kak.h"
#include "nuop/template_circuit.h"
#include "qc/matrix.h"

namespace qiset {

class NuOpDecomposer;

/** Best achievable Fd and parameters at one template depth. */
struct LayerFit
{
    int layers = 0;
    double fd = 0.0;
    std::vector<double> params;
};

/** All layer fits of one (target unitary, hardware gate type) pair. */
struct GateProfile
{
    /** Calibration key: "S1".."S7", "SWAP", "XY" or "fSim". */
    std::string type_name;
    TemplateFamily family = TemplateFamily::Fixed;
    Matrix unitary; // Fixed family only.
    std::vector<LayerFit> fits;
    /**
     * Engine that computed the fits: "nuop" for the BFGS ladder, "kak"
     * for the analytic tier of "auto".
     */
    std::string engine = "nuop";
};

/** Hardware gate specification a profile is computed against. */
struct GateSpec
{
    std::string type_name;
    TemplateFamily family = TemplateFamily::Fixed;
    Matrix unitary;
    /**
     * Analytic availability this spec advertises (filled by
     * gateSpecs() from the instruction set; Unspecified resolves from
     * the unitary on first use).
     */
    AnalyticTier analytic = AnalyticTier::Unspecified;
};

/**
 * One decomposition engine. Implementations must be deterministic:
 * key-equal targets must produce bit-identical profiles regardless of
 * thread or call order (the shared ProfileCache relies on it).
 */
class DecompositionStrategy
{
  public:
    virtual ~DecompositionStrategy() = default;

    /** Engine name ("nuop" or "auto"). */
    virtual std::string name() const = 0;

    /**
     * True when profiles are stored against the Weyl-canonical
     * representative of the target's local-equivalence class and the
     * translator must re-dress emitted circuits per concrete target.
     */
    virtual bool canonicalizesTargets() const { return false; }

    /**
     * The representative unitary the profile is computed and stored
     * against: the target itself for raw-keyed engines, the rounded
     * Weyl-chamber canonical gate for canonicalizing ones. Key-equal
     * targets always share one representative bit for bit.
     */
    virtual Matrix profileTarget(const Matrix& target) const
    {
        return target;
    }

    /**
     * Append the target part of the profile-cache key of `target` to
     * `out`: quantizedForm(target) for "nuop", "w|cx|cy|cz" (the
     * rounded Weyl coordinates, 9 decimals each) for "auto". The part
     * depends on the target only, so the translator renders it once
     * per distinct block and shares it across gate specs. ProfileCache
     * composes the full key "<name()>|<spec type>|<target part>", so
     * different engines never collide inside one shared cache, and
     * key-equal targets must have equal representatives.
     */
    virtual void targetKeyInto(std::string& out,
                               const Matrix& target) const = 0;

    /**
     * Compute the full layer-fit profile of decomposing
     * profileTarget(target) with the gate type. The decomposer
     * supplies the NuOp settings (layer bound, exact threshold,
     * multistart seeds) every engine honors.
     */
    virtual GateProfile
    computeProfile(const Matrix& target, const GateSpec& spec,
                   const NuOpDecomposer& decomposer) const = 0;
};

/**
 * Build the engine called `name` ("nuop" or "auto"). Throws
 * FatalError for any other name (the message lists the known ones).
 */
std::unique_ptr<DecompositionStrategy>
makeDecompositionStrategy(const std::string& name);

/**
 * Shared immutable instance of the baseline "nuop" engine — the
 * default for entry points that take no engine name.
 */
const DecompositionStrategy& nuopDecompositionStrategy();

/**
 * Weyl-chamber coordinates of `target` rounded to the canonical key
 * precision (exposed so tests and the translator agree with the
 * engines on class membership bit for bit).
 */
WeylCoordinates canonicalWeylCoordinates(const Matrix& target);

/**
 * Analytic synthesis of `target` into `layers` applications of the
 * fixed gate in `spec` with NuOp-encoded U3 parameters. Exposed for
 * tests; engines call it through computeProfile. Returns fits.params
 * empty (ok=false) when the analytic tier cannot reach the target.
 */
struct AnalyticSynthesis
{
    bool ok = false;
    int layers = 0;
    /** 6*(layers+1) U3 angles in TwoQubitTemplate encoding. */
    std::vector<double> params;
};
AnalyticSynthesis kakSynthesize(const Matrix& target,
                                const GateSpec& spec);

} // namespace qiset

#endif // QISET_NUOP_DECOMPOSITION_STRATEGY_H
