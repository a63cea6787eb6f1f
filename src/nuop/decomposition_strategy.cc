#include "nuop/decomposition_strategy.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"
#include "nuop/decomposer.h"
#include "qc/gates.h"
#include "qc/linalg.h"

namespace qiset {

namespace {

const cplx kI(0.0, 1.0);

/** Normalize a 4x4 unitary into SU(4) (branch of the principal root). */
Matrix
toSu4(const Matrix& u)
{
    Matrix su = u;
    cplx det = determinant(su);
    su *= (cplx(1.0, 0.0) / std::pow(det, 0.25));
    return su;
}

/** exp(i t X) as a 2x2 matrix. */
Matrix
expIx(double t)
{
    Matrix m(2, 2);
    m(0, 0) = std::cos(t);
    m(0, 1) = kI * std::sin(t);
    m(1, 0) = kI * std::sin(t);
    m(1, 1) = std::cos(t);
    return m;
}

/** exp(i t Z) as a 2x2 matrix. */
Matrix
expIz(double t)
{
    Matrix m(2, 2);
    m(0, 0) = std::exp(kI * t);
    m(1, 1) = std::exp(-kI * t);
    return m;
}

/**
 * Two-CNOT reference circuit CX (e^{ixX} (x) e^{iyZ}) CX
 * == exp(i (x XX + y ZZ)): one representative of every trace-real
 * (Weyl z == 0) local-equivalence class.
 */
Matrix
twoCnotReference(double x, double y)
{
    return gates::cnot() * expIx(x).kron(expIz(y)) * gates::cnot();
}

/** The canonical CZ-class interaction exp(i pi/4 ZZ). */
Matrix
czInteraction()
{
    WeylCoordinates c{0.0, 0.0, gates::kPi / 4.0};
    return canonicalGate(c);
}

/** Append the U3 angle blocks of a 4x4 tensor-product local. */
bool
appendLocalBlock(std::vector<double>& params, const Matrix& local)
{
    auto [a, b] = decomposeLocalUnitary(local);
    // Reject splits that lost weight (non-tensor input slipping
    // through): the factors must reproduce the local up to phase.
    if (1.0 - traceFidelity(a.kron(b), local) > 1e-7)
        return false;
    for (double angle : gates::u3Angles(a))
        params.push_back(angle);
    for (double angle : gates::u3Angles(b))
        params.push_back(angle);
    return true;
}

AnalyticTier
resolveTier(const GateSpec& spec)
{
    if (spec.family != TemplateFamily::Fixed)
        return AnalyticTier::None;
    if (spec.analytic != AnalyticTier::Unspecified)
        return spec.analytic;
    return analyticTier(spec.unitary);
}

} // namespace

WeylCoordinates
canonicalWeylCoordinates(const Matrix& target)
{
    WeylCoordinates c = weylCoordinates(target);
    auto quantize = [](double v) {
        double r = std::round(v * 1e9) / 1e9;
        return r == 0.0 ? 0.0 : r; // normalize -0
    };
    c.cx = quantize(c.cx);
    c.cy = quantize(c.cy);
    c.cz = quantize(c.cz);
    return c;
}

AnalyticSynthesis
kakSynthesize(const Matrix& target, const GateSpec& spec)
{
    AnalyticSynthesis out;
    if (target.rows() != 4 || target.cols() != 4)
        return out;
    Matrix su = toSu4(target);

    // Depth 0: local targets split exactly, for every gate family.
    int minimal = minimalCzCount(su);
    if (minimal == 0) {
        std::vector<double> params;
        if (!appendLocalBlock(params, su))
            return out;
        out.ok = true;
        out.layers = 0;
        out.params = std::move(params);
        return out;
    }

    AnalyticTier tier = resolveTier(spec);
    if (tier == AnalyticTier::None)
        return out;

    // Depth 1: any fixed gate implements its own local-equivalence
    // class with one application.
    if (tier == AnalyticTier::LocalEquivalence || minimal == 1) {
        LocalEquivalence eq = localFactorsBetween(spec.unitary, su);
        if (!eq.ok)
            return out; // not this gate's class (or not reachable).
        std::vector<double> params;
        if (!appendLocalBlock(params, eq.right) ||
            !appendLocalBlock(params, eq.left))
            return out;
        out.ok = true;
        out.layers = 1;
        out.params = std::move(params);
        return out;
    }

    // CZ-class gates: express the reference CNOTs of the two- and
    // three-layer constructions in terms of the actual hardware gate.
    LocalEquivalence gate_eq =
        localFactorsBetween(spec.unitary, gates::cnot());
    if (!gate_eq.ok)
        return out;

    if (minimal == 2) {
        // Trace-real class: target ~ exp(i (x XX + y ZZ)).
        WeylCoordinates c = weylCoordinates(su);
        if (std::abs(c.cz) > 1e-6)
            return out;
        Matrix reference = twoCnotReference(c.cx, c.cy);
        LocalEquivalence eq = localFactorsBetween(reference, su);
        if (!eq.ok)
            return out;
        Matrix mid = expIx(c.cx).kron(expIz(c.cy));
        std::vector<double> params;
        if (!appendLocalBlock(params, gate_eq.right * eq.right) ||
            !appendLocalBlock(params,
                              gate_eq.right * mid * gate_eq.left) ||
            !appendLocalBlock(params, eq.left * gate_eq.left))
            return out;
        out.ok = true;
        out.layers = 2;
        out.params = std::move(params);
        return out;
    }

    // Generic class, three applications. Align one CZ interaction so
    // the remainder becomes trace-real: with W = P diag(e^{2i th}) P^T
    // the magic-basis Gram matrix of the target and B = O D O^T
    // (D = diag(1,-1,-1,1), the Gram matrix of exp(i pi/4 ZZ) up to i),
    // Im tr gamma(target * L * CZ) = Re tr(B W) =
    // cos(2t) (v_p - v_q) + v_r - v_s over v_j = cos(2 th_j) — a
    // closed-form Givens angle t zeroes it (|v_s - v_r| <= |v_p - v_q|
    // once p/q take the extreme values).
    KakDecomposition kak = kakDecompose(su);
    double v[4];
    for (int j = 0; j < 4; ++j)
        v[j] = std::cos(2.0 * kak.thetas[j]);
    int order[4] = {0, 1, 2, 3};
    std::sort(order, order + 4, [&](int a, int b) { return v[a] > v[b]; });
    int p = order[0], q = order[3], r = order[1], s = order[2];
    double denom = v[p] - v[q];
    double cos2t =
        std::abs(denom) < 1e-12 ? 1.0 : (v[s] - v[r]) / denom;
    cos2t = std::max(-1.0, std::min(1.0, cos2t));
    double t = 0.5 * std::acos(cos2t);

    // O's columns follow D's sign pattern (+,-,-,+): the Givens-mixed
    // +1/-1 pair on slots (p, q), then the pure -1 and +1 slots.
    Matrix o_frame(4, 4);
    o_frame(p, 0) = std::cos(t);
    o_frame(q, 0) = std::sin(t);
    o_frame(p, 1) = -std::sin(t);
    o_frame(q, 1) = std::cos(t);
    o_frame(s, 2) = 1.0;
    o_frame(r, 3) = 1.0;
    if (determinant(o_frame).real() < 0.0)
        for (int i = 0; i < 4; ++i)
            o_frame(i, 3) = -o_frame(i, 3);
    Matrix mb = magicBasis();
    Matrix align = mb * (kak.magic_p * o_frame) * mb.dagger();

    Matrix cz_rep = czInteraction();
    Matrix reduced = su * align * cz_rep;
    WeylCoordinates c = weylCoordinates(reduced);
    if (std::abs(c.cz) > 1e-6)
        return out; // alignment failed numerically; let NuOp handle it.
    Matrix reference = twoCnotReference(c.cx, c.cy);
    LocalEquivalence eq = localFactorsBetween(reference, reduced);
    if (!eq.ok)
        return out;
    LocalEquivalence cz_eq =
        localFactorsBetween(spec.unitary, cz_rep.dagger());
    if (!cz_eq.ok)
        return out;

    // su = eq.left * CX * mid * CX * eq.right * cz_rep^dag * align^dag
    // with CX = gate_eq.left * G * gate_eq.right (up to phases).
    Matrix mid = expIx(c.cx).kron(expIz(c.cy));
    std::vector<double> params;
    if (!appendLocalBlock(params, cz_eq.right * align.dagger()) ||
        !appendLocalBlock(params,
                          gate_eq.right * eq.right * cz_eq.left) ||
        !appendLocalBlock(params, gate_eq.right * mid * gate_eq.left) ||
        !appendLocalBlock(params, eq.left * gate_eq.left))
        return out;
    out.ok = true;
    out.layers = 3;
    out.params = std::move(params);
    return out;
}

// ---------------------------------------------------------------- engines

namespace {

/**
 * The historical BFGS profile ladder: fits for layer counts 0..max
 * until the exact threshold is reached. The "nuop" engine (and the
 * tiered fallback) must keep this loop bit-identical — seeds are a
 * pure function of (target, gate, layers, start index).
 */
GateProfile
nuopLadder(const Matrix& target, const GateSpec& spec,
           const NuOpDecomposer& decomposer)
{
    GateProfile profile;
    profile.type_name = spec.type_name;
    profile.family = spec.family;
    profile.unitary = spec.unitary;
    profile.engine = "nuop";

    HardwareGate gate;
    gate.name = spec.type_name;
    gate.family = spec.family;
    gate.unitary = spec.unitary;

    double threshold = decomposer.options().exact_threshold;
    NuOpScratch scratch;
    scratch.build.reserve(decomposer.options().max_layers);
    for (int layers = 0; layers <= decomposer.options().max_layers;
         ++layers) {
        LayerFit fit;
        fit.layers = layers;
        fit.fd = decomposer.bestFidelityForLayers(target, gate, layers,
                                                  &fit.params, &scratch);
        profile.fits.push_back(std::move(fit));
        if (profile.fits.back().fd >= threshold)
            break;
    }
    return profile;
}

/** Fd of a parameter vector against a target under the spec's gate. */
double
fitFidelity(const GateSpec& spec, int layers,
            const std::vector<double>& params, const Matrix& target)
{
    TwoQubitTemplate templ =
        spec.family == TemplateFamily::Fixed
            ? TwoQubitTemplate(layers, spec.unitary)
            : TwoQubitTemplate(layers, spec.family);
    return 1.0 - templ.infidelity(params, target);
}

/** Verified exact analytic fit of a representative, or false. */
bool
analyticFit(const Matrix& representative, const GateSpec& spec,
            LayerFit& fit)
{
    AnalyticSynthesis synthesis = kakSynthesize(representative, spec);
    if (!synthesis.ok)
        return false;
    double fd = fitFidelity(spec, synthesis.layers, synthesis.params,
                            representative);
    // Sanity floor: a construction that silently degraded is worse
    // than an honest NuOp fallback.
    if (fd < 1.0 - 1e-6)
        return false;
    fit.layers = synthesis.layers;
    fit.fd = fd;
    fit.params = std::move(synthesis.params);
    return true;
}

/**
 * Best analytic *approximation* of the representative at `depth`
 * applications: synthesize the projection of its Weyl coordinates
 * onto the depth-reachable set exactly, and measure the honest Fd.
 * For CZ-class gates the projections ((0,0,0) -> (pi/4,0,0) ->
 * (x,y,0)) are the fidelity-optimal depth-m classes, so these fits
 * dominate what the BFGS ladder can find at the same depth.
 */
bool
analyticApproxFit(const Matrix& representative,
                  const WeylCoordinates& coords, const GateSpec& spec,
                  AnalyticTier tier, int depth, LayerFit& fit)
{
    if (depth == 0) {
        // Best local (gate-free) approximation of a canonical gate.
        fit.layers = 0;
        fit.params.assign(6, 0.0);
        fit.fd = fitFidelity(spec, 0, fit.params, representative);
        return true;
    }
    std::vector<WeylCoordinates> projections;
    if (depth == 1) {
        if (tier == AnalyticTier::Universal) {
            projections.push_back({gates::kPi / 4.0, 0.0, 0.0});
        } else if (spec.family == TemplateFamily::Fixed) {
            // Non-CZ gate: its own class, both chiralities.
            WeylCoordinates own = canonicalWeylCoordinates(spec.unitary);
            projections.push_back(own);
            if (own.cz != 0.0)
                projections.push_back({own.cx, own.cy, -own.cz});
        }
    } else if (depth == 2 && tier == AnalyticTier::Universal) {
        projections.push_back({coords.cx, coords.cy, 0.0});
    }
    bool found = false;
    for (const WeylCoordinates& projection : projections) {
        AnalyticSynthesis synthesis =
            kakSynthesize(canonicalGate(projection), spec);
        if (!synthesis.ok)
            continue;
        double fd = fitFidelity(spec, synthesis.layers, synthesis.params,
                                representative);
        if (!found || fd > fit.fd) {
            fit.layers = synthesis.layers;
            fit.fd = fd;
            fit.params = std::move(synthesis.params);
            found = true;
        }
    }
    return found;
}

/**
 * The analytic counterpart of nuopLadder: fits for increasing depths
 * — optimal approximations below the SBM-minimal exact depth, the
 * exact construction at it — stopping at the exact threshold, so
 * loose thresholds legally pick shallower circuits exactly as the
 * BFGS ladder would (the Eq. 2 trade is decided at selection time).
 */
GateProfile
kakLadder(const Matrix& representative, const GateSpec& spec,
          const NuOpDecomposer& decomposer)
{
    GateProfile profile;
    profile.type_name = spec.type_name;
    profile.family = spec.family;
    profile.unitary = spec.unitary;
    profile.engine = "kak";

    double threshold = decomposer.options().exact_threshold;
    AnalyticTier tier = resolveTier(spec);
    WeylCoordinates coords = weylCoordinates(representative);

    int exact_depth = -1;
    if (minimalCzCount(representative) == 0)
        exact_depth = 0;
    else if (tier == AnalyticTier::Universal)
        exact_depth = minimalCzCount(representative);
    else if (tier == AnalyticTier::LocalEquivalence &&
             localFactorsBetween(spec.unitary, representative).ok)
        exact_depth = 1;

    int max_depth = tier == AnalyticTier::Universal ? 3 : 1;
    if (tier == AnalyticTier::None)
        max_depth = 0;
    max_depth = std::min(max_depth, decomposer.options().max_layers);

    for (int depth = 0; depth <= max_depth; ++depth) {
        LayerFit fit;
        bool ok = depth == exact_depth
                      ? analyticFit(representative, spec, fit)
                      : analyticApproxFit(representative, coords, spec,
                                          tier, depth, fit);
        if (!ok)
            break;
        profile.fits.push_back(std::move(fit));
        if (profile.fits.back().fd >= threshold)
            break;
        if (depth == exact_depth)
            break; // deeper fits cannot improve on exact.
    }
    return profile;
}

class NuOpStrategy : public DecompositionStrategy
{
  public:
    std::string name() const override { return "nuop"; }

    void targetKeyInto(std::string& out,
                       const Matrix& target) const override
    {
        // quantizedForm is shared with the NuOp multistart seeding, so
        // key-equal targets always draw identical seeds.
        appendQuantizedForm(out, target);
    }

    GateProfile computeProfile(const Matrix& target, const GateSpec& spec,
                               const NuOpDecomposer& decomposer)
        const override
    {
        return nuopLadder(target, spec, decomposer);
    }
};

class AutoStrategy : public DecompositionStrategy
{
  public:
    std::string name() const override { return "auto"; }

    bool canonicalizesTargets() const override { return true; }

    Matrix profileTarget(const Matrix& target) const override
    {
        return canonicalGate(canonicalWeylCoordinates(target));
    }

    void targetKeyInto(std::string& out,
                       const Matrix& target) const override
    {
        appendClassKey(out, canonicalWeylCoordinates(target));
    }

    void targetKeyAndRepresentativeInto(std::string& out,
                                        Matrix& representative,
                                        const Matrix& target)
        const override
    {
        WeylCoordinates c = canonicalWeylCoordinates(target);
        appendClassKey(out, c);
        representative = canonicalGate(c);
    }

    GateProfile computeProfile(const Matrix& target, const GateSpec& spec,
                               const NuOpDecomposer& decomposer)
        const override
    {
        Matrix representative = profileTarget(target);
        GateProfile analytic = kakLadder(representative, spec, decomposer);
        if (!analytic.fits.empty() &&
            analytic.fits.back().fd >=
                decomposer.options().exact_threshold) {
            // Analytic tier hit at the exact threshold: bypass the
            // BFGS hot path entirely. The ladder's per-depth optimal
            // approximations keep Eq. 2 free to prefer a shallower
            // circuit at selection time, just as it could with NuOp.
            return analytic;
        }
        // Numerical fallback (still canonical-keyed, so locally
        // equivalent targets keep sharing the BFGS result).
        return nuopLadder(representative, spec, decomposer);
    }

  private:
    /** The canonical class's key part: its rounded Weyl coordinates. */
    static void
    appendClassKey(std::string& out, const WeylCoordinates& c)
    {
        out += "w|";
        appendFixed(out, c.cx, 9);
        out += '|';
        appendFixed(out, c.cy, 9);
        out += '|';
        appendFixed(out, c.cz, 9);
    }
};

} // namespace

std::unique_ptr<DecompositionStrategy>
makeDecompositionStrategy(const std::string& name)
{
    if (name == "nuop")
        return std::make_unique<NuOpStrategy>();
    if (name == "auto")
        return std::make_unique<AutoStrategy>();
    fatal("unknown decomposition strategy \"", name,
          "\"; known: auto nuop");
}

const DecompositionStrategy&
nuopDecompositionStrategy()
{
    static const NuOpStrategy strategy;
    return strategy;
}

} // namespace qiset
