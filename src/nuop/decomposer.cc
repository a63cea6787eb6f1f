#include "nuop/decomposer.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "qc/gates.h"

namespace qiset {

namespace {

/** FNV-1a over raw bytes, used to derive multistart seeds. */
uint64_t
fnvMix(uint64_t hash, const void* bytes, size_t size)
{
    const unsigned char* p = static_cast<const unsigned char*>(bytes);
    for (size_t i = 0; i < size; ++i) {
        hash ^= p[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

uint64_t
fnvMix(uint64_t hash, uint64_t value)
{
    return fnvMix(hash, &value, sizeof(value));
}

/**
 * Hash a matrix through its canonical quantized form — the same
 * rendering the decomposition profile cache keys on, so targets the
 * cache treats as equal always draw the same multistart seeds
 * (bit-different but key-equal unitaries must not race to fill one
 * cache slot with differently-seeded profiles).
 */
uint64_t
hashMatrix(uint64_t hash, const Matrix& m)
{
    hash = fnvMix(hash, m.rows());
    hash = fnvMix(hash, m.cols());
    std::string form = quantizedForm(m);
    return fnvMix(hash, form.data(), form.size());
}

} // namespace

HardwareGate
makeFixedGate(const std::string& name, const Matrix& unitary,
              double fidelity)
{
    HardwareGate gate;
    gate.name = name;
    gate.family = TemplateFamily::Fixed;
    gate.unitary = unitary;
    gate.fidelity = fidelity;
    return gate;
}

NuOpDecomposer::NuOpDecomposer(NuOpOptions options)
    : options_(std::move(options))
{
    QISET_REQUIRE(options_.max_layers >= 1, "max_layers must be >= 1");
    QISET_REQUIRE(options_.multistarts >= 1, "multistarts must be >= 1");
}

double
NuOpDecomposer::hardwareFidelity(const HardwareGate& gate, int layers) const
{
    double f2q = std::pow(gate.fidelity, layers);
    double f1q =
        std::pow(options_.one_qubit_fidelity, 2.0 * (layers + 1));
    return f2q * f1q;
}

double
NuOpDecomposer::bestFidelityForLayers(const Matrix& target,
                                      const HardwareGate& gate, int layers,
                                      std::vector<double>* params_out,
                                      NuOpScratch* shared) const
{
    QISET_REQUIRE(target.rows() == 4 && target.cols() == 4,
                  "NuOp targets are two-qubit unitaries");
    NuOpScratch local;
    NuOpScratch& scratch = shared ? *shared : local;
    TwoQubitTemplate templ =
        gate.family == TemplateFamily::Fixed
            ? TwoQubitTemplate(layers, gate.unitary)
            : TwoQubitTemplate(layers, gate.family);

    BfgsOptions bfgs = options_.bfgs;
    bfgs.stop_below =
        std::max(bfgs.stop_below, 0.1 * (1.0 - options_.exact_threshold));

    // Each callback captures one pointer, which std::function stores
    // inline: building them allocates nothing.
    struct Problem
    {
        const TwoQubitTemplate& templ;
        const Matrix& target;
        TwoQubitTemplate::BuildScratch& build;
    } problem{templ, target, scratch.build};
    const ObjectiveFn objective = [&problem](const std::vector<double>& x) {
        return problem.templ.infidelityWithScratch(x, problem.target,
                                                   problem.build);
    };
    const GradientFn gradient = [&problem](const std::vector<double>& x,
                                           std::vector<double>& grad) {
        problem.templ.infidelityGradient(x, problem.target, grad,
                                         problem.build);
    };

    // Seed deterministically per (target, gate, layers, start index):
    // each multistart draws from its own Rng, so the x0 of start k
    // never depends on how many earlier starts ran, which thread
    // computes the profile, or what was optimized before. Parallel and
    // serial compiles therefore produce bit-identical decompositions.
    uint64_t base_seed = fnvMix(options_.seed, gate.name.data(),
                                gate.name.size());
    base_seed = fnvMix(base_seed, static_cast<uint64_t>(layers));
    base_seed = hashMatrix(base_seed, target);

    double best = 1.0; // infidelity
    scratch.best_params.clear();
    int n = templ.numParams();

    // Starts run in blocks: each block's starting points are drawn up
    // front (per-start RNGs make the draws independent of evaluation
    // order — see the seeding comment above), then the starts run
    // back-to-back over the same BFGS workspace and template scratch,
    // keeping the working set cache-resident across starts. Selection
    // and the exact-threshold early exit replay after every start, so
    // results and the amount of optimization work both match the
    // historical one-start-at-a-time loop exactly.
    constexpr int kStartBlock = 4;
    if (scratch.block_x0.size() < static_cast<size_t>(kStartBlock))
        scratch.block_x0.resize(kStartBlock);
    bool done = false;
    for (int block = 0; block < options_.multistarts && !done;
         block += kStartBlock) {
        int count = std::min(kStartBlock, options_.multistarts - block);
        for (int i = 0; i < count; ++i) {
            // All starts random: the all-zero point is a symmetric
            // saddle of the trace-fidelity landscape and traps
            // gradient descent.
            Rng rng(fnvMix(base_seed,
                           static_cast<uint64_t>(block + i)));
            auto& x0 = scratch.block_x0[i];
            x0.resize(n);
            for (auto& value : x0)
                value = rng.uniform(0.0, 2.0 * gates::kPi);
        }
        for (int i = 0; i < count; ++i) {
            BfgsResult result =
                minimizeBfgs(objective, gradient,
                             std::move(scratch.block_x0[i]), bfgs,
                             &scratch.bfgs);
            if (result.value < best) {
                best = result.value;
                scratch.best_params = std::move(result.x);
            }
            if (best < 1.0 - options_.exact_threshold) {
                done = true;
                break;
            }
        }
    }
    if (params_out)
        *params_out = std::move(scratch.best_params);
    return 1.0 - best;
}

namespace {

Decomposition
makeDecomposition(const HardwareGate& gate, int layers, double fd,
                  double fh, std::vector<double> params, double threshold)
{
    Decomposition d;
    d.gate_name = gate.name;
    d.family = gate.family;
    d.gate_unitary = gate.unitary;
    d.layers = layers;
    d.decomposition_fidelity = fd;
    d.hardware_fidelity = fh;
    d.params = std::move(params);
    d.meets_threshold = fd >= threshold;
    return d;
}

} // namespace

Decomposition
NuOpDecomposer::decomposeExact(const Matrix& target,
                               const HardwareGate& gate) const
{
    Decomposition best;
    best.decomposition_fidelity = -1.0;
    NuOpScratch scratch;
    scratch.build.reserve(options_.max_layers);
    for (int layers = 0; layers <= options_.max_layers; ++layers) {
        std::vector<double> params;
        double fd = bestFidelityForLayers(target, gate, layers, &params,
                                          &scratch);
        if (fd > best.decomposition_fidelity) {
            best = makeDecomposition(gate, layers, fd,
                                     hardwareFidelity(gate, layers),
                                     std::move(params),
                                     options_.exact_threshold);
        }
        if (best.meets_threshold)
            break;
    }
    return best;
}

Decomposition
NuOpDecomposer::decomposeApproximate(const Matrix& target,
                                     const HardwareGate& gate) const
{
    Decomposition best;
    best.decomposition_fidelity = 0.0;
    best.hardware_fidelity = 0.0;
    NuOpScratch scratch;
    scratch.build.reserve(options_.max_layers);
    for (int layers = 0; layers <= options_.max_layers; ++layers) {
        double fh = hardwareFidelity(gate, layers);
        // Even a perfect Fd cannot beat the incumbent at this depth:
        // deeper templates only lose more hardware fidelity, so stop.
        if (fh <= best.overallFidelity())
            break;
        std::vector<double> params;
        double fd = bestFidelityForLayers(target, gate, layers, &params,
                                          &scratch);
        // Paper templates use >= 1 hardware gate: a zero-layer
        // (local-only) realization is only admissible when it is an
        // exact implementation, not a lossy approximation.
        if (layers == 0 && fd < options_.exact_threshold)
            continue;
        if (fd * fh > best.overallFidelity()) {
            best = makeDecomposition(gate, layers, fd, fh,
                                     std::move(params),
                                     options_.exact_threshold);
        }
        if (best.meets_threshold)
            break; // exact found; deeper circuits only add error.
    }
    return best;
}

Decomposition
NuOpDecomposer::decomposeBest(const Matrix& target,
                              const std::vector<HardwareGate>& gates,
                              bool approximate) const
{
    QISET_REQUIRE(!gates.empty(), "need at least one hardware gate type");
    Decomposition best;
    bool have = false;
    for (const auto& gate : gates) {
        if (gate.fidelity <= 0.0)
            continue; // gate type not calibrated on this pair.
        Decomposition d = approximate ? decomposeApproximate(target, gate)
                                      : decomposeExact(target, gate);
        bool better = !have ||
                      d.overallFidelity() > best.overallFidelity() ||
                      (d.overallFidelity() == best.overallFidelity() &&
                       d.layers < best.layers);
        if (better) {
            best = std::move(d);
            have = true;
        }
    }
    QISET_REQUIRE(have, "no calibrated gate type among the candidates");
    return best;
}

} // namespace qiset
