// The fixed decomposition-engine set, analytic KAK synthesis and the
// Weyl-canonicalized profile cache.

#include <gtest/gtest.h>

#include "apps/qv.h"
#include "common/error.h"
#include "common/rng.h"
#include "compiler/translate.h"
#include "isa/gate_set.h"
#include "nuop/decomposition_strategy.h"
#include "nuop/template_circuit.h"
#include "qc/gates.h"

namespace qiset {
namespace {

using namespace gates;

NuOpOptions
fastNuOp()
{
    NuOpOptions opts;
    opts.max_layers = 4;
    opts.multistarts = 3;
    opts.exact_threshold = 1.0 - 1e-6;
    return opts;
}

GateSpec
czSpec()
{
    GateSpec spec{"S3", TemplateFamily::Fixed, cz(),
                  AnalyticTier::Unspecified};
    return spec;
}

GateSpec
iswapSpec()
{
    GateSpec spec{"S4", TemplateFamily::Fixed, iswap(),
                  AnalyticTier::Unspecified};
    return spec;
}

/** Fd of an analytic synthesis result against its target. */
double
synthesisFidelity(const AnalyticSynthesis& synthesis,
                  const GateSpec& spec, const Matrix& target)
{
    TwoQubitTemplate templ(synthesis.layers, spec.unitary);
    return 1.0 - templ.infidelity(synthesis.params, target);
}

/** The profile-cache key `strategy` builds for (target, spec). */
std::string
cacheKey(const DecompositionStrategy& strategy, const Matrix& target,
         const GateSpec& spec)
{
    std::string key;
    strategy.cacheKeyInto(key, target, spec);
    return key;
}

TEST(DecompositionEngines, MadeByName)
{
    for (const char* name : {"nuop", "auto"})
        EXPECT_EQ(makeDecompositionStrategy(name)->name(), name);
    // "kak" names the analytic tier's profiles, not an engine.
    for (const char* unknown : {"no-such-engine", "kak"}) {
        try {
            makeDecompositionStrategy(unknown);
            ADD_FAILURE() << "unknown engine name accepted: " << unknown;
        } catch (const FatalError& error) {
            // The message names every engine that does exist.
            EXPECT_NE(std::string(error.what()).find("known: auto nuop"),
                      std::string::npos)
                << error.what();
        }
    }
}

TEST(AnalyticSynthesisTest, SbmMinimalLayerCounts)
{
    // The analytic engine with a CZ-class gate must hit exactly the
    // Shende-Bullock-Markov minimal application count.
    Rng rng(21);
    struct Case
    {
        Matrix target;
        int layers;
    };
    std::vector<Case> cases = {
        {u3(0.3, 1.0, 2.0).kron(u3(1.7, 0.1, 0.9)), 0}, // local
        {cnot(), 1},
        {cz(), 1},
        {zz(0.37), 2},      // controlled-phase class
        {iswap(), 2},       // XY class (trace real)
        {swap(), 3},
        {randomSu4(rng), 3} // generic SU(4)
    };
    for (const auto& c : cases) {
        AnalyticSynthesis synthesis = kakSynthesize(c.target, czSpec());
        ASSERT_TRUE(synthesis.ok);
        EXPECT_EQ(synthesis.layers, c.layers);
        EXPECT_EQ(synthesis.layers, minimalCzCount(c.target));
        EXPECT_NEAR(synthesisFidelity(synthesis, czSpec(), c.target),
                    1.0, 1e-9);
    }
}

TEST(AnalyticSynthesisTest, RandomSu4SweepIsExact)
{
    Rng rng(22);
    for (int trial = 0; trial < 12; ++trial) {
        Matrix target = randomSu4(rng);
        AnalyticSynthesis synthesis = kakSynthesize(target, czSpec());
        ASSERT_TRUE(synthesis.ok) << trial;
        EXPECT_NEAR(synthesisFidelity(synthesis, czSpec(), target), 1.0,
                    1e-9)
            << trial;
    }
}

TEST(AnalyticSynthesisTest, NonCzGateServesOnlyItsOwnClass)
{
    // iSWAP is not CZ-class: one layer for iSWAP-class targets,
    // nothing for a generic SU(4).
    Matrix dressed_iswap =
        u3(0.4, 1.2, 0.7).kron(u3(2.2, 0.3, 1.9)) * iswap() *
        u3(1.0, 0.5, 2.8).kron(u3(0.2, 1.4, 0.6));
    AnalyticSynthesis one = kakSynthesize(dressed_iswap, iswapSpec());
    ASSERT_TRUE(one.ok);
    EXPECT_EQ(one.layers, 1);
    EXPECT_NEAR(synthesisFidelity(one, iswapSpec(), dressed_iswap), 1.0,
                1e-9);

    Rng rng(23);
    AnalyticSynthesis generic =
        kakSynthesize(randomSu4(rng), iswapSpec());
    EXPECT_FALSE(generic.ok);

    // Local targets still cost zero layers on any gate type.
    AnalyticSynthesis local = kakSynthesize(
        u3(0.9, 0.1, 1.1).kron(u3(0.2, 2.2, 0.5)), iswapSpec());
    ASSERT_TRUE(local.ok);
    EXPECT_EQ(local.layers, 0);
}

TEST(AnalyticSynthesisTest, AgreesWithNuOpAtExactThreshold)
{
    // Same layer count and threshold-meeting Fd as the BFGS ladder on
    // targets both engines solve exactly.
    NuOpDecomposer decomposer(fastNuOp());
    double threshold = decomposer.options().exact_threshold;
    for (const Matrix& target : {zz(0.3), cnot(), swap()}) {
        AnalyticSynthesis analytic = kakSynthesize(target, czSpec());
        ASSERT_TRUE(analytic.ok);
        GateProfile numeric = nuopDecompositionStrategy().computeProfile(
            target, czSpec(), decomposer);
        ASSERT_FALSE(numeric.fits.empty());
        const LayerFit& best = numeric.fits.back();
        EXPECT_GE(best.fd, threshold);
        EXPECT_EQ(analytic.layers, best.layers);
        EXPECT_GE(synthesisFidelity(analytic, czSpec(), target),
                  threshold);
    }
}

TEST(LocalEquivalenceSolver, RecoversDressingLocals)
{
    Rng rng(24);
    for (int trial = 0; trial < 8; ++trial) {
        Matrix u = randomSu4(rng);
        Matrix left = u3(rng.uniform(0, 6), rng.uniform(0, 6),
                         rng.uniform(0, 6))
                          .kron(u3(rng.uniform(0, 6), rng.uniform(0, 6),
                                   rng.uniform(0, 6)));
        Matrix right = u3(rng.uniform(0, 6), rng.uniform(0, 6),
                          rng.uniform(0, 6))
                           .kron(u3(rng.uniform(0, 6), rng.uniform(0, 6),
                                    rng.uniform(0, 6)));
        Matrix v = left * u * right;
        LocalEquivalence eq = localFactorsBetween(u, v);
        ASSERT_TRUE(eq.ok) << trial;
        Matrix rebuilt = (eq.left * u * eq.right) * eq.phase;
        EXPECT_LT(rebuilt.maxAbsDiff(v), 1e-9) << trial;
    }
}

TEST(LocalEquivalenceSolver, RejectsInequivalentPairs)
{
    EXPECT_FALSE(localFactorsBetween(cz(), swap()).ok);
    EXPECT_FALSE(localFactorsBetween(iswap(), zz(0.3)).ok);
}

TEST(CanonicalKeys, LocallyEquivalentTargetsShareOneEntry)
{
    // The cache-hit-rate multiplier: dressed variants of one
    // interaction class miss once and then hit.
    NuOpDecomposer decomposer(fastNuOp());
    auto automatic = makeDecompositionStrategy("auto");
    ProfileCache cache;
    Matrix base = zz(0.42);
    Matrix dressed = u3(0.8, 2.0, 0.1).kron(u3(1.1, 0.4, 2.6)) * base *
                     u3(0.3, 1.8, 0.9).kron(u3(2.4, 0.2, 1.2));
    EXPECT_EQ(cacheKey(*automatic, base, czSpec()),
              cacheKey(*automatic, dressed, czSpec()));
    auto first = cache.get(base, czSpec(), decomposer, *automatic);
    auto second = cache.get(dressed, czSpec(), decomposer, *automatic);
    EXPECT_EQ(first.get(), second.get());
    ProfileCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);

    // Different classes stay separate.
    EXPECT_NE(cacheKey(*automatic, zz(0.42), czSpec()),
              cacheKey(*automatic, zz(0.17), czSpec()));
    // Raw "nuop" keys keep dressed variants apart (pre-refactor
    // behavior).
    const DecompositionStrategy& nuop = nuopDecompositionStrategy();
    EXPECT_NE(cacheKey(nuop, base, czSpec()),
              cacheKey(nuop, dressed, czSpec()));
}

TEST(AutoStrategy, TiersAnalyticAndNumericFallback)
{
    NuOpDecomposer decomposer(fastNuOp());
    auto automatic = makeDecompositionStrategy("auto");
    // CZ spec on any SU(4): analytic engine serves it.
    Rng rng(25);
    Matrix generic = randomSu4(rng);
    GateProfile analytic =
        automatic->computeProfile(generic, czSpec(), decomposer);
    ASSERT_FALSE(analytic.fits.empty());
    EXPECT_EQ(analytic.engine, "kak");
    // A ladder of per-depth optimal approximations, exact at the SBM
    // minimum (three applications for a generic SU(4)).
    EXPECT_EQ(analytic.fits.back().layers, 3);
    EXPECT_GE(analytic.fits.back().fd,
              decomposer.options().exact_threshold);
    for (size_t f = 1; f < analytic.fits.size(); ++f)
        EXPECT_GE(analytic.fits[f].fd, analytic.fits[f - 1].fd);

    // iSWAP spec on a generic target: the analytic tier cannot hit
    // the exact threshold, so the BFGS ladder takes over.
    GateProfile numeric =
        automatic->computeProfile(generic, iswapSpec(), decomposer);
    EXPECT_EQ(numeric.engine, "nuop");
    EXPECT_GT(numeric.fits.size(), 1u);
}

TEST(AutoStrategy, ProfilesCanonicalRepresentative)
{
    NuOpDecomposer decomposer(fastNuOp());
    auto automatic = makeDecompositionStrategy("auto");
    Matrix dressed = u3(1.9, 0.3, 0.8).kron(u3(0.5, 1.1, 2.0)) * zz(0.31);
    GateProfile profile =
        automatic->computeProfile(dressed, czSpec(), decomposer);
    ASSERT_FALSE(profile.fits.empty());
    EXPECT_EQ(profile.engine, "kak");
    // The stored exact fit implements the class representative, not
    // the dressed target (the translator re-dresses at emission).
    Matrix representative = automatic->profileTarget(dressed);
    const LayerFit& exact = profile.fits.back();
    EXPECT_EQ(exact.layers, 2); // controlled-phase class
    TwoQubitTemplate templ(exact.layers, cz());
    EXPECT_NEAR(1.0 - templ.infidelity(exact.params, representative),
                1.0, 1e-9);
}

TEST(TranslateWithStrategies, AutoEmissionImplementsDressedTargets)
{
    // End-to-end: a circuit of dressed controlled-phase blocks and a
    // generic SU(4) translates exactly through the analytic tier,
    // including the canonical-representative re-dressing.
    Device d("pair", Topology::line(2));
    d.setEdgeFidelity(0, 1, "S3", 0.99);
    d.setOneQubitError(0, 0.001);
    d.setOneQubitError(1, 0.001);
    GateSet set = isa::singleTypeSet(3);
    NuOpDecomposer decomposer(fastNuOp());
    auto automatic = makeDecompositionStrategy("auto");
    ProfileCache cache;

    Rng rng(26);
    Circuit logical(2);
    logical.add2q(0, 1,
                  u3(0.7, 1.2, 0.4).kron(u3(2.1, 0.9, 1.5)) * zz(0.55),
                  "dressedZZ");
    logical.add2q(0, 1, randomSu4(rng), "SU4");

    TranslateResult result =
        translateCircuit(logical, {0, 1}, d, set, decomposer, *automatic,
                         cache, /*approximate=*/false);
    EXPECT_NEAR(traceFidelity(result.circuit.unitary(),
                              logical.unitary()),
                1.0, 1e-6);
    EXPECT_EQ(result.two_qubit_count, 2 + 3); // SBM-minimal: 2 + 3
    EXPECT_EQ(result.analytic_ops, 2);
}

TEST(TranslateWithStrategies, AutoMatchesNuOpFidelityInExactMode)
{
    // Exact-mode Fu parity: the analytic tier's minimal-depth exact
    // fits can only match or beat the BFGS ladder's.
    Device d("pair", Topology::line(2));
    d.setEdgeFidelity(0, 1, "S3", 0.99);
    d.setOneQubitError(0, 0.001);
    d.setOneQubitError(1, 0.001);
    GateSet set = isa::singleTypeSet(3);
    NuOpDecomposer decomposer(fastNuOp());

    Rng rng(27);
    Circuit logical(2);
    logical.add2q(0, 1, zz(0.8), "ZZ");
    logical.add2q(0, 1, randomSu4(rng), "SU4");

    ProfileCache nuop_cache;
    TranslateResult nuop_result = translateCircuit(
        logical, {0, 1}, d, set, decomposer, nuop_cache, false);
    ProfileCache auto_cache;
    auto automatic = makeDecompositionStrategy("auto");
    TranslateResult auto_result =
        translateCircuit(logical, {0, 1}, d, set, decomposer,
                         *automatic, auto_cache, false);
    EXPECT_GE(auto_result.estimated_fidelity + 1e-9,
              nuop_result.estimated_fidelity);
    EXPECT_LE(auto_result.two_qubit_count, nuop_result.two_qubit_count);
    EXPECT_EQ(auto_result.analytic_ops, 2);
    EXPECT_EQ(nuop_result.analytic_ops, 0);
}

TEST(U3AngleExtraction, RoundTripsRepresentativeMatrices)
{
    Rng rng(28);
    std::vector<Matrix> cases = {
        Matrix::identity(2),
        pauliX(),
        pauliZ(),
        hadamard(),
        rz(0.4) * std::exp(cplx(0.0, -0.785398163)), // phased diagonal
        u3(2.1, 0.3, 5.9),
    };
    for (int trial = 0; trial < 6; ++trial)
        cases.push_back(u3(rng.uniform(0, 6.28), rng.uniform(0, 6.28),
                           rng.uniform(0, 6.28)) *
                        std::exp(cplx(0.0, rng.uniform(0, 6.28))));
    for (const Matrix& m : cases) {
        auto angles = u3Angles(m);
        EXPECT_NEAR(traceFidelity(u3(angles[0], angles[1], angles[2]), m),
                    1.0, 1e-9);
    }
}

} // namespace
} // namespace qiset
