// Template-circuit tests (Fig. 4 structure).

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "nuop/bfgs.h"
#include "nuop/template_circuit.h"
#include "qc/gates.h"
#include "qc/kernels.h"
#include "qc/linalg.h"

namespace qiset {
namespace {

using namespace gates;

TEST(Template, ParamCounts)
{
    TwoQubitTemplate fixed(3, cz());
    EXPECT_EQ(fixed.numParams(), 6 * 4);
    TwoQubitTemplate xy_t(2, TemplateFamily::FullXy);
    EXPECT_EQ(xy_t.numParams(), 6 * 3 + 2);
    TwoQubitTemplate fsim_t(2, TemplateFamily::FullFsim);
    EXPECT_EQ(fsim_t.numParams(), 6 * 3 + 4);
}

TEST(Template, ZeroLayersIsLocalOnly)
{
    TwoQubitTemplate t(0, cz());
    std::vector<double> params(t.numParams(), 0.0);
    // All-zero U3s are identities.
    EXPECT_LT(t.build(params).maxAbsDiff(Matrix::identity(4)), 1e-12);
}

TEST(Template, OneLayerZeroU3sIsTheGate)
{
    TwoQubitTemplate t(1, sycamore());
    std::vector<double> params(t.numParams(), 0.0);
    EXPECT_LT(t.build(params).maxAbsDiff(sycamore()), 1e-12);
}

TEST(Template, BuildIsAlwaysUnitary)
{
    Rng rng(17);
    TwoQubitTemplate t(3, iswap());
    for (int trial = 0; trial < 10; ++trial) {
        std::vector<double> params(t.numParams());
        for (auto& p : params)
            p = rng.uniform(0.0, 2.0 * kPi);
        EXPECT_TRUE(t.build(params).isUnitary(1e-10));
    }
}

TEST(Template, InfidelityZeroWhenTargetIsRealizable)
{
    // Target: the template's own output for some parameter choice.
    TwoQubitTemplate t(2, sqrtIswap());
    Rng rng(23);
    std::vector<double> params(t.numParams());
    for (auto& p : params)
        p = rng.uniform(0.0, 2.0 * kPi);
    Matrix target = t.build(params);
    EXPECT_NEAR(t.infidelity(params, target), 0.0, 1e-12);
}

TEST(Template, InfidelityBoundedByOne)
{
    TwoQubitTemplate t(1, cz());
    std::vector<double> params(t.numParams(), 0.3);
    double inf = t.infidelity(params, swap());
    EXPECT_GE(inf, 0.0);
    EXPECT_LE(inf, 1.0);
}

TEST(Template, FullFsimLayerAnglesRoundTrip)
{
    TwoQubitTemplate t(2, TemplateFamily::FullFsim);
    std::vector<double> params(t.numParams(), 0.0);
    // Layer 0 gate params live right after the first 6 U3 angles.
    params[6] = 0.9;
    params[7] = 1.7;
    // Layer 1 gate params after 6 + 2 + 6 entries.
    params[14] = 0.2;
    params[15] = 0.4;
    auto angles0 = t.layerGateAngles(params, 0);
    auto angles1 = t.layerGateAngles(params, 1);
    EXPECT_NEAR(angles0[0], 0.9, 1e-12);
    EXPECT_NEAR(angles0[1], 1.7, 1e-12);
    EXPECT_NEAR(angles1[0], 0.2, 1e-12);
    EXPECT_NEAR(angles1[1], 0.4, 1e-12);
}

TEST(Template, LayerGateMatchesAngles)
{
    TwoQubitTemplate t(1, TemplateFamily::FullXy);
    std::vector<double> params(t.numParams(), 0.0);
    params[6] = 1.1; // XY angle of layer 0
    EXPECT_LT(t.layerGate(params, 0).maxAbsDiff(xy(1.1)), 1e-12);
}

TEST(Template, U3MatricesReconstructBuild)
{
    TwoQubitTemplate t(2, sycamore());
    Rng rng(31);
    std::vector<double> params(t.numParams());
    for (auto& p : params)
        p = rng.uniform(0.0, 2.0 * kPi);

    auto u3s = t.u3Matrices(params);
    ASSERT_EQ(u3s.size(), 6u);
    Matrix rebuilt = u3s[0].kron(u3s[1]);
    for (int layer = 0; layer < 2; ++layer) {
        rebuilt = t.layerGate(params, layer) * rebuilt;
        rebuilt =
            u3s[2 * (layer + 1)].kron(u3s[2 * (layer + 1) + 1]) * rebuilt;
    }
    EXPECT_LT(rebuilt.maxAbsDiff(t.build(params)), 1e-10);
}

TEST(Template, AdjointGradientMatchesCentralDifferences)
{
    // Every family at layers 0-6, 50 seeded points each (angles well
    // past +-2 pi): the adjoint gradient against numericalGradientInto
    // over infidelityWithScratch at eps 1e-5. Those central
    // differences err by about eps^2/6 times f's third derivative,
    // which grows where |Tr(T^dag U)| is small, plus a rounding error
    // near 1e-16 / eps. The worst point here differs by a few 1e-9,
    // so kTolerance keeps a margin of about 20, while a wrong partial
    // (a sign, a swapped factor, a missing stage) misses it by orders
    // of magnitude. The gradient must also be byte-identical under
    // the scalar kernel tier. One scratch, sized for a deeper
    // template, serves every adjoint call, as in a NuOp layer sweep.
    constexpr double kEps = 1e-5;
    constexpr double kTolerance = 1e-7;
    const std::string active_tier = kernels::tierName();
    const TemplateFamily families[] = {
        TemplateFamily::Fixed, TemplateFamily::FullXy,
        TemplateFamily::FullFsim, TemplateFamily::FullCphase};
    TwoQubitTemplate::BuildScratch shared;
    shared.reserve(8);
    TwoQubitTemplate::BuildScratch reference_scratch;
    std::vector<double> adjoint, scalar, reference, probe;
    double worst = 0.0;
    Rng rng(2026);
    for (TemplateFamily family : families) {
        for (int layers = 0; layers <= 6; ++layers) {
            TwoQubitTemplate t =
                family == TemplateFamily::Fixed
                    ? TwoQubitTemplate(layers, sycamore())
                    : TwoQubitTemplate(layers, family);
            for (int point = 0; point < 50; ++point) {
                Matrix target = haarRandomUnitary(4, rng);
                std::vector<double> x(t.numParams());
                for (double& value : x)
                    value = rng.uniform(-3.0 * kPi, 3.0 * kPi);
                ObjectiveFn objective = [&](const std::vector<double>& p) {
                    return t.infidelityWithScratch(p, target,
                                                   reference_scratch);
                };
                t.infidelityGradient(x, target, adjoint, shared);
                numericalGradientInto(objective, x, kEps, reference,
                                      probe);
                ASSERT_TRUE(kernels::setTier("scalar"));
                t.infidelityGradient(x, target, scalar, shared);
                ASSERT_TRUE(kernels::setTier(active_tier.c_str()));

                SCOPED_TRACE(::testing::Message()
                             << "family " << static_cast<int>(family)
                             << " layers " << layers << " point "
                             << point);
                ASSERT_EQ(adjoint.size(), x.size());
                ASSERT_EQ(reference.size(), x.size());
                for (size_t i = 0; i < x.size(); ++i) {
                    ASSERT_NEAR(adjoint[i], reference[i], kTolerance)
                        << "parameter " << i;
                    worst = std::max(worst,
                                     std::abs(adjoint[i] - reference[i]));
                }
                ASSERT_EQ(scalar.size(), x.size());
                ASSERT_EQ(std::memcmp(adjoint.data(), scalar.data(),
                                      x.size() * sizeof(double)),
                          0);
            }
        }
    }
    RecordProperty("worst_abs_diff", ::testing::PrintToString(worst));
}

TEST(Template, GradientIsZeroWhereTheOverlapVanishes)
{
    // The all-zero template is exactly the identity, and
    // Tr((Z (x) I)^dag I) is exactly 0: |w| has no gradient there.
    TwoQubitTemplate t(0, cz());
    std::vector<double> x(t.numParams(), 0.0);
    Matrix target = pauliZ().kron(identity1q());
    ASSERT_EQ(t.infidelity(x, target), 1.0);
    TwoQubitTemplate::BuildScratch scratch;
    std::vector<double> grad(3, 1.0);
    t.infidelityGradient(x, target, grad, scratch);
    EXPECT_EQ(grad, std::vector<double>(x.size(), 0.0));
}

TEST(Template, BuildMatchesScratchObjectiveBitwise)
{
    // build(), infidelity() and the scratch objective share one
    // product loop; a reused, larger scratch changes nothing.
    TwoQubitTemplate::BuildScratch scratch;
    scratch.reserve(6);
    Rng rng(4);
    for (int layers = 0; layers <= 3; ++layers) {
        TwoQubitTemplate t(layers, TemplateFamily::FullFsim);
        std::vector<double> x(t.numParams());
        for (double& value : x)
            value = rng.uniform(0.0, 2.0 * kPi);
        Matrix target = haarRandomUnitary(4, rng);
        double fresh = t.infidelity(x, target);
        double reused = t.infidelityWithScratch(x, target, scratch);
        EXPECT_EQ(std::memcmp(&fresh, &reused, sizeof(double)), 0);
        double from_build = 1.0 - traceFidelity(t.build(x), target);
        EXPECT_EQ(std::memcmp(&fresh, &from_build, sizeof(double)), 0);
    }
}

TEST(Template, FixedConstructorRejectsWrongShape)
{
    EXPECT_THROW(TwoQubitTemplate(1, hadamard()), FatalError);
}

TEST(Template, WrongParamArityThrows)
{
    TwoQubitTemplate t(1, cz());
    EXPECT_THROW(t.build(std::vector<double>(5, 0.0)), FatalError);
}

} // namespace
} // namespace qiset
