// BFGS optimizer tests on standard problems.

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "nuop/bfgs.h"
#include "nuop/template_circuit.h"
#include "qc/gates.h"
#include "qc/linalg.h"

namespace qiset {
namespace {

/**
 * Closed-form objectives differentiate by central differences, with
 * the default step.
 */
GradientFn
centralDifferences(const ObjectiveFn& f)
{
    return [f](const std::vector<double>& x, std::vector<double>& grad) {
        grad = numericalGradient(f, x);
    };
}

/**
 * Every objective and gradient call of one minimizeBfgs run, in call
 * order, with the point each was made at.
 */
struct CallLog
{
    struct Call
    {
        bool gradient;
        std::vector<double> x;
    };
    std::vector<Call> calls;

    ObjectiveFn
    objective(ObjectiveFn f)
    {
        return [this, f](const std::vector<double>& x) {
            calls.push_back({false, x});
            return f(x);
        };
    }

    GradientFn
    gradient(GradientFn g)
    {
        return [this, g](const std::vector<double>& x,
                         std::vector<double>& grad) {
            calls.push_back({true, x});
            g(x, grad);
        };
    }

    size_t
    count(bool gradients) const
    {
        size_t n = 0;
        for (const Call& call : calls)
            n += call.gradient == gradients;
        return n;
    }
};

/**
 * The GradientFn contract: every gradient call comes right after an
 * objective call at bitwise the same x, the first pair at x0.
 */
void
expectGradientsFollowTheirObjective(const CallLog& log,
                                    const std::vector<double>& x0)
{
    ASSERT_GE(log.calls.size(), 2u);
    ASSERT_FALSE(log.calls[0].gradient);
    ASSERT_TRUE(log.calls[1].gradient);
    ASSERT_EQ(log.calls[0].x.size(), x0.size());
    EXPECT_EQ(std::memcmp(log.calls[0].x.data(), x0.data(),
                          x0.size() * sizeof(double)),
              0);
    for (size_t k = 1; k < log.calls.size(); ++k) {
        if (!log.calls[k].gradient)
            continue;
        const CallLog::Call& before = log.calls[k - 1];
        ASSERT_FALSE(before.gradient) << "call " << k;
        ASSERT_EQ(before.x.size(), log.calls[k].x.size());
        EXPECT_EQ(std::memcmp(before.x.data(), log.calls[k].x.data(),
                              before.x.size() * sizeof(double)),
                  0)
            << "call " << k;
    }
}

double
rosenbrock(const std::vector<double>& x)
{
    double a = 1.0 - x[0];
    double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
}

void
rosenbrockGradient(const std::vector<double>& x, std::vector<double>& grad)
{
    double b = x[1] - x[0] * x[0];
    grad.assign({-2.0 * (1.0 - x[0]) - 400.0 * x[0] * b, 200.0 * b});
}

TEST(Bfgs, GradientComesRightAfterTheObjectiveAtTheSamePoint)
{
    // NuOp's gradient reads the build its objective has just made, so
    // every exit path must keep the contract: the tolerances, the
    // iteration cap and a failed line search.
    const std::vector<double> x0 = {-1.2, 1.0};
    {
        SCOPED_TRACE("Rosenbrock to convergence (backtracking)");
        CallLog log;
        BfgsOptions opts;
        opts.max_iterations = 2000;
        BfgsResult r = minimizeBfgs(log.objective(rosenbrock),
                                    log.gradient(rosenbrockGradient), x0,
                                    opts);
        EXPECT_TRUE(r.converged);
        EXPECT_NEAR(r.x[0], 1.0, 1e-6);
        // Rejected line-search points: more objective calls than
        // gradient calls.
        EXPECT_GT(log.count(false), log.count(true) + 10);
        expectGradientsFollowTheirObjective(log, x0);
    }
    {
        SCOPED_TRACE("iteration cap");
        CallLog log;
        BfgsOptions opts;
        opts.max_iterations = 3;
        BfgsResult r = minimizeBfgs(log.objective(rosenbrock),
                                    log.gradient(rosenbrockGradient), x0,
                                    opts);
        EXPECT_FALSE(r.converged);
        EXPECT_EQ(r.iterations, 3);
        EXPECT_EQ(log.count(true), 4u);
        expectGradientsFollowTheirObjective(log, x0);
    }
    {
        SCOPED_TRACE("stop_below");
        CallLog log;
        BfgsOptions opts;
        opts.stop_below = 1.0;
        BfgsResult r = minimizeBfgs(log.objective(rosenbrock),
                                    log.gradient(rosenbrockGradient), x0,
                                    opts);
        EXPECT_TRUE(r.converged);
        EXPECT_LT(r.value, 1.0);
        EXPECT_GT(r.iterations, 1);
        expectGradientsFollowTheirObjective(log, x0);
    }
    {
        SCOPED_TRACE("gradient_tol");
        CallLog log;
        const std::vector<double> at_minimum = {1.0, 1.0};
        BfgsResult r = minimizeBfgs(log.objective(rosenbrock),
                                    log.gradient(rosenbrockGradient),
                                    at_minimum);
        EXPECT_TRUE(r.converged);
        EXPECT_EQ(r.iterations, 1);
        EXPECT_EQ(log.calls.size(), 2u);
        expectGradientsFollowTheirObjective(log, at_minimum);
    }
    {
        // A gradient of the wrong sign: every step along -H g climbs,
        // so all 40 halvings of the line search fail.
        SCOPED_TRACE("failed line search");
        CallLog log;
        auto uphill = [](const std::vector<double>& x,
                         std::vector<double>& grad) {
            rosenbrockGradient(x, grad);
            for (double& g : grad)
                g = -g;
        };
        BfgsResult r = minimizeBfgs(log.objective(rosenbrock),
                                    log.gradient(uphill), x0);
        EXPECT_TRUE(r.converged);
        EXPECT_EQ(r.iterations, 1);
        EXPECT_EQ(log.count(true), 1u);
        EXPECT_EQ(log.count(false), 41u);
        expectGradientsFollowTheirObjective(log, x0);
    }
}

TEST(Bfgs, MinimizesConvexQuadratic)
{
    // f(x) = (x0 - 1)^2 + 10 (x1 + 2)^2
    auto f = [](const std::vector<double>& x) {
        return (x[0] - 1.0) * (x[0] - 1.0) +
               10.0 * (x[1] + 2.0) * (x[1] + 2.0);
    };
    BfgsResult r = minimizeBfgs(f, centralDifferences(f), {0.0, 0.0});
    EXPECT_NEAR(r.x[0], 1.0, 1e-5);
    EXPECT_NEAR(r.x[1], -2.0, 1e-5);
    EXPECT_LT(r.value, 1e-9);
}

TEST(Bfgs, SolvesRosenbrock)
{
    auto f = [](const std::vector<double>& x) {
        double a = 1.0 - x[0];
        double b = x[1] - x[0] * x[0];
        return a * a + 100.0 * b * b;
    };
    BfgsOptions opts;
    opts.max_iterations = 2000;
    BfgsResult r = minimizeBfgs(f, centralDifferences(f), {-1.2, 1.0}, opts);
    EXPECT_NEAR(r.x[0], 1.0, 1e-3);
    EXPECT_NEAR(r.x[1], 1.0, 1e-3);
}

TEST(Bfgs, HandlesTrigLandscape)
{
    // Smooth periodic objective similar to gate-fidelity landscapes.
    auto f = [](const std::vector<double>& x) {
        return 2.0 - std::cos(x[0]) - std::cos(x[1] - 0.5);
    };
    BfgsResult r = minimizeBfgs(f, centralDifferences(f), {0.4, 0.1});
    EXPECT_LT(r.value, 1e-8);
}

TEST(Bfgs, StopBelowShortCircuits)
{
    int evals = 0;
    auto f = [&](const std::vector<double>& x) {
        ++evals;
        return x[0] * x[0];
    };
    BfgsOptions opts;
    opts.stop_below = 1e-2;
    BfgsResult r = minimizeBfgs(f, centralDifferences(f), {0.05}, opts);
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.iterations, 1);
}

TEST(Bfgs, EmptyInputThrows)
{
    auto f = [](const std::vector<double>&) { return 0.0; };
    EXPECT_THROW(minimizeBfgs(f, centralDifferences(f), {}), FatalError);
}

TEST(Bfgs, HighDimensionalQuadratic)
{
    // Dimensions comparable to a 5-layer NuOp template (36 angles).
    const size_t n = 36;
    auto f = [](const std::vector<double>& x) {
        double sum = 0.0;
        for (size_t i = 0; i < x.size(); ++i) {
            double d = x[i] - 0.1 * static_cast<double>(i);
            sum += (1.0 + 0.1 * i) * d * d;
        }
        return sum;
    };
    std::vector<double> x0(n, 1.0);
    BfgsOptions opts;
    opts.max_iterations = 500;
    BfgsResult r = minimizeBfgs(f, centralDifferences(f), x0, opts);
    EXPECT_LT(r.value, 1e-8);
}

TEST(NumericalGradient, MatchesAnalyticGradient)
{
    auto f = [](const std::vector<double>& x) {
        return std::sin(x[0]) * std::exp(x[1]);
    };
    std::vector<double> x = {0.7, -0.3};
    auto g = numericalGradient(f, x);
    EXPECT_NEAR(g[0], std::cos(0.7) * std::exp(-0.3), 1e-6);
    EXPECT_NEAR(g[1], std::sin(0.7) * std::exp(-0.3), 1e-6);
}

TEST(Bfgs, ReportsIterationCount)
{
    auto f = [](const std::vector<double>& x) { return x[0] * x[0]; };
    BfgsResult r = minimizeBfgs(f, centralDifferences(f), {2.0});
    EXPECT_GE(r.iterations, 1);
    EXPECT_TRUE(r.converged);
}

TEST(Bfgs, TemplateGradientRunsConvergeLikeCentralDifferences)
{
    // NuOp's objective under its adjoint template gradient and under
    // the plain central-difference reference, from the same start and
    // at the default iteration cap: both runs converge, to the same
    // final infidelity within kValueTolerance. The two gradients
    // differ by the reference's truncation error, so the runs' low
    // bits part ways (their final values differ by about 1e-15), but
    // not their basin: another local minimum would move the final
    // value by far more than kValueTolerance.
    constexpr double kValueTolerance = 1e-12;
    struct Case
    {
        TwoQubitTemplate templ;
        uint64_t seed;
    };
    const Case cases[] = {
        {TwoQubitTemplate(2, gates::sycamore()), 11},
        {TwoQubitTemplate(3, gates::cz()), 12},
        {TwoQubitTemplate(2, TemplateFamily::FullXy), 13},
        {TwoQubitTemplate(2, TemplateFamily::FullFsim), 14},
        {TwoQubitTemplate(1, TemplateFamily::FullCphase), 15},
    };
    for (const Case& c : cases) {
        Rng rng(c.seed);
        Matrix target = haarRandomUnitary(4, rng);
        std::vector<double> x0(c.templ.numParams());
        for (double& value : x0)
            value = rng.uniform(0.0, 2.0 * gates::kPi);
        BfgsOptions options;

        TwoQubitTemplate::BuildScratch scratch;
        ObjectiveFn objective = [&](const std::vector<double>& x) {
            return c.templ.infidelityWithScratch(x, target, scratch);
        };
        GradientFn adjoint = [&](const std::vector<double>& x,
                                 std::vector<double>& grad) {
            c.templ.infidelityGradient(x, target, grad, scratch);
        };
        BfgsResult fast = minimizeBfgs(objective, adjoint, x0, options);
        BfgsResult reference =
            minimizeBfgs(objective, centralDifferences(objective), x0,
                         options);

        SCOPED_TRACE(::testing::Message() << "seed " << c.seed);
        EXPECT_GT(reference.iterations, 1);
        EXPECT_TRUE(fast.converged);
        EXPECT_TRUE(reference.converged);
        EXPECT_NEAR(fast.value, reference.value, kValueTolerance);
    }
}

} // namespace
} // namespace qiset
