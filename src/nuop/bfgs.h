#ifndef QISET_NUOP_BFGS_H
#define QISET_NUOP_BFGS_H

/**
 * @file
 * Dense BFGS quasi-Newton minimizer.
 *
 * The paper's NuOp pass optimizes template-circuit rotation angles with
 * scipy's BFGS; this is the equivalent C++ implementation: inverse-
 * Hessian BFGS updates and a backtracking Armijo line search. The
 * gradient comes from the caller: NuOp passes its template's exact
 * adjoint-method gradient (the backward sweep of
 * TwoQubitTemplate::infidelityGradientFromBuild), and
 * numericalGradientInto below is the plain central-difference
 * reference for any other objective (and the template gradient's test
 * reference). Problem sizes are tiny (6-50 variables), so dense
 * O(n^2) updates are ideal.
 */

#include <functional>
#include <vector>

namespace qiset {

/** Objective callback: R^n -> R. */
using ObjectiveFn = std::function<double(const std::vector<double>&)>;

/**
 * Gradient callback: sizes grad like x and writes the gradient at x.
 * minimizeBfgs calls it only right after the objective at the same x
 * (bit for bit): once at x0 and once at each accepted line-search
 * point, with no other call in between. A gradient may therefore read
 * state that the objective's evaluation at x left behind, as NuOp's
 * template gradient reads the objective's build.
 */
using GradientFn = std::function<void(const std::vector<double>& x,
                                      std::vector<double>& grad)>;

/** Tuning knobs for minimizeBfgs. */
struct BfgsOptions
{
    /** Maximum BFGS iterations. */
    int max_iterations = 200;
    /** Stop when the infinity norm of the gradient drops below this. */
    double gradient_tol = 1e-10;
    /** Stop when the objective improvement drops below this. */
    double value_tol = 1e-14;
    /**
     * Early exit once the objective drops below this value (useful
     * when any point past a fidelity threshold is equally acceptable).
     */
    double stop_below = -1e300;
};

/** Outcome of a BFGS run. */
struct BfgsResult
{
    /** Minimizer found. */
    std::vector<double> x;
    /** Objective value at x. */
    double value = 0.0;
    /** Iterations consumed. */
    int iterations = 0;
    /** True when a tolerance (not the iteration cap) stopped the run. */
    bool converged = false;
};

/**
 * Reusable buffers for minimizeBfgs. A default-constructed workspace
 * is empty; the solver sizes every buffer on entry, so one workspace
 * can be reused across problems of different dimension. Reusing it
 * across the ~10^3 solves of a multistart sweep removes every
 * per-iteration heap allocation from the optimizer (the historical
 * loop allocated six vectors per BFGS iteration). The gradient's own
 * scratch belongs to the caller's GradientFn.
 */
struct BfgsWorkspace
{
    std::vector<double> h;         ///< inverse Hessian, n x n
    std::vector<double> grad;      ///< gradient at the incumbent
    std::vector<double> grad_new;  ///< gradient at the line-search point
    std::vector<double> direction; ///< search direction -H g
    std::vector<double> x_new;     ///< line-search trial point
    std::vector<double> s;         ///< x_new - x
    std::vector<double> y;         ///< grad_new - grad
    std::vector<double> hy;        ///< H y
};

/**
 * Minimize f starting from x0.
 *
 * The result is a pure function of (f, gradient, x0, options): runs
 * with and without a caller-provided workspace perform the identical
 * sequence of floating-point operations and return bit-identical
 * results.
 *
 * @param f Objective function (evaluated many times; keep it cheap).
 * @param gradient Gradient of f, called once at x0 and once per
 *        accepted step, each time right after f at the same point
 *        (see GradientFn).
 * @param x0 Starting point.
 * @param options Tolerances and limits.
 * @param workspace Optional scratch reused across calls; pass nullptr
 *        (the default) to use per-call local buffers.
 */
BfgsResult minimizeBfgs(const ObjectiveFn& f, const GradientFn& gradient,
                        std::vector<double> x0,
                        const BfgsOptions& options = {},
                        BfgsWorkspace* workspace = nullptr);

/**
 * Central-difference gradient of f at x: the reference gradient for
 * objectives without a cheaper one of their own.
 */
std::vector<double> numericalGradient(const ObjectiveFn& f,
                                      const std::vector<double>& x,
                                      double eps = 1e-7);

/**
 * numericalGradient into caller-owned buffers: `grad` receives the
 * gradient, `probe` is overwritten scratch. Identical arithmetic to
 * numericalGradient.
 */
void numericalGradientInto(const ObjectiveFn& f,
                           const std::vector<double>& x, double eps,
                           std::vector<double>& grad,
                           std::vector<double>& probe);

} // namespace qiset

#endif // QISET_NUOP_BFGS_H
