#include "nuop/bfgs.h"

#include <cmath>
#include <cstddef>

#include "common/error.h"

namespace qiset {

void
numericalGradientInto(const ObjectiveFn& f, const std::vector<double>& x,
                      double eps, std::vector<double>& grad,
                      std::vector<double>& probe)
{
    grad.resize(x.size());
    probe.assign(x.begin(), x.end());
    for (size_t i = 0; i < x.size(); ++i) {
        probe[i] = x[i] + eps;
        double f_plus = f(probe);
        probe[i] = x[i] - eps;
        double f_minus = f(probe);
        probe[i] = x[i];
        grad[i] = (f_plus - f_minus) / (2.0 * eps);
    }
}

std::vector<double>
numericalGradient(const ObjectiveFn& f, const std::vector<double>& x,
                  double eps)
{
    std::vector<double> grad;
    std::vector<double> probe;
    numericalGradientInto(f, x, eps, grad, probe);
    return grad;
}

namespace {

double
infinityNorm(const std::vector<double>& v)
{
    double max_abs = 0.0;
    for (double value : v)
        max_abs = std::max(max_abs, std::abs(value));
    return max_abs;
}

double
dot(const std::vector<double>& a, const std::vector<double>& b)
{
    double sum = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        sum += a[i] * b[i];
    return sum;
}

} // namespace

BfgsResult
minimizeBfgs(const ObjectiveFn& f, const GradientFn& gradient,
             std::vector<double> x0, const BfgsOptions& options,
             BfgsWorkspace* workspace)
{
    QISET_REQUIRE(!x0.empty(), "BFGS needs at least one variable");
    const size_t n = x0.size();

    // All scratch lives in the workspace (caller-provided so a
    // multistart sweep pays the allocations once, or a local one for
    // one-shot calls). Every buffer is (re)sized here, so a workspace
    // can hop between problems of different dimension.
    BfgsWorkspace local;
    BfgsWorkspace& ws = workspace ? *workspace : local;

    // Inverse Hessian approximation, initialized to identity.
    ws.h.assign(n * n, 0.0);
    for (size_t i = 0; i < n; ++i)
        ws.h[i * n + i] = 1.0;
    ws.direction.resize(n);
    ws.x_new.resize(n);
    ws.s.resize(n);
    ws.y.resize(n);

    BfgsResult result;
    result.x = std::move(x0);
    result.value = f(result.x);
    gradient(result.x, ws.grad);

    for (int iter = 0; iter < options.max_iterations; ++iter) {
        result.iterations = iter + 1;
        if (result.value < options.stop_below) {
            result.converged = true;
            break;
        }
        if (infinityNorm(ws.grad) < options.gradient_tol) {
            result.converged = true;
            break;
        }

        // Search direction d = -H g.
        for (size_t i = 0; i < n; ++i) {
            double sum = 0.0;
            for (size_t j = 0; j < n; ++j)
                sum += ws.h[i * n + j] * ws.grad[j];
            ws.direction[i] = -sum;
        }

        double slope = dot(ws.grad, ws.direction);
        if (slope >= 0.0) {
            // H lost positive-definiteness (numerical gradients can do
            // that); reset to steepest descent.
            for (size_t i = 0; i < n; ++i)
                for (size_t j = 0; j < n; ++j)
                    ws.h[i * n + j] = (i == j) ? 1.0 : 0.0;
            for (size_t i = 0; i < n; ++i)
                ws.direction[i] = -ws.grad[i];
            slope = dot(ws.grad, ws.direction);
            if (slope >= 0.0) {
                result.converged = true;
                break;
            }
        }

        // Backtracking Armijo line search.
        const double c1 = 1e-4;
        double step = 1.0;
        double f_new = result.value;
        bool step_found = false;
        for (int ls = 0; ls < 40; ++ls) {
            for (size_t i = 0; i < n; ++i)
                ws.x_new[i] = result.x[i] + step * ws.direction[i];
            f_new = f(ws.x_new);
            if (f_new <= result.value + c1 * step * slope) {
                step_found = true;
                break;
            }
            step *= 0.5;
        }
        if (!step_found) {
            result.converged = true;
            break;
        }

        gradient(ws.x_new, ws.grad_new);

        // BFGS inverse-Hessian update (Sherman-Morrison form).
        for (size_t i = 0; i < n; ++i) {
            ws.s[i] = ws.x_new[i] - result.x[i];
            ws.y[i] = ws.grad_new[i] - ws.grad[i];
        }
        double sy = dot(ws.s, ws.y);
        if (sy > 1e-12) {
            double rho = 1.0 / sy;
            // H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T
            ws.hy.assign(n, 0.0);
            for (size_t i = 0; i < n; ++i)
                for (size_t j = 0; j < n; ++j)
                    ws.hy[i] += ws.h[i * n + j] * ws.y[j];
            double yhy = dot(ws.y, ws.hy);
            for (size_t i = 0; i < n; ++i) {
                for (size_t j = 0; j < n; ++j) {
                    ws.h[i * n + j] +=
                        -rho * (ws.s[i] * ws.hy[j] + ws.hy[i] * ws.s[j]) +
                        rho * (1.0 + rho * yhy) * ws.s[i] * ws.s[j];
                }
            }
        }

        double improvement = result.value - f_new;
        result.x = ws.x_new;
        result.value = f_new;
        std::swap(ws.grad, ws.grad_new);

        if (improvement < options.value_tol &&
            infinityNorm(ws.grad) < 1e-6) {
            result.converged = true;
            break;
        }
    }
    return result;
}

} // namespace qiset
