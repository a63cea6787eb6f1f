#include "qc/gates.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace qiset {
namespace gates {

namespace {
const cplx kI(0.0, 1.0);
} // namespace

Matrix
u3(double alpha, double beta, double lambda)
{
    double c = std::cos(alpha / 2.0);
    double s = std::sin(alpha / 2.0);
    return Matrix{
        {c, -std::exp(kI * lambda) * s},
        {std::exp(kI * beta) * s, std::exp(kI * (beta + lambda)) * c},
    };
}

Matrix
identity1q()
{
    return Matrix::identity(2);
}

Matrix
pauliX()
{
    return Matrix{{0.0, 1.0}, {1.0, 0.0}};
}

Matrix
pauliY()
{
    return Matrix{{0.0, -kI}, {kI, 0.0}};
}

Matrix
pauliZ()
{
    return Matrix{{1.0, 0.0}, {0.0, -1.0}};
}

Matrix
hadamard()
{
    double inv_sqrt2 = 1.0 / std::sqrt(2.0);
    return Matrix{{inv_sqrt2, inv_sqrt2}, {inv_sqrt2, -inv_sqrt2}};
}

Matrix
sGate()
{
    return Matrix{{1.0, 0.0}, {0.0, kI}};
}

Matrix
tGate()
{
    return Matrix{{1.0, 0.0}, {0.0, std::exp(kI * (kPi / 4.0))}};
}

Matrix
rx(double theta)
{
    double c = std::cos(theta / 2.0);
    double s = std::sin(theta / 2.0);
    return Matrix{{c, -kI * s}, {-kI * s, c}};
}

Matrix
ry(double theta)
{
    double c = std::cos(theta / 2.0);
    double s = std::sin(theta / 2.0);
    return Matrix{{c, -s}, {s, c}};
}

Matrix
rz(double theta)
{
    return Matrix{
        {std::exp(-kI * (theta / 2.0)), 0.0},
        {0.0, std::exp(kI * (theta / 2.0))},
    };
}

Matrix
fsim(double theta, double phi)
{
    double c = std::cos(theta);
    double s = std::sin(theta);
    Matrix m = Matrix::identity(4);
    m(1, 1) = c;
    m(1, 2) = -kI * s;
    m(2, 1) = -kI * s;
    m(2, 2) = c;
    m(3, 3) = std::exp(-kI * phi);
    return m;
}

Matrix
xy(double theta)
{
    double c = std::cos(theta / 2.0);
    double s = std::sin(theta / 2.0);
    Matrix m = Matrix::identity(4);
    m(1, 1) = c;
    m(1, 2) = kI * s;
    m(2, 1) = kI * s;
    m(2, 2) = c;
    return m;
}

Matrix
cphase(double phi)
{
    return fsim(0.0, phi);
}

Matrix
cz()
{
    return fsim(0.0, kPi);
}

Matrix
cnot()
{
    Matrix m(4, 4);
    m(0, 0) = 1.0;
    m(1, 1) = 1.0;
    m(2, 3) = 1.0;
    m(3, 2) = 1.0;
    return m;
}

Matrix
iswap()
{
    return fsim(kPi / 2.0, 0.0);
}

Matrix
sqrtIswap()
{
    return fsim(kPi / 4.0, 0.0);
}

Matrix
sycamore()
{
    return fsim(kPi / 2.0, kPi / 6.0);
}

Matrix
swap()
{
    Matrix m(4, 4);
    m(0, 0) = 1.0;
    m(1, 2) = 1.0;
    m(2, 1) = 1.0;
    m(3, 3) = 1.0;
    return m;
}

Matrix
zz(double beta)
{
    Matrix m(4, 4);
    m(0, 0) = std::exp(-kI * beta);
    m(1, 1) = std::exp(kI * beta);
    m(2, 2) = std::exp(kI * beta);
    m(3, 3) = std::exp(-kI * beta);
    return m;
}

Matrix
xxPlusYy(double theta)
{
    // exp(-i theta (XX + YY)/2) acts as an fSim rotation in the
    // single-excitation subspace and is identity on {00, 11}.
    return fsim(theta, 0.0);
}

Matrix
kron2(const Matrix& a, const Matrix& b)
{
    return a.kron(b);
}

std::vector<double>
u3Angles(const Matrix& u)
{
    QISET_REQUIRE(u.rows() == 2 && u.cols() == 2,
                  "u3Angles expects a 2x2 unitary");
    // alpha comes from the actual entry magnitudes (atan2, not acos):
    // |u00| alone is numerically blind to off-diagonals far below the
    // roundoff of the diagonal, and a wrong branch there poisons the
    // beta/lambda args with full weight.
    const double tol = 1e-9;
    double c = std::abs(u(0, 0));
    double s = std::abs(u(1, 0));
    double alpha = 2.0 * std::atan2(s, c);
    double beta = 0.0, lambda = 0.0;
    if (s <= tol * c) {
        // (Near-)diagonal: only beta + lambda matters; put it in beta.
        cplx phase = u(0, 0) / c;
        beta = std::arg(u(1, 1) / phase);
    } else if (c <= tol * s) {
        // (Near-)anti-diagonal: pin the phase to the lower-left entry
        // (beta stays zero; only beta + lambda would be observable).
        cplx phase = u(1, 0) / s;
        lambda = std::arg(-u(0, 1) / phase);
    } else {
        cplx phase = u(0, 0) / c;
        beta = std::arg(u(1, 0) / phase);
        lambda = std::arg(-u(0, 1) / phase);
    }
    return {alpha, beta, lambda};
}

} // namespace gates
} // namespace qiset
