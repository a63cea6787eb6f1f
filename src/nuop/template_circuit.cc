#include "nuop/template_circuit.h"

#include <cmath>
#include <utility>

#include "common/error.h"
#include "qc/gates.h"

namespace qiset {

TwoQubitTemplate::TwoQubitTemplate(int layers, Matrix fixed_gate)
    : layers_(layers), family_(TemplateFamily::Fixed),
      fixed_gate_(std::move(fixed_gate))
{
    QISET_REQUIRE(layers >= 0, "layer count must be non-negative");
    QISET_REQUIRE(fixed_gate_.rows() == 4 && fixed_gate_.cols() == 4,
                  "fixed gate must be 4x4");
}

TwoQubitTemplate::TwoQubitTemplate(int layers, TemplateFamily family)
    : layers_(layers), family_(family)
{
    QISET_REQUIRE(layers >= 0, "layer count must be non-negative");
    QISET_REQUIRE(family != TemplateFamily::Fixed,
                  "use the fixed-gate constructor for Fixed templates");
}

int
TwoQubitTemplate::gateParamsPerLayer() const
{
    switch (family_) {
      case TemplateFamily::Fixed:
        return 0;
      case TemplateFamily::FullXy:
        return 1;
      case TemplateFamily::FullFsim:
        return 2;
      case TemplateFamily::FullCphase:
        return 1;
    }
    return 0;
}

int
TwoQubitTemplate::numParams() const
{
    return 6 * (layers_ + 1) + gateParamsPerLayer() * layers_;
}

size_t
TwoQubitTemplate::slotCount(int layers)
{
    // u3 2(k+1), trig k+1, pair k+1, gate k, product 2k+1, and the
    // backward sweep's two adjoint slots and one environment slot.
    return 7 * static_cast<size_t>(layers) + 8;
}

void
TwoQubitTemplate::BuildScratch::reserve(int layers)
{
    if (slots.size() < slotCount(layers))
        slots.resize(slotCount(layers));
}

TwoQubitTemplate::Slots
TwoQubitTemplate::slotsIn(BuildScratch& scratch) const
{
    scratch.reserve(layers_);
    Slots s;
    s.u3 = scratch.slots.data();
    s.trig = s.u3 + 2 * (layers_ + 1);
    s.pair = s.trig + (layers_ + 1);
    s.gate = s.pair + (layers_ + 1);
    s.product = s.gate + layers_;
    s.adjoint = s.product + (2 * layers_ + 1);
    s.env = s.adjoint + 2;
    return s;
}

void
TwoQubitTemplate::layerGateInto(Matrix& out, const double* angles) const
{
    switch (family_) {
      case TemplateFamily::Fixed:
        out = fixed_gate_;
        break;
      case TemplateFamily::FullXy:
        out = gates::xy(angles[0]);
        break;
      case TemplateFamily::FullFsim:
        out = gates::fsim(angles[0], angles[1]);
        break;
      case TemplateFamily::FullCphase:
        out = gates::cphase(angles[0]);
        break;
    }
}

const Matrix&
TwoQubitTemplate::stageFactor(const Slots& s, int stage) const
{
    if (stage % 2 == 0)
        return s.pair[stage / 2];
    return family_ == TemplateFamily::Fixed ? fixed_gate_
                                            : s.gate[stage / 2];
}

const Matrix&
TwoQubitTemplate::runningProduct(const Slots& s, int stage) const
{
    return stage == 0 ? s.pair[0] : s.product[stage];
}

namespace {

/**
 * gates::u3 into the reused slot `u`, keeping the U3's trig in
 * trig[0..3] for u3Partials: cos(alpha/2) + i sin(alpha/2), e^(i beta),
 * e^(i lambda) and e^(i(beta + lambda)). `u` is formed from those
 * values with gates::u3's own expressions, so it is bit-identical to
 * gates::u3.
 */
void
u3WithTrigInto(Matrix& u, cplx* trig, const double* angles)
{
    const cplx i(0.0, 1.0);
    if (u.rows() != 2 || u.cols() != 2)
        u = Matrix(2, 2);
    const double c = std::cos(angles[0] / 2.0);
    const double s = std::sin(angles[0] / 2.0);
    trig[0] = cplx(c, s);
    trig[1] = std::exp(i * angles[1]);
    trig[2] = std::exp(i * angles[2]);
    trig[3] = std::exp(i * (angles[1] + angles[2]));
    u(0, 0) = c;
    u(0, 1) = -trig[2] * s;
    u(1, 0) = trig[1] * s;
    u(1, 1) = trig[3] * c;
}

} // namespace

const Matrix&
TwoQubitTemplate::buildWithScratch(const std::vector<double>& params,
                                   BuildScratch& scratch) const
{
    QISET_REQUIRE(static_cast<int>(params.size()) == numParams(),
                  "expected ", numParams(), " params, got ",
                  params.size());
    Slots s = slotsIn(scratch);
    const int stride = 6 + gateParamsPerLayer();
    for (int b = 0; b <= layers_; ++b) {
        const double* p = &params[b * stride];
        Matrix& trig = s.trig[b];
        if (trig.rows() != 2 || trig.cols() != 4)
            trig = Matrix(2, 4);
        u3WithTrigInto(s.u3[2 * b], &trig(0, 0), p);
        u3WithTrigInto(s.u3[2 * b + 1], &trig(1, 0), p + 3);
        Matrix::kronInto(s.pair[b], s.u3[2 * b], s.u3[2 * b + 1]);
        if (b < layers_ && family_ != TemplateFamily::Fixed)
            layerGateInto(s.gate[b], p + 6);
    }
    // Stage j multiplies its factor onto the running product from the
    // left: P_j = F_j P_(j-1).
    for (int j = 1; j <= 2 * layers_; ++j)
        Matrix::multiplyInto(s.product[j], stageFactor(s, j),
                             runningProduct(s, j - 1));
    return runningProduct(s, 2 * layers_);
}

Matrix
TwoQubitTemplate::build(const std::vector<double>& params) const
{
    BuildScratch scratch;
    return buildWithScratch(params, scratch);
}

double
TwoQubitTemplate::infidelity(const std::vector<double>& params,
                             const Matrix& target) const
{
    BuildScratch scratch;
    return infidelityWithScratch(params, target, scratch);
}

double
TwoQubitTemplate::infidelityWithScratch(const std::vector<double>& params,
                                        const Matrix& target,
                                        BuildScratch& scratch) const
{
    return 1.0 - traceFidelity(buildWithScratch(params, scratch), target);
}

namespace {

/**
 * Partial derivatives of Tr(M dU) for U = U3(alpha, beta, lambda)
 * (the gates::u3 convention) with respect to its three angles, where
 * Tr(M dU) = sum_pq dU[p][q] m[q][p]; `trig` is the U3's trig as
 * u3WithTrigInto keeps it.
 */
void
u3Partials(const cplx* trig, const Matrix& u, const cplx m[2][2],
           cplx out[3])
{
    const cplx i(0.0, 1.0);
    const double c = trig[0].real();
    const double s = trig[0].imag();
    const cplx& e_beta = trig[1];
    const cplx& e_lambda = trig[2];
    const cplx& e_both = trig[3];
    // dU/dalpha = U3(alpha + pi, beta, lambda) / 2
    //           = [[-s, -e^(i lambda) c], [e^(i beta) c, -e^(i(beta +
    //             lambda)) s]] / 2.
    out[0] = 0.5 * (-s * m[0][0] - e_lambda * c * m[1][0] +
                    e_beta * c * m[0][1] - e_both * s * m[1][1]);
    // dU/dbeta = i diag(0, 1) U and dU/dlambda = i U diag(0, 1).
    out[1] = i * (u(1, 0) * m[0][1] + u(1, 1) * m[1][1]);
    out[2] = i * (u(0, 1) * m[1][0] + u(1, 1) * m[1][1]);
}

/**
 * dw = Tr(E dF) for the six U3 angles of a pair stage F = A (x) B,
 * F[2p+k][2q+l] = A[p][q] B[k][l]: E contracted against B is A's
 * slot, and against A it is B's. `trig` is the pair's trig slot:
 * A's row, then B's.
 */
void
pairPartials(const Matrix& e, const Matrix& a, const Matrix& b,
             const Matrix& trig, cplx dw[6])
{
    cplx ma[2][2], mb[2][2];
    for (int row = 0; row < 2; ++row)
        for (int col = 0; col < 2; ++col) {
            cplx sum_a = 0.0, sum_b = 0.0;
            for (int k = 0; k < 2; ++k)
                for (int l = 0; l < 2; ++l) {
                    sum_a += e(2 * row + l, 2 * col + k) * b(k, l);
                    sum_b += e(2 * k + row, 2 * l + col) * a(l, k);
                }
            ma[row][col] = sum_a;
            mb[row][col] = sum_b;
        }
    u3Partials(&trig(0, 0), a, ma, dw);
    u3Partials(&trig(1, 0), b, mb, dw + 3);
}

/**
 * dw = Tr(E dG) for each angle of a continuous family's layer gate G
 * at `angles`, given the stage's environment E; returns the angle
 * count.
 */
int
gatePartials(TemplateFamily family, const Matrix& e, const double* angles,
             cplx dw[2])
{
    // Tr(E dG) = sum_ab E[a][b] dG[b][a] over dG's nonzero entries.
    const cplx i(0.0, 1.0);
    switch (family) {
      case TemplateFamily::Fixed:
        return 0;
      case TemplateFamily::FullXy: {
        // [1][1] = [2][2] = cos(t/2), [1][2] = [2][1] = i sin(t/2).
        const double c = 0.5 * std::cos(angles[0] / 2.0);
        const double s = 0.5 * std::sin(angles[0] / 2.0);
        dw[0] = -s * (e(1, 1) + e(2, 2)) + i * c * (e(1, 2) + e(2, 1));
        return 1;
      }
      case TemplateFamily::FullFsim: {
        // [1][1] = [2][2] = cos theta, [1][2] = [2][1] = -i sin theta,
        // [3][3] = e^(-i phi).
        const double c = std::cos(angles[0]);
        const double s = std::sin(angles[0]);
        dw[0] = -s * (e(1, 1) + e(2, 2)) - i * c * (e(1, 2) + e(2, 1));
        dw[1] = -i * std::exp(-i * angles[1]) * e(3, 3);
        return 2;
      }
      case TemplateFamily::FullCphase:
        // CPhase(phi) = fSim(0, phi).
        dw[0] = -i * std::exp(-i * angles[0]) * e(3, 3);
        return 1;
    }
    return 0;
}

} // namespace

void
TwoQubitTemplate::infidelityGradient(const std::vector<double>& x,
                                     const Matrix& target,
                                     std::vector<double>& grad,
                                     BuildScratch& scratch) const
{
    buildWithScratch(x, scratch);
    infidelityGradientFromBuild(x, target, grad, scratch);
}

void
TwoQubitTemplate::infidelityGradientFromBuild(const std::vector<double>& x,
                                              const Matrix& target,
                                              std::vector<double>& grad,
                                              BuildScratch& scratch) const
{
    QISET_REQUIRE(static_cast<int>(x.size()) == numParams() &&
                      scratch.slots.size() >= slotCount(layers_),
                  "the scratch holds no build of this template");
    // f = 1 - |z| / 4 with z = hilbertSchmidt(U, T) = conj(w) and
    // w = Tr(T^dag U), so df = -Re(z dw) / (4 |z|). With U = S_j F_j
    // P_(j-1) (S_j the stages above j), w = Tr(E_j F_j) for the
    // environment E_j = P_(j-1) R_j and R_j = T^dag S_j, so each
    // angle's dw is a trace of E_j against its factor's derivative.
    Slots s = slotsIn(scratch);
    grad.assign(x.size(), 0.0);
    const cplx z = hilbertSchmidt(runningProduct(s, 2 * layers_), target);
    const double abs_z = std::abs(z);
    if (abs_z == 0.0)
        return;
    const double scale = -0.25 / abs_z;

    const int stride = 6 + gateParamsPerLayer();
    Matrix* r = &s.adjoint[0];
    Matrix* r_next = &s.adjoint[1];
    *r = target.dagger(); // R_2L = T^dag
    for (int j = 2 * layers_; j >= 0; --j) {
        const bool pair_stage = j % 2 == 0;
        if (pair_stage || family_ != TemplateFamily::Fixed) {
            const Matrix* e = r; // E_0 = R_0
            if (j > 0) {
                Matrix::multiplyInto(*s.env, runningProduct(s, j - 1), *r);
                e = s.env;
            }
            const int b = j / 2;
            const double* p = &x[b * stride];
            cplx dw[6];
            int first = 0, count = 6;
            if (pair_stage) {
                pairPartials(*e, s.u3[2 * b], s.u3[2 * b + 1], s.trig[b],
                             dw);
            } else {
                first = 6;
                count = gatePartials(family_, *e, p + 6, dw);
            }
            for (int k = 0; k < count; ++k)
                grad[b * stride + first + k] = scale * (z * dw[k]).real();
        }
        if (j > 0) {
            // R_(j-1) = R_j F_j
            Matrix::multiplyInto(*r_next, *r, stageFactor(s, j));
            std::swap(r, r_next);
        }
    }
}

std::vector<Matrix>
TwoQubitTemplate::u3Matrices(const std::vector<double>& params) const
{
    QISET_REQUIRE(static_cast<int>(params.size()) == numParams(),
                  "parameter arity mismatch");
    std::vector<Matrix> out;
    u3MatricesInto(params, out);
    return out;
}

void
TwoQubitTemplate::u3MatricesInto(const std::vector<double>& params,
                                 std::vector<Matrix>& out) const
{
    QISET_REQUIRE(static_cast<int>(params.size()) == numParams(),
                  "parameter arity mismatch");
    out.resize(2 * (layers_ + 1));
    int per_layer = gateParamsPerLayer();
    for (int block = 0; block <= layers_; ++block) {
        size_t base = block * (6 + per_layer);
        out[2 * block] =
            gates::u3(params[base], params[base + 1], params[base + 2]);
        out[2 * block + 1] = gates::u3(params[base + 3],
                                       params[base + 4],
                                       params[base + 5]);
    }
}

Matrix
TwoQubitTemplate::layerGate(const std::vector<double>& params,
                            int layer) const
{
    QISET_REQUIRE(layer >= 0 && layer < layers_, "layer out of range");
    if (family_ == TemplateFamily::Fixed)
        return fixed_gate_;
    QISET_REQUIRE(static_cast<int>(params.size()) == numParams(),
                  "parameter arity mismatch");
    Matrix gate;
    layerGateInto(gate, &params[6 * (layer + 1) +
                                gateParamsPerLayer() * layer]);
    return gate;
}

std::vector<double>
TwoQubitTemplate::layerGateAngles(const std::vector<double>& params,
                                  int layer) const
{
    QISET_REQUIRE(layer >= 0 && layer < layers_, "layer out of range");
    int per_layer = gateParamsPerLayer();
    QISET_REQUIRE(per_layer > 0,
                  "fixed-gate templates have no free gate angles");
    // Parameter layout: 6 U3 angles, then per-layer gate angles, then 6
    // more U3 angles, ... gate angles of layer L start after
    // 6(L+1) + per_layer*L entries.
    size_t base = 6 * (layer + 1) + per_layer * layer;
    std::vector<double> angles;
    for (int k = 0; k < per_layer; ++k)
        angles.push_back(params[base + k]);
    return angles;
}

} // namespace qiset
