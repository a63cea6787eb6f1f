#include "nuop/template_circuit.h"

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
    // u3 2(k+1), pair k+1, gate k, product and probe_product 2k+1
    // each, and the three single probe slots.
    return 8 * static_cast<size_t>(layers) + 8;
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
    s.pair = s.u3 + 2 * (layers_ + 1);
    s.gate = s.pair + (layers_ + 1);
    s.product = s.gate + layers_;
    s.probe_product = s.product + (2 * layers_ + 1);
    s.probe_u3 = s.probe_product + (2 * layers_ + 1);
    s.probe_pair = s.probe_u3 + 1;
    s.probe_gate = s.probe_pair + 1;
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
TwoQubitTemplate::productsFrom(int from, const Matrix& factor,
                               const Matrix* below, Matrix* out,
                               const Slots& s) const
{
    // Every product goes through multiplyInto (bit-identical to
    // operator*) in this one order, which is what makes a probe's
    // partial rebuild equal its full build bit for bit.
    const Matrix* f = &factor;
    const Matrix* acc = below;
    for (int j = from;; ++j) {
        if (acc) {
            Matrix::multiplyInto(out[j], *f, *acc);
            acc = &out[j];
        } else {
            acc = f;
        }
        if (j == 2 * layers_)
            return *acc;
        int next = j + 1;
        if (next % 2 == 0)
            f = &s.pair[next / 2];
        else
            f = family_ == TemplateFamily::Fixed ? &fixed_gate_
                                                 : &s.gate[next / 2];
    }
}

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
        gates::u3Into(s.u3[2 * b], p[0], p[1], p[2]);
        gates::u3Into(s.u3[2 * b + 1], p[3], p[4], p[5]);
        Matrix::kronInto(s.pair[b], s.u3[2 * b], s.u3[2 * b + 1]);
        if (b < layers_ && family_ != TemplateFamily::Fixed)
            layerGateInto(s.gate[b], p + 6);
    }
    return productsFrom(0, s.pair[0], nullptr, s.product, s);
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

void
TwoQubitTemplate::infidelityGradient(const std::vector<double>& x,
                                     const Matrix& target, double eps,
                                     std::vector<double>& grad,
                                     BuildScratch& scratch) const
{
    buildWithScratch(x, scratch);
    Slots s = slotsIn(scratch);
    const int per_layer = gateParamsPerLayer();
    const int stride = 6 + per_layer;
    grad.resize(x.size());
    for (size_t i = 0; i < x.size(); ++i) {
        const int b = static_cast<int>(i) / stride;
        const int r = static_cast<int>(i) % stride;
        const double* p = &x[b * stride];
        // The probe point's value of x[i], as numericalGradientInto
        // forms it.
        const double shifted[2] = {x[i] + eps, x[i] - eps};
        double f[2];
        for (int side = 0; side < 2; ++side) {
            const Matrix* top;
            if (r < 6) {
                // A U3 angle: rebuild that U3, its pair, and the
                // products from stage 2b up.
                const int first = r < 3 ? 0 : 3;
                double angles[3] = {p[first], p[first + 1], p[first + 2]};
                angles[r - first] = shifted[side];
                gates::u3Into(*s.probe_u3, angles[0], angles[1], angles[2]);
                if (r < 3)
                    Matrix::kronInto(*s.probe_pair, *s.probe_u3,
                                     s.u3[2 * b + 1]);
                else
                    Matrix::kronInto(*s.probe_pair, s.u3[2 * b],
                                     *s.probe_u3);
                const Matrix* below =
                    b == 0 ? nullptr : &s.product[2 * b - 1];
                top = &productsFrom(2 * b, *s.probe_pair, below,
                                    s.probe_product, s);
            } else {
                // A layer-gate angle: rebuild layer b's gate and the
                // products from stage 2b+1 up.
                double angles[2] = {p[6], per_layer > 1 ? p[7] : 0.0};
                angles[r - 6] = shifted[side];
                layerGateInto(*s.probe_gate, angles);
                const Matrix* below =
                    b == 0 ? &s.pair[0] : &s.product[2 * b];
                top = &productsFrom(2 * b + 1, *s.probe_gate, below,
                                    s.probe_product, s);
            }
            f[side] = 1.0 - traceFidelity(*top, target);
        }
        grad[i] = (f[0] - f[1]) / (2.0 * eps);
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
