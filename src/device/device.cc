#include "device/device.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/error.h"

namespace qiset {

Device::Device(std::string name, Topology topology)
    : name_(std::move(name)), topology_(std::move(topology)),
      first_edge_(static_cast<size_t>(topology_.numQubits()) + 1, 0),
      one_qubit_error_(topology_.numQubits(), 0.0),
      qubit_noise_(topology_.numQubits())
{
    for (int q = 0; q < numQubits(); ++q) {
        first_edge_[q + 1] = first_edge_[q];
        for (int v : topology_.neighbors(q))
            first_edge_[q + 1] += v > q;
    }
}

int
Device::edgeId(int a, int b) const
{
    if (a < 0 || a >= numQubits() || b < 0 || b >= numQubits())
        return -1;
    int lo = std::min(a, b);
    int hi = std::max(a, b);
    int edge = first_edge_[lo];
    for (int v : topology_.neighbors(lo)) {
        if (v == hi)
            return edge;
        edge += v > lo;
    }
    return -1;
}

int
Device::gateTypeId(const std::string& gate_type) const
{
    auto it = std::lower_bound(gate_types_.begin(), gate_types_.end(),
                               gate_type);
    if (it == gate_types_.end() || *it != gate_type)
        return -1;
    return static_cast<int>(it - gate_types_.begin());
}

void
Device::setEdgeFidelity(int a, int b, const std::string& gate_type,
                        double fidelity)
{
    int edge = edgeId(a, b);
    QISET_REQUIRE(edge >= 0, "(", a, ",", b, ") is not a coupled pair");
    QISET_REQUIRE(fidelity >= 0.0 && fidelity <= 1.0,
                  "fidelity out of [0, 1]");
    auto it = std::lower_bound(gate_types_.begin(), gate_types_.end(),
                               gate_type);
    size_t type = static_cast<size_t>(it - gate_types_.begin());
    if (it == gate_types_.end() || *it != gate_type) {
        // A new column at its place in name order: widen every row.
        size_t width = gate_types_.size();
        gate_types_.insert(it, gate_type);
        std::vector<double> wider(
            static_cast<size_t>(first_edge_.back()) * (width + 1), 0.0);
        for (size_t cell = 0; cell < fidelities_.size(); ++cell) {
            size_t t = cell % width;
            wider[cell + cell / width + (t >= type)] = fidelities_[cell];
        }
        fidelities_ = std::move(wider);
    }
    fidelities_[static_cast<size_t>(edge) * gate_types_.size() + type] =
        fidelity;
}

double
Device::edgeFidelity(int a, int b, const std::string& gate_type) const
{
    return edgeFidelity(edgeId(a, b), gateTypeId(gate_type));
}

void
Device::setOneQubitError(int q, double error_rate)
{
    one_qubit_error_.at(q) = error_rate;
}

double
Device::oneQubitError(int q) const
{
    return one_qubit_error_.at(q);
}

double
Device::averageOneQubitError() const
{
    double sum = 0.0;
    for (double e : one_qubit_error_)
        sum += e;
    return sum / one_qubit_error_.size();
}

void
Device::setQubitNoise(int q, const QubitNoise& noise)
{
    qubit_noise_.at(q) = noise;
}

const QubitNoise&
Device::qubitNoise(int q) const
{
    return qubit_noise_.at(q);
}

NoiseModel
Device::noiseModelFor(const std::vector<int>& physical) const
{
    std::vector<QubitNoise> noise;
    noise.reserve(physical.size());
    for (int q : physical)
        noise.push_back(qubit_noise_.at(q));
    return NoiseModel(std::move(noise));
}

double
Device::meanEdgeFidelity(const std::string& gate_type) const
{
    int type = gateTypeId(gate_type);
    if (type < 0)
        return 0.0;
    double sum = 0.0;
    int count = 0;
    for (size_t cell = static_cast<size_t>(type); cell < fidelities_.size();
         cell += gate_types_.size())
        if (fidelities_[cell] > 0.0) {
            sum += fidelities_[cell];
            ++count;
        }
    return count ? sum / count : 0.0;
}

Device
Device::withUniformGateTypes(const std::string& reference_type) const
{
    Device copy = *this;
    int type = gateTypeId(reference_type);
    if (type < 0)
        return copy;
    size_t width = gate_types_.size();
    for (size_t row = 0; row < copy.fidelities_.size(); row += width) {
        double reference = copy.fidelities_[row + type];
        if (reference <= 0.0)
            continue;
        for (size_t cell = row; cell < row + width; ++cell)
            if (copy.fidelities_[cell] > 0.0)
                copy.fidelities_[cell] = reference;
    }
    return copy;
}

Device
Device::withScaledTwoQubitErrors(double factor) const
{
    QISET_REQUIRE(factor >= 0.0, "scale factor must be non-negative");
    Device copy = *this;
    for (double& fidelity : copy.fidelities_)
        if (fidelity > 0.0)
            fidelity = 1.0 - std::min(1.0, factor * (1.0 - fidelity));
    return copy;
}

Device
Device::withScaledNoise(double factor) const
{
    QISET_REQUIRE(factor > 0.0, "scale factor must be positive");
    Device copy = withScaledTwoQubitErrors(factor);
    for (auto& error : copy.one_qubit_error_)
        error = std::min(1.0, factor * error);
    for (auto& noise : copy.qubit_noise_) {
        noise.t1_ns /= factor;
        noise.t2_ns /= factor;
        noise.readout_p01 = std::min(1.0, factor * noise.readout_p01);
        noise.readout_p10 = std::min(1.0, factor * noise.readout_p10);
    }
    return copy;
}

Device
Device::withDriftedCalibration(Rng& rng, double max_factor) const
{
    QISET_REQUIRE(max_factor >= 1.0, "drift factor must be >= 1");
    Device copy = *this;
    double log_max = std::log(max_factor);
    for (double& fidelity : copy.fidelities_) {
        if (fidelity <= 0.0)
            continue;
        double factor = std::exp(rng.uniform(-log_max, log_max));
        fidelity = 1.0 - std::min(1.0, factor * (1.0 - fidelity));
    }
    return copy;
}

Device
Device::extractRegion(const std::vector<int>& qubits,
                      const std::string& region_name) const
{
    QISET_REQUIRE(!qubits.empty(), "region needs at least one qubit");
    std::set<int> unique(qubits.begin(), qubits.end());
    QISET_REQUIRE(unique.size() == qubits.size(),
                  "region qubits must be unique");
    for (int q : qubits)
        QISET_REQUIRE(q >= 0 && q < numQubits(), "region qubit ", q,
                      " out of range");

    Device region(region_name.empty() ? name_ + "/region" : region_name,
                  topology_.inducedSubgraph(qubits));
    region.two_qubit_duration_ns_ = two_qubit_duration_ns_;
    region.one_qubit_duration_ns_ = one_qubit_duration_ns_;
    for (size_t i = 0; i < qubits.size(); ++i) {
        region.one_qubit_error_[i] = one_qubit_error_.at(qubits[i]);
        region.qubit_noise_[i] = qubit_noise_.at(qubits[i]);
    }
    // Region edge e copies the row of the parent edge it relabels.
    size_t width = gate_types_.size();
    region.gate_types_ = gate_types_;
    for (auto [i, j] : region.topology_.edges()) {
        const double* row =
            fidelities_.data() +
            static_cast<size_t>(edgeId(qubits[i], qubits[j])) * width;
        region.fidelities_.insert(region.fidelities_.end(), row,
                                  row + width);
    }
    return region;
}

} // namespace qiset
