#ifndef QISET_DEVICE_DEVICE_H
#define QISET_DEVICE_DEVICE_H

/**
 * @file
 * Device model: topology plus calibration data (per-edge, per-gate-type
 * two-qubit fidelities; per-qubit 1Q error, T1/T2 and readout error;
 * gate durations). The compiler reads fidelities for noise-adaptive
 * gate selection and stamps error rates/durations onto the compiled
 * circuit; the simulators turn those into noise channels.
 *
 * Two-qubit fidelities live in one flat table of (edge id, type id)
 * cells: edges in Topology::edges() order, types in name order. Its
 * layout, and so every walk over it (drift draws, means), depends
 * only on the calibration's content, not on the order it was set.
 * Compiler passes resolve ids once and read cells by id.
 */

#include <string>
#include <vector>

#include "common/rng.h"
#include "device/topology.h"
#include "sim/noise_model.h"

namespace qiset {

/** A calibrated QC device. */
class Device
{
  public:
    Device(std::string name, Topology topology);

    const std::string& name() const { return name_; }
    const Topology& topology() const { return topology_; }
    int numQubits() const { return topology_.numQubits(); }

    /**
     * Set the calibrated fidelity of a gate type on an edge (a new
     * type adds a column); fails on an out-of-range or uncoupled pair.
     */
    void setEdgeFidelity(int a, int b, const std::string& gate_type,
                         double fidelity);

    /**
     * Id of edge (a, b), in either order: its index in
     * Topology::edges(); -1 for an out-of-range or uncoupled pair.
     */
    int edgeId(int a, int b) const;

    /** Column of a calibrated gate type; -1 when none is set. */
    int gateTypeId(const std::string& gate_type) const;

    /**
     * Calibrated fidelity of type id `type` on edge id `edge`; zero
     * when the type is not calibrated there (i.e. unavailable) or
     * either id is -1.
     */
    double edgeFidelity(int edge, int type) const
    {
        return edge < 0 || type < 0
                   ? 0.0
                   : fidelities_[static_cast<size_t>(edge) *
                                     gate_types_.size() +
                                 static_cast<size_t>(type)];
    }

    /** edgeFidelity(edgeId(a, b), gateTypeId(gate_type)). */
    double edgeFidelity(int a, int b, const std::string& gate_type) const;

    /** Per-qubit single-qubit gate error rate. */
    void setOneQubitError(int q, double error_rate);
    double oneQubitError(int q) const;

    /** Average 1Q error across qubits (used in Fh estimates). */
    double averageOneQubitError() const;

    /** Per-qubit relaxation and readout parameters. */
    void setQubitNoise(int q, const QubitNoise& noise);
    const QubitNoise& qubitNoise(int q) const;

    /** Gate durations in nanoseconds. */
    void setTwoQubitDuration(double ns) { two_qubit_duration_ns_ = ns; }
    void setOneQubitDuration(double ns) { one_qubit_duration_ns_ = ns; }
    double twoQubitDurationNs() const { return two_qubit_duration_ns_; }
    double oneQubitDurationNs() const { return one_qubit_duration_ns_; }

    /**
     * Noise model for a subset of qubits (compressed register order):
     * entry i of the result describes physical qubit `physical[i]`.
     */
    NoiseModel noiseModelFor(const std::vector<int>& physical) const;

    /** Mean fidelity of a gate type over the edges supporting it. */
    double meanEdgeFidelity(const std::string& gate_type) const;

    /**
     * Copy of this device with every gate type's fidelity on an edge
     * replaced by the edge's reference type fidelity — the "no noise
     * variation across gate types" ablation of Fig. 10e.
     */
    Device withUniformGateTypes(const std::string& reference_type) const;

    /**
     * Copy with all two-qubit error rates scaled by `factor`
     * (error' = min(1, factor * error)); used by the Fig. 7 sweep.
     */
    Device withScaledTwoQubitErrors(double factor) const;

    /**
     * Copy with *all* noise sources scaled: 2Q and 1Q error rates and
     * readout confusion multiplied by `factor`, T1/T2 divided by it
     * (a uniformly better/worse process). Drives the Fig. 10f
     * hardware-improvement axis.
     */
    Device withScaledNoise(double factor) const;

    /**
     * Sub-device on the given qubits (compile-shard extraction):
     * topology is the induced subgraph, and per-qubit noise, 1Q
     * errors, gate durations and the calibrated fidelities of every
     * internal edge carry over (relabeled so result qubit i is
     * `qubits[i]`). Edges leaving the region are dropped, so
     * compiling on the extracted device is exactly compiling on that
     * region of the parent. Qubits must be unique and in range.
     */
    Device extractRegion(const std::vector<int>& qubits,
                         const std::string& region_name = "") const;

    /**
     * Simulate calibration drift (Section IX: parameters drift over
     * time, with gate-error fluctuations of up to 10x): every edge's
     * error rate for every gate type is multiplied by an independent
     * log-uniform factor in [1/max_factor, max_factor], drawn per
     * calibrated cell in (edge id, type name) order.
     * The returned device is the *true* (drifted) hardware; compiling
     * against the stale original models skipping recalibration.
     */
    Device withDriftedCalibration(Rng& rng, double max_factor) const;

  private:
    std::string name_;
    Topology topology_;
    /** Id of q's first edge to a higher-numbered neighbour. */
    std::vector<int> first_edge_;
    /** Calibrated type names, sorted: the table's columns. */
    std::vector<std::string> gate_types_;
    /** [edge * gate_types_.size() + type]; 0 = uncalibrated. */
    std::vector<double> fidelities_;
    std::vector<double> one_qubit_error_;
    std::vector<QubitNoise> qubit_noise_;
    double two_qubit_duration_ns_ = 30.0;
    double one_qubit_duration_ns_ = 25.0;
};

/**
 * Synthetic Rigetti Aspen-8: 30 functional qubits in four octagonal
 * rings. Ring-0 XY(pi)/CZ fidelities are hardcoded from Fig. 3 of the
 * paper; remaining edges are sampled from the same empirical ranges.
 * Arbitrary XY(theta) types get U(0.95, 0.99) fidelity (Abrams et al.).
 */
Device makeAspen8(Rng& rng);

/**
 * Synthetic Google Sycamore: 54 qubits on a 6x9 grid. SYC errors are
 * N(0.62%, 0.24%) truncated positive; every other studied gate type is
 * drawn independently from the same distribution (the paper's own
 * modeling assumption).
 */
Device makeSycamore(Rng& rng);

/** Parameters of a synthetic modular (chiplet) device. */
struct ChipletSpec
{
    /** Grid of cores. */
    int core_rows = 2;
    int core_cols = 2;
    /** Coupling grid inside each core. */
    int rows = 2;
    int cols = 3;
    /** Intra-core two-qubit error distribution, N(mu, sigma)
     *  truncated to [min, max] per gate type per edge. */
    double two_q_error_mu = 0.0062;
    double two_q_error_sigma = 0.0024;
    /** EPR link cost model (shared by every teleport edge). */
    double epr_fidelity = 0.985;
    double attempt_duration_ns = 500.0;
    double mean_attempts = 2.0;
};

/**
 * Synthetic chiplet QPU: an N×M grid of identical grid cores joined by
 * EPR teleport links (Topology::gridOfGrids). Intra-core calibration
 * follows the Sycamore error model; there are no calibrated edges
 * across cores — the only inter-core channel is teleportation.
 */
Device makeChipletDevice(const ChipletSpec& spec, Rng& rng);

} // namespace qiset

#endif // QISET_DEVICE_DEVICE_H
