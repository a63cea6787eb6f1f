#ifndef QISET_ISA_GATE_SET_H
#define QISET_ISA_GATE_SET_H

/**
 * @file
 * The instruction sets studied in the paper (Tables I and II).
 *
 * A GateType is a fixed point of the fSim(theta, phi) family (plus the
 * native SWAP); a GateSet is a collection of types, optionally a full
 * continuous family (Full XY / Full fSim). Single-qubit rotations are
 * implicit in every set (they make the sets universal).
 */

#include <string>
#include <vector>

#include "nuop/kak.h"
#include "qc/matrix.h"

namespace qiset {

/** One two-qubit hardware gate type. */
struct GateType
{
    /** Canonical name: "S1".."S7", "SYC", "CZ", "SWAP", ... */
    std::string name;
    /** fSim theta parameter. */
    double theta = 0.0;
    /** fSim phi parameter. */
    double phi = 0.0;
    /** True for the native SWAP gate (not an fSim member). */
    bool is_swap = false;

    /** The 4x4 unitary of this gate type. */
    Matrix unitary() const;

    /**
     * What the analytic KAK decomposition engine can do with this
     * type: Universal for CZ-class gates (every SU(4) target in the
     * SBM-minimal count), LocalEquivalence otherwise (only the type's
     * own interaction class). Gate specs carry this advertisement
     * into the translation layer (see gateSpecs()).
     */
    AnalyticTier analyticTier() const;
};

/** Continuous-family flag for a gate set. */
enum class ContinuousFamily
{
    None,
    /** Rigetti Full XY: {XY(theta), theta in [0, pi]} plus CZ. */
    FullXy,
    /** Google Full fSim: {fSim(theta, phi), theta, phi in [0, pi]}. */
    FullFsim,
    /**
     * Continuous Controlled-Phase family {CZ(phi), phi in [0, pi]}
     * (Lacroix et al., paper ref. [13]) — an extension set.
     */
    FullCphase,
};

/** An instruction set: a named collection of two-qubit gate types. */
struct GateSet
{
    std::string name;
    std::vector<GateType> types;
    ContinuousFamily continuous = ContinuousFamily::None;

    bool isContinuous() const
    {
        return continuous != ContinuousFamily::None;
    }

    /**
     * Number of discrete gate types for the calibration model; the
     * paper's continuous sets correspond to the 19x19 discretized
     * parameter grid (361 combinations) of Section VIII.
     */
    int calibrationTypeCount() const;

    /** True if the set contains a type with the given name. */
    bool hasType(const std::string& type_name) const;

    /**
     * Calibration key of the continuous family, the name a Device
     * stores the family's per-edge fidelity under: "XY", "fSim" or
     * "CZt". Empty for a discrete set.
     */
    const char* familyKey() const;
};

namespace isa {

/** Baseline single gate types S1..S7 of Table II. */
GateType s1(); // SYC = fSim(pi/2, pi/6)
GateType s2(); // sqrt(iSWAP) = fSim(pi/4, 0)
GateType s3(); // CZ = fSim(0, pi)
GateType s4(); // iSWAP = fSim(pi/2, 0)
GateType s5(); // fSim(pi/3, 0)
GateType s6(); // fSim(3pi/8, 0)
GateType s7(); // fSim(pi/6, pi)
/** Native hardware SWAP type. */
GateType swapType();

/** All eight baseline types in order (S1..S7, SWAP). */
std::vector<GateType> baselineTypes();

/** Single-type instruction sets S1..S7 (index 1..7). */
GateSet singleTypeSet(int index);

/** Google multi-type sets G1..G7 (index 1..7). */
GateSet googleSet(int index);

/** Rigetti multi-type sets R1..R5 (index 1..5). */
GateSet rigettiSet(int index);

/** Full continuous XY family (Rigetti). */
GateSet fullXy();

/** Full continuous fSim family (Google). */
GateSet fullFsim();

/**
 * Continuous Controlled-Phase set CZ(phi) plus iSWAP, after Lacroix
 * et al.'s demonstration for deep QAOA circuits (extension study).
 */
GateSet fullCphase();

} // namespace isa
} // namespace qiset

#endif // QISET_ISA_GATE_SET_H
