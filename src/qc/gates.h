#ifndef QISET_QC_GATES_H
#define QISET_QC_GATES_H

/**
 * @file
 * The gate library: unitaries for the single-qubit rotations and the
 * two-qubit gate families studied in the paper (Table I).
 *
 * Conventions follow the paper exactly:
 *  - U3(alpha, beta, lambda) is the general single-qubit rotation of
 *    the paper's footnote 1.
 *  - fSim(theta, phi) is Google's gate family (Table I):
 *        diag-block [[cos t, -i sin t], [-i sin t, cos t]] on {01, 10}
 *        and e^{-i phi} on {11}.
 *  - XY(theta) is Rigetti's family; XY(theta) == fSim(theta/2, 0) up to
 *    single-qubit rotations.
 * Qubit ordering: basis {|00>, |01>, |10>, |11>} with the first qubit
 * as the most significant bit.
 */

#include <vector>

#include "qc/matrix.h"

namespace qiset {
namespace gates {

/** Global constant pi. */
inline constexpr double kPi = 3.14159265358979323846;

// ---------------------------------------------------------------------
// Single-qubit gates.
// ---------------------------------------------------------------------

/** Arbitrary single-qubit rotation (paper footnote 1). */
Matrix u3(double alpha, double beta, double lambda);

Matrix identity1q();
Matrix pauliX();
Matrix pauliY();
Matrix pauliZ();
Matrix hadamard();
Matrix sGate();
Matrix tGate();

/** Rotation exp(-i theta X / 2). */
Matrix rx(double theta);
/** Rotation exp(-i theta Y / 2). */
Matrix ry(double theta);
/** Rotation exp(-i theta Z / 2). */
Matrix rz(double theta);

// ---------------------------------------------------------------------
// Two-qubit gate families (Table I).
// ---------------------------------------------------------------------

/** Google's fSim(theta, phi) family. */
Matrix fsim(double theta, double phi);

/** Rigetti's XY(theta) family (XY(pi) == iSWAP up to 1Q rotations). */
Matrix xy(double theta);

/** Controlled-phase family CZ(phi) == fSim(0, phi). */
Matrix cphase(double phi);

/** Fixed Controlled-Z gate (== fSim(0, pi)). */
Matrix cz();

/** CNOT with the first qubit as control. */
Matrix cnot();

/** iSWAP == fSim(pi/2, 0). */
Matrix iswap();

/** sqrt(iSWAP) == fSim(pi/4, 0). */
Matrix sqrtIswap();

/** Google Sycamore gate SYC == fSim(pi/2, pi/6). */
Matrix sycamore();

/** The SWAP gate. */
Matrix swap();

// ---------------------------------------------------------------------
// Application interaction unitaries (Section VI workloads).
// ---------------------------------------------------------------------

/** Two-qubit Pauli interaction exp(-i beta Z (x) Z), used by QAOA/FH. */
Matrix zz(double beta);

/**
 * Hopping interaction exp(-i theta (XX + YY) / 2), used by the
 * Fermi-Hubbard workload. Numerically equals fsim(theta, 0).
 */
Matrix xxPlusYy(double theta);

// ---------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------

/** Tensor product of two single-qubit gates: a on qubit 0, b on qubit 1. */
Matrix kron2(const Matrix& a, const Matrix& b);

/**
 * U3 angles of an arbitrary 2x2 unitary: returns {alpha, beta, lambda}
 * with u3(alpha, beta, lambda) == u up to a global phase. Inverse of
 * u3() modulo phase; the analytic KAK engine uses it to emit its local
 * factors in the same parameter encoding NuOp templates use.
 */
std::vector<double> u3Angles(const Matrix& u);

} // namespace gates
} // namespace qiset

#endif // QISET_QC_GATES_H
