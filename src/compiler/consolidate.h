#ifndef QISET_COMPILER_CONSOLIDATE_H
#define QISET_COMPILER_CONSOLIDATE_H

/**
 * @file
 * Two-qubit block consolidation (the "gate optimizations" box of the
 * paper's Fig. 1, mirroring Qiskit's Collect2qBlocks +
 * ConsolidateBlocks passes).
 *
 * Consecutive operations acting on the same qubit pair — including
 * single-qubit rotations sandwiched between them and routing SWAPs
 * followed by application gates — are fused into one SU(4) block, so
 * NuOp decomposes the *combined* unitary once instead of paying for
 * each operation separately.
 */

#include "circuit/circuit.h"

namespace qiset {

class MemArena;

/**
 * Fuse runs of operations confined to one qubit pair into single 4x4
 * unitaries (labeled "block"). Single-qubit ops merge into the
 * enclosing block when one exists on their qubit; otherwise they pass
 * through unchanged. Operation order across disjoint qubit sets is
 * preserved up to commuting reorderings. Ops that pass through, and
 * blocks holding a single op, share one output table entry per input
 * entry (a routed circuit's SWAP stays one entry).
 */
Circuit consolidateTwoQubitBlocks(const Circuit& circuit);

/**
 * Arena variant: the ownership table, the register-sized table of
 * in-flight blocks and the input-to-output entry map bump-allocate
 * from `arena` (dead by return; the caller resets). The returned
 * Circuit holds only regular heap state.
 */
Circuit consolidateTwoQubitBlocks(const Circuit& circuit,
                                  MemArena& arena);

} // namespace qiset

#endif // QISET_COMPILER_CONSOLIDATE_H
