#include "compiler/consolidate.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/arena.h"
#include "common/error.h"
#include "qc/gates.h"

namespace qiset {

namespace {

/** An in-flight fusion block on an ordered qubit pair. */
struct Block
{
    int qubit_a = -1; // first qubit == most-significant bit of the 4x4
    int qubit_b = -1;
    /** Creation order, for the final flush. */
    uint32_t sequence = 0;
    /** The input op that opened the block while nothing has fused
     *  into it (its unitary is then that op's), else -1. */
    int opener = -1;
    Matrix unitary;
};

/** Embed a 1Q gate into the block's 4x4 (a is the MSB). */
Matrix
embed1q(const Matrix& gate, bool on_first)
{
    return on_first ? gate.kron(Matrix::identity(2))
                    : Matrix::identity(2).kron(gate);
}

} // namespace

Circuit
consolidateTwoQubitBlocks(const Circuit& circuit)
{
    // No caller arena (direct use in tests/benches): scratch lives in
    // a call-local arena discarded wholesale on return.
    MemArena arena;
    return consolidateTwoQubitBlocks(circuit, arena);
}

Circuit
consolidateTwoQubitBlocks(const Circuit& circuit, MemArena& arena)
{
    Circuit out(circuit.numQubits());
    // Consolidation never grows the op list: every input op either
    // passes through or fuses away. Unfused ops (one-op blocks
    // included) share one output entry per input entry, and a fused
    // block's own entry takes the place of the entries of the ops it
    // absorbed, so the input's table size suffices unless those ops
    // shared their entries.
    out.reserveOps(circuit.size(), circuit.unitaryTableSize());
    // shared[u]: the output entry of input entry u, stored on first use.
    auto shared =
        makeArenaVector<int>(arena, circuit.unitaryTableSize(), -1);
    auto entry_of = [&](size_t op) {
        int& id = shared[static_cast<size_t>(circuit.opUnitaryId(op))];
        if (id < 0)
            id = static_cast<int>(out.storeUnitary(circuit.opUnitary(op)));
        return static_cast<UnitaryId>(id);
    };
    auto pass_through = [&](ConstOpRef op) {
        Qubits qs = op.qubits();
        UnitaryId entry = entry_of(op.index());
        if (op.isTwoQubit())
            out.add2q(qs[0], qs[1], entry, op.labelId(), op.errorRate(),
                      op.durationNs());
        else
            out.add1q(qs[0], entry, op.labelId(), op.errorRate(),
                      op.durationNs());
    };

    // A qubit is in at most one live block, so each live block sits at
    // its first qubit in a register-sized table, and owner[q] is the
    // slot of the block covering qubit q, or -1.
    auto owner = makeArenaVector<int>(arena, circuit.numQubits(), -1);
    auto live = makeArenaVector<Block>(arena, circuit.numQubits());
    uint32_t opened = 0;
    // Every 4x4 product lands in these reused scratch matrices
    // (inline SBO storage — the whole fuse loop is allocation-free).
    Matrix embedded, product;

    static const LabelId block_label = internLabel("block");
    auto flush = [&](int slot) {
        Block& block = live[static_cast<size_t>(slot)];
        UnitaryId entry =
            block.opener >= 0 ? entry_of(static_cast<size_t>(block.opener))
                              : out.storeUnitary(block.unitary);
        out.add2q(block.qubit_a, block.qubit_b, entry, block_label);
        owner[block.qubit_a] = -1;
        owner[block.qubit_b] = -1;
    };

    auto flush_qubit = [&](int q) {
        if (owner[q] >= 0)
            flush(owner[q]);
    };

    for (const auto& op : circuit.ops()) {
        Qubits qs = op.qubits();
        if (!op.isTwoQubit()) {
            int q = qs[0];
            if (owner[q] >= 0) {
                Block& block = live[static_cast<size_t>(owner[q])];
                embedded = embed1q(op.unitary(), q == block.qubit_a);
                Matrix::multiplyInto(product, embedded, block.unitary);
                std::swap(block.unitary, product);
                block.opener = -1;
            } else {
                pass_through(op);
            }
            continue;
        }

        int a = qs[0];
        int b = qs[1];
        static const LabelId teleport_label = internLabel("TELEPORT");
        static const LabelId teleswap_label = internLabel("TELESWAP");
        if (op.labelId() == teleport_label ||
            op.labelId() == teleswap_label) {
            // Inter-core link ops are fusion barriers: they are
            // already native (translation passes them through, never
            // decomposes them), so absorbing them into an SU(4) block
            // would put that block on an uncoupled qubit pair.
            flush_qubit(a);
            flush_qubit(b);
            pass_through(op);
            continue;
        }
        if (owner[a] >= 0 && owner[a] == owner[b]) {
            // Same pair: fuse (reorienting if the op is reversed).
            Block& block = live[static_cast<size_t>(owner[a])];
            if (a != block.qubit_a) {
                const Matrix& s = gates::swap();
                Matrix::multiplyInto(product, s, op.unitary());
                Matrix::multiplyInto(embedded, product, s);
            } else {
                embedded = op.unitary();
            }
            Matrix::multiplyInto(product, embedded, block.unitary);
            std::swap(block.unitary, product);
            block.opener = -1;
            continue;
        }
        // Different partners: close whatever these qubits were part of
        // and open a fresh block in the now free slot of its first
        // qubit.
        flush_qubit(a);
        flush_qubit(b);
        Block& block = live[static_cast<size_t>(a)];
        block.qubit_a = a;
        block.qubit_b = b;
        block.sequence = opened++;
        block.opener = static_cast<int>(op.index());
        block.unitary = op.unitary();
        owner[a] = a;
        owner[b] = a;
    }

    // Flush remaining blocks in creation order for determinism.
    auto open = makeArenaVector<int>(arena);
    for (int q = 0; q < circuit.numQubits(); ++q)
        if (owner[q] == q)
            open.push_back(q);
    std::sort(open.begin(), open.end(), [&](int x, int y) {
        return live[static_cast<size_t>(x)].sequence <
               live[static_cast<size_t>(y)].sequence;
    });
    for (int slot : open)
        flush(slot);

    return out;
}

} // namespace qiset
