#include "compiler/routing.h"

#include "common/error.h"
#include "qc/gates.h"

namespace qiset {

namespace {

/** The circuit's SWAP entry, stored on first use. */
UnitaryId
swapEntry(Circuit& circuit, std::optional<UnitaryId>& swap)
{
    if (!swap)
        swap = circuit.storeUnitary(gates::swap());
    return *swap;
}

} // namespace

void
addSwapOp(Circuit& circuit, std::optional<UnitaryId>& swap, int slot_a,
          int slot_b)
{
    static const LabelId swap_label = internLabel("SWAP");
    circuit.add2q(slot_a, slot_b, swapEntry(circuit, swap), swap_label);
}

void
addTeleportOp(Circuit& circuit, std::optional<UnitaryId>& swap,
              int slot_a, int slot_b, double error_rate,
              double duration_ns)
{
    static const LabelId teleport_label = internLabel("TELEPORT");
    circuit.add2q(slot_a, slot_b, swapEntry(circuit, swap), teleport_label,
                  error_rate, duration_ns);
}

void
addTeleportSwapOp(Circuit& circuit, std::optional<UnitaryId>& swap,
                  int slot_a, int slot_b, double error_rate,
                  double duration_ns)
{
    static const LabelId teleswap_label = internLabel("TELESWAP");
    circuit.add2q(slot_a, slot_b, swapEntry(circuit, swap), teleswap_label,
                  error_rate, duration_ns);
}

RoutingState::RoutingState(int num_positions)
    : position(num_positions), occupant(num_positions)
{
    for (int i = 0; i < num_positions; ++i)
        position[i] = occupant[i] = i;
}

RoutingState::RoutingState(std::vector<int> initial_positions)
    : position(std::move(initial_positions)),
      occupant(position.size(), -1)
{
    for (size_t l = 0; l < position.size(); ++l) {
        QISET_REQUIRE(position[l] >= 0 &&
                          position[l] <
                              static_cast<int>(position.size()) &&
                      occupant[position[l]] < 0,
                      "initial positions must be a permutation");
        occupant[position[l]] = static_cast<int>(l);
    }
}

void
RoutingState::swapSlots(int slot_a, int slot_b)
{
    int la = occupant[slot_a];
    int lb = occupant[slot_b];
    std::swap(occupant[slot_a], occupant[slot_b]);
    position[la] = slot_b;
    position[lb] = slot_a;
}

RoutedCircuit
routeCircuit(const Circuit& logical, const Topology& coupling)
{
    QISET_REQUIRE(coupling.numQubits() == logical.numQubits(),
                  "coupling graph width must match the circuit");
    QISET_REQUIRE(coupling.connected() || logical.numQubits() == 1,
                  "coupling graph must be connected");

    int n = logical.numQubits();
    RoutedCircuit out;
    out.circuit = Circuit(n);
    // Output = every logical op plus inserted SWAPs; pre-size for the
    // known part so the append loop rarely reallocates. The table
    // holds one entry per logical op and the shared SWAP.
    out.circuit.reserveOps(logical.size(), logical.size() + 1);

    RoutingState state(n);

    std::optional<UnitaryId> swap_entry;
    auto emit_swap = [&](int slot_a, int slot_b) {
        addSwapOp(out.circuit, swap_entry, slot_a, slot_b);
        ++out.swaps_inserted;
        state.swapSlots(slot_a, slot_b);
    };

    // One path/scratch pair for the whole sweep: the BFS queries
    // reuse their capacity instead of allocating per SWAP candidate.
    std::vector<int> path;
    std::vector<int> path_scratch;
    for (const auto& op : logical.ops()) {
        Qubits qs = op.qubits();
        if (!op.isTwoQubit()) {
            out.circuit.add(op, Qubits(state.position[qs[0]]));
            continue;
        }
        int la = qs[0];
        int lb = qs[1];
        while (!coupling.adjacent(state.position[la],
                                  state.position[lb])) {
            coupling.shortestPathInto(state.position[la],
                                      state.position[lb], path,
                                      path_scratch);
            QISET_ASSERT(path.size() >= 3, "non-adjacent pair with a "
                                           "path shorter than 3 nodes");
            emit_swap(path[0], path[1]);
        }
        out.circuit.add(
            op, Qubits(state.position[la], state.position[lb]));
    }

    out.initial_positions.resize(n);
    for (int i = 0; i < n; ++i)
        out.initial_positions[i] = i;
    out.final_positions = state.position;
    return out;
}

} // namespace qiset
