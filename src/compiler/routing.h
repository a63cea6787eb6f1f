#ifndef QISET_COMPILER_ROUTING_H
#define QISET_COMPILER_ROUTING_H

/**
 * @file
 * SWAP routing: rewrite a fully-connected logical circuit onto a
 * restricted coupling graph by inserting application-level SWAP
 * operations (which NuOp later decomposes into native gates — or maps
 * 1:1 when the instruction set has a hardware SWAP, as in R5/G7).
 */

#include <optional>
#include <vector>

#include "circuit/circuit.h"
#include "device/topology.h"

namespace qiset {

/** Result of the routing pass. */
struct RoutedCircuit
{
    /** Circuit over register positions 0..n-1 (labels preserved;
     *  inserted SWAPs are labeled "SWAP"). */
    Circuit circuit;
    /** initial_positions[l] = register position of logical qubit l at
     *  circuit start. Identity for the greedy router; lookahead
     *  routers may pick a permuted start layout (sound for the
     *  all-|0> register input the simulators use, since the routed
     *  circuit carries every preparation gate with it). */
    std::vector<int> initial_positions;
    /** final_positions[l] = register position of logical qubit l at
     *  measurement time. */
    std::vector<int> final_positions;
    /** Number of SWAP operations inserted (including link SWAPs the
     *  SWAP-only chiplet baseline emits across teleport edges). */
    int swaps_inserted = 0;
    /** Number of inter-core teleport operations inserted. */
    int teleports_inserted = 0;
    /** Expected EPR generation attempts consumed by inter-core
     *  traffic (1 pair per teleport, 3 per link SWAP, times the
     *  link's mean attempts per pair). */
    double epr_attempts = 0.0;
    /** Moves the lookahead routers' stuck fallback made: shortest-path
     *  moves forced after 10 * n moves without executing a gate, or
     *  when every candidate was the previous move's inverse. Counted
     *  in the emitting pass only; 0 for the greedy router. */
    int fallback_moves = 0;

    RoutedCircuit() : circuit(1) {}
};

/**
 * Route a logical circuit onto the given connectivity (the induced
 * subgraph of the chosen physical qubits, in register-position
 * numbering) by greedy nearest-neighbor SWAP chains. Logical qubit l
 * starts at register position l. This is the "greedy" strategy of
 * routing_strategy.h, next to the "sabre" and "telesabre" routers.
 */
RoutedCircuit routeCircuit(const Circuit& logical,
                           const Topology& coupling);

/**
 * Append the canonical application-level SWAP operation (the one
 * NuOp later decomposes, or maps 1:1 on hardware-SWAP sets). Every
 * router must emit SWAPs through this so label/unitary stay uniform.
 *
 * SWAP, TELEPORT and TELESWAP ops all carry gates::swap(), stored
 * once per routed circuit: `swap` is that circuit's table entry,
 * empty until the first such op stores it, and every later op
 * references it. Pass the same optional for every op of one circuit,
 * and a fresh one for each new circuit.
 */
void addSwapOp(Circuit& circuit, std::optional<UnitaryId>& swap,
               int slot_a, int slot_b);

/**
 * Append an inter-core exchange teleportation: SWAP semantics between
 * the two comm slots of a teleport edge, labeled "TELEPORT" and
 * carrying the link's error rate / duration. Translation passes these
 * through untouched (the endpoints are not coupling-adjacent, so they
 * must never reach gate decomposition) and consolidation treats them
 * as fusion barriers. `swap` as for addSwapOp.
 */
void addTeleportOp(Circuit& circuit, std::optional<UnitaryId>& swap,
                   int slot_a, int slot_b, double error_rate,
                   double duration_ns);

/**
 * Append a link SWAP across a teleport edge — the SWAP-only baseline
 * the teleport router compares against, implemented by gate
 * teleportation at a cost of three EPR pairs. Labeled "TELESWAP";
 * handled like TELEPORT by consolidation/translation. `swap` as for
 * addSwapOp.
 */
void addTeleportSwapOp(Circuit& circuit, std::optional<UnitaryId>& swap,
                       int slot_a, int slot_b, double error_rate,
                       double duration_ns);

/**
 * The logical<->position mapping a router mutates while inserting
 * SWAPs, shared by every strategy so the two sides of the bijection
 * cannot drift apart.
 */
struct RoutingState
{
    /** position[l] = register slot currently holding logical qubit l. */
    std::vector<int> position;
    /** occupant[s] = logical qubit currently held by register slot s. */
    std::vector<int> occupant;

    /** Identity layout on n slots. */
    explicit RoutingState(int num_positions);

    /** Start from a given layout (position[l] = initial slot of l). */
    explicit RoutingState(std::vector<int> initial_positions);

    /** Record a SWAP of the occupants of two slots. */
    void swapSlots(int slot_a, int slot_b);
};

} // namespace qiset

#endif // QISET_COMPILER_ROUTING_H
