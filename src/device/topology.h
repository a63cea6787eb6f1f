#ifndef QISET_DEVICE_TOPOLOGY_H
#define QISET_DEVICE_TOPOLOGY_H

/**
 * @file
 * Qubit connectivity graphs. NISQ devices restrict two-qubit gates to
 * coupled pairs; the router uses these graphs to insert SWAPs.
 *
 * A topology may additionally carry a *core structure* describing a
 * modular (chiplet) QPU: every qubit belongs to exactly one Core of
 * bounded capacity, and cores are linked by TeleportEdges between
 * designated communication qubits. Coupling edges never cross cores on
 * such devices; the only inter-core channel is EPR-mediated
 * teleportation, which the "telesabre" router (TeleportRouter in
 * compiler/routing_strategy.h) models.
 * Topologies without cores behave exactly as before.
 */

#include <utility>
#include <vector>

namespace qiset {

/**
 * One chiplet of a modular device: a bounded set of qubits plus the
 * subset designated as communication (EPR-half) qubits. Capacity is
 * the qubit count — the shard planner and chooseMapping never place
 * more logicals on a core than it holds.
 */
struct Core
{
    /** Device qubit ids belonging to this core, sorted ascending. */
    std::vector<int> qubits;
    /** Subset of `qubits` usable as EPR endpoints for teleport edges. */
    std::vector<int> comm_qubits;

    int capacity() const { return static_cast<int>(qubits.size()); }
};

/**
 * An EPR-mediated teleportation link between two cores. The endpoints
 * comm_a (in core_a) and comm_b (in core_b) are *not* coupling-adjacent;
 * crossing the link consumes one EPR pair per exchange teleportation,
 * with the attempt cost model below (heralded generation succeeds with
 * fidelity `epr_fidelity` after `mean_attempts` tries of
 * `attempt_duration_ns` each).
 */
struct TeleportEdge
{
    int core_a = -1;
    int core_b = -1;
    /** Communication qubit inside core_a / core_b (device ids). */
    int comm_a = -1;
    int comm_b = -1;
    /** Fidelity of one distilled EPR pair across this link. */
    double epr_fidelity = 0.985;
    /** Wall-clock of one heralded EPR generation attempt. */
    double attempt_duration_ns = 500.0;
    /** Expected attempts until success (geometric model). */
    double mean_attempts = 2.0;
};

/** Undirected coupling graph over qubits 0..n-1. */
class Topology
{
  public:
    /** Graph with n isolated qubits. */
    explicit Topology(int num_qubits);

    int numQubits() const { return num_qubits_; }

    /** Add an undirected edge (idempotent). */
    void addEdge(int a, int b);

    bool adjacent(int a, int b) const;

    const std::vector<int>& neighbors(int q) const;

    /** All edges with a < b, in forEachEdge's order. */
    std::vector<std::pair<int, int>> edges() const;

    /**
     * Call fn(a, b) for every edge with a < b without building a list:
     * a ascending, then a's neighbours in the order they were added.
     */
    template <typename Fn>
    void
    forEachEdge(Fn&& fn) const
    {
        for (int a = 0; a < num_qubits_; ++a)
            for (int b : adjacency_[a])
                if (a < b)
                    fn(a, b);
    }

    int numEdges() const;

    /** BFS shortest path from a to b (inclusive); empty if unreachable. */
    std::vector<int> shortestPath(int a, int b) const;

    /**
     * shortestPath into caller-owned storage: `path` receives the
     * result, `scratch` holds the BFS working set. Both grow to
     * steady-state capacity on first use and are reused verbatim on
     * every following call — the routers query paths once per SWAP
     * candidate, and this keeps those sweeps off the heap. Produces
     * exactly the path shortestPath() returns.
     */
    void shortestPathInto(int a, int b, std::vector<int>& path,
                          std::vector<int>& scratch) const;

    /** True if every qubit can reach every other. */
    bool connected() const;

    /**
     * connected() over caller storage: `scratch` holds numQubits()
     * ints and is overwritten. The routers lend it scratch they own,
     * so their precondition check allocates nothing.
     */
    bool connected(int* scratch) const;

    /**
     * Induced subgraph on the given qubits; node i of the result is
     * qubits[i]. On a topology with cores, the core structure is
     * carried over: cores retaining at least one selected qubit are
     * renumbered in original order, comm qubits are kept where
     * selected, and a teleport edge survives iff both of its comm
     * endpoints were selected. Core-less topologies are unaffected.
     */
    Topology inducedSubgraph(const std::vector<int>& qubits) const;

    /**
     * Partition all qubits into `count` disjoint connected regions of
     * roughly equal size (the building block of multi-region compile
     * sharding). Seeds are chosen by farthest-point sampling and the
     * regions grow round-robin, one qubit per turn, always claiming
     * the lowest-index unclaimed neighbor — fully deterministic.
     * Every qubit lands in exactly one region; each region is sorted
     * ascending. Requires a connected topology.
     */
    std::vector<std::vector<int>> balancedPartitions(int count) const;

    /** Path graph 0-1-...-(n-1). */
    static Topology line(int n);

    /** Cycle graph. */
    static Topology ring(int n);

    /** Rectangular grid with row-major numbering. */
    static Topology grid(int rows, int cols);

    // ---- chiplet core structure -------------------------------------

    /**
     * Install the core partition. Every qubit must belong to exactly
     * one core, every core must be non-empty, and comm qubits must be
     * members of their core. Clears any previously installed cores and
     * teleport edges.
     */
    void setCores(std::vector<Core> cores);

    /**
     * Add an inter-core teleport link. Validates that the cores exist,
     * that comm_a/comm_b live in core_a/core_b, and registers both
     * endpoints as comm qubits of their cores if not already listed.
     */
    void addTeleportEdge(TeleportEdge edge);

    /** Number of cores; 0 on a monolithic (core-less) topology. */
    int numCores() const { return static_cast<int>(cores_.size()); }

    /** True when a core structure is installed. */
    bool hasCores() const { return !cores_.empty(); }

    const Core& core(int index) const;

    /** Core owning qubit q, or -1 on a core-less topology. */
    int coreOf(int q) const;

    const std::vector<TeleportEdge>& teleportEdges() const
    {
        return teleport_edges_;
    }

    /**
     * Inter-core hop distance over the teleport-edge graph (each link
     * one hop); 0 for a == b, -1 when unreachable.
     */
    int coreDistance(int core_a, int core_b) const;

    /**
     * BFS distance between two qubits of the *same* core, restricted
     * to that core's qubits; -1 for different cores or unreachable.
     */
    int intraCoreDistance(int a, int b) const;

    /**
     * True when every qubit reaches every other via coupling edges
     * plus teleport links. This is the connectivity contract the
     * "telesabre" router requires on multi-core couplings (they fail
     * the plain connected() check because coupling never crosses
     * cores).
     */
    bool connectedWithTeleport() const;

    /**
     * N×M grid of cores, each an rows×cols coupling grid (row-major
     * inside each core; cores numbered row-major; qubit id =
     * core_index * rows * cols + local id). Adjacent cores are joined
     * by one teleport edge whose comm qubits sit at the midpoint of
     * the facing boundary, with the given EPR cost model.
     */
    static Topology gridOfGrids(int core_rows, int core_cols, int rows,
                                int cols, double epr_fidelity = 0.985,
                                double attempt_duration_ns = 500.0,
                                double mean_attempts = 2.0);

  private:
    int num_qubits_;
    std::vector<std::vector<int>> adjacency_;
    std::vector<Core> cores_;
    std::vector<TeleportEdge> teleport_edges_;
    /** core_of_[q] = owning core; empty when no cores installed. */
    std::vector<int> core_of_;
};

} // namespace qiset

#endif // QISET_DEVICE_TOPOLOGY_H
