#ifndef QISET_COMPILER_ROUTING_STRATEGY_H
#define QISET_COMPILER_ROUTING_STRATEGY_H

/**
 * @file
 * SWAP-routing strategies: a fixed set of three routers.
 *
 * The RoutingPass builds its router with makeRoutingStrategy() from
 * CompileOptions::routing plus the compile's SabreOptions and
 * TeleportOptions:
 *
 *  - "greedy": the paper's baseline — walk the op list and close each
 *    non-adjacent 2Q gate with SWAPs along a shortest path
 *    (routing.h).
 *  - "sabre":  a SABRE-style bidirectional lookahead router (Li,
 *    Ding, Xie, ASPLOS'19 shape). It keeps the DAG's front layer of
 *    blocked 2Q gates, scores candidate SWAPs by the summed coupling
 *    distance of the front layer plus a weighted lookahead window
 *    drawn from the Schedule IR's ASAP moment order, multiplies in a
 *    per-position decay to spread SWAPs across the register, and runs
 *    forward/reverse refinement passes whose final mapping seeds the
 *    emitting pass (so the start layout may be a permutation; see
 *    RoutedCircuit::initial_positions).
 *  - "telesabre": the chiplet-aware extension (TeleportRouter). On
 *    couplings carrying a multi-core structure it weighs intra-core
 *    SWAP chains against inter-core exchange teleportations; on
 *    single-core couplings it routes exactly as "sabre".
 *
 * "sabre" and "telesabre" run one engine (routing_strategy.cc): one
 * dependency-DAG builder, one all-pairs distance table, one pass loop
 * and one refine-then-emit driver. The link moves are the only part
 * telesabre adds, and they run only on multi-core couplings.
 */

#include <memory>
#include <string>
#include <vector>

#include "circuit/schedule.h"
#include "common/arena.h"
#include "compiler/routing.h"

namespace qiset {

/** One SWAP-insertion policy. Implementations must be deterministic. */
class RoutingStrategy
{
  public:
    virtual ~RoutingStrategy() = default;

    /** Stable identifier ("greedy", "sabre", "telesabre"). */
    virtual std::string name() const = 0;

    /**
     * Whether route() consumes the schedule argument. Strategies that
     * return false (greedy) receive an empty Schedule and spare the
     * routing pass the build on the common path.
     */
    virtual bool wantsSchedule() const { return true; }

    /**
     * Route `logical` onto `coupling` (register-position numbering).
     * `schedule` is the moment schedule of `logical`, shared from the
     * CompilationContext — an empty Schedule when wantsSchedule() is
     * false. Must satisfy the RoutedCircuit contract: every emitted
     * 2Q op on a coupled pair, positions tracked in
     * initial_positions/final_positions, SWAPs emitted via
     * addSwapOp(). Scratch rebuilt per route (distance tables,
     * dependency DAGs, frontier sets) bump-allocates from `arena`:
     * every arena allocation is dead by return — the caller resets
     * the arena right after — and the returned RoutedCircuit holds
     * only regular heap state.
     */
    virtual RoutedCircuit route(const Circuit& logical,
                                const Topology& coupling,
                                const Schedule& schedule,
                                MemArena& arena) const = 0;

    /**
     * No caller arena (direct router use, e.g. tests/benches):
     * scratch lives in a route-local arena discarded on return.
     */
    RoutedCircuit route(const Circuit& logical, const Topology& coupling,
                        const Schedule& schedule) const
    {
        MemArena arena;
        return route(logical, coupling, schedule, arena);
    }

    /** Convenience overload building the schedule internally. */
    RoutedCircuit route(const Circuit& logical,
                        const Topology& coupling) const
    {
        return route(logical, coupling,
                     wantsSchedule() ? Schedule(logical) : Schedule());
    }
};

/** The baseline greedy nearest-neighbor router (wraps routeCircuit). */
class GreedyRouter : public RoutingStrategy
{
  public:
    using RoutingStrategy::route;

    std::string name() const override { return "greedy"; }

    bool wantsSchedule() const override { return false; }

    RoutedCircuit route(const Circuit& logical, const Topology& coupling,
                        const Schedule& schedule,
                        MemArena& arena) const override;
};

/** Tuning knobs of the SABRE-style router. */
struct SabreOptions
{
    /** Lookahead window: 2Q gates past the front layer to score. */
    int extended_set_size = 20;
    /** Weight of the lookahead term relative to the front layer. */
    double extended_set_weight = 0.5;
    /** Decay added to a position's weight per SWAP it partakes in. */
    double decay_increment = 0.001;
    /** SWAPs between decay resets (also reset on any progress). */
    int decay_reset_interval = 5;
    /**
     * Mapping-refinement passes run before the emitting pass:
     * forward, reverse, forward, ... Each seeds the next with its
     * final mapping (the SABRE bidirectional trick); 0 keeps the
     * identity start layout.
     */
    int refinement_rounds = 2;
};

/** Tuning knobs of the teleportation-aware chiplet router. */
struct TeleportOptions
{
    /**
     * Emit TELEPORT ops across inter-core links (one EPR pair each).
     * When false the router still crosses links, but with TELESWAP
     * ops — the gate-teleportation SWAP-only baseline at three EPR
     * pairs per crossing — so the two modes route identically and
     * differ only in link-op cost. The benches compare exactly this.
     */
    bool use_teleport = true;
    /**
     * Distance-table weight of one teleport link hop relative to one
     * intra-core coupling hop (> 1 biases the router toward staying
     * inside a core when a SWAP chain is competitive).
     */
    double teleport_weight = 2.0;
};

/** SABRE-style lookahead router ("sabre"). */
class SabreRouter : public RoutingStrategy
{
  public:
    using RoutingStrategy::route;

    explicit SabreRouter(SabreOptions options = SabreOptions());

    std::string name() const override { return "sabre"; }

    RoutedCircuit route(const Circuit& logical, const Topology& coupling,
                        const Schedule& schedule,
                        MemArena& arena) const override;

    const SabreOptions& options() const { return options_; }

  private:
    SabreOptions options_;
};

/**
 * TeleSABRE-style router for modular (chiplet) devices ("telesabre").
 *
 * It extends the SABRE lookahead loop to couplings that carry a core
 * structure (Topology::setCores / gridOfGrids): per blocked frontier
 * gate it weighs intra-core SWAP chains against inter-core *exchange
 * teleportations* — SWAP-semantics moves across a TeleportEdge's comm
 * qubit pair, each consuming one EPR pair under the edge's attempt
 * model — over a weighted all-pairs distance table (coupling hop = 1,
 * link hop = TeleportOptions::teleport_weight). Chosen teleports are
 * emitted as explicit "TELEPORT" ops (addTeleportOp) that the rest of
 * the pipeline passes through as native link operations.
 *
 * With TeleportOptions::use_teleport = false the router routes
 * identically but crosses links with "TELESWAP" ops — the SWAP-only
 * gate-teleportation baseline at three EPR pairs per crossing — which
 * is exactly the comparison bench_chiplet gates on.
 *
 * On couplings with at most one core it routes as SabreRouter with
 * the same SabreOptions, bit-identically — single-core devices cannot
 * tell "telesabre" from "sabre".
 */
class TeleportRouter : public SabreRouter
{
  public:
    using SabreRouter::route;

    explicit TeleportRouter(SabreOptions sabre = SabreOptions(),
                            TeleportOptions teleport = TeleportOptions());

    std::string name() const override { return "telesabre"; }

    RoutedCircuit route(const Circuit& logical, const Topology& coupling,
                        const Schedule& schedule,
                        MemArena& arena) const override;

  private:
    TeleportOptions teleport_;
};

/**
 * Build the router called `name` ("greedy", "sabre" or "telesabre")
 * with the given tuning; greedy takes none. Throws FatalError for
 * any other name (the message lists the known ones).
 */
std::unique_ptr<RoutingStrategy>
makeRoutingStrategy(const std::string& name,
                    const SabreOptions& sabre = SabreOptions(),
                    const TeleportOptions& teleport = TeleportOptions());

/** The names makeRoutingStrategy() accepts, sorted. */
std::vector<std::string> routingStrategyNames();

} // namespace qiset

#endif // QISET_COMPILER_ROUTING_STRATEGY_H
