#include "compiler/passes.h"

#include <memory>
#include <sstream>

#include "common/error.h"
#include "compiler/consolidate.h"
#include "compiler/crosstalk.h"
#include "compiler/mapping.h"
#include "compiler/routing.h"
#include "compiler/routing_strategy.h"
#include "compiler/translate.h"
#include "nuop/decomposition_strategy.h"

namespace qiset {

namespace {

class MappingPass : public Pass
{
  public:
    std::string name() const override { return "mapping"; }

    void run(CompilationContext& ctx) override
    {
        ctx.physical = chooseMapping(ctx.device(), ctx.circuit.numQubits(),
                                     ctx.gateSet());
        ctx.reportCounter("physical_qubits",
                          static_cast<double>(ctx.physical.size()));
    }
};

class RoutingPass : public Pass
{
  public:
    explicit RoutingPass(std::string strategy)
        : strategy_(std::move(strategy))
    {
    }

    std::string name() const override { return "routing"; }

    void run(CompilationContext& ctx) override
    {
        QISET_REQUIRE(ctx.physical.size() ==
                          static_cast<size_t>(ctx.circuit.numQubits()),
                      "routing requires a mapping pass to run first");
        Topology coupling =
            ctx.device().topology().inducedSubgraph(ctx.physical);

        // Building the requested router first rejects an unknown name
        // on every coupling. Multi-core couplings are disconnected in
        // the plain graph sense; only the teleport router can cross
        // cores, so it replaces any other request there.
        const CompileOptions& options = ctx.options();
        std::unique_ptr<RoutingStrategy> router = makeRoutingStrategy(
            strategy_, options.sabre, options.teleport);
        if (coupling.numCores() > 1 && router->name() != "telesabre") {
            ctx.diagnostic("routing: multi-core coupling forces "
                           "telesabre (requested " +
                           strategy_ + ")");
            router = makeRoutingStrategy("telesabre", options.sabre,
                                         options.teleport);
        }
        RoutedCircuit routed;
        {
            // Routing scratch (distance tables, DAG, frontier sets)
            // bumps from the compile arena and is rewound after the
            // route. Only lookahead strategies need the pre-routing
            // schedule; don't build one the greedy path would throw
            // away.
            ArenaResetGuard scratch(ctx.arena());
            routed = router->wantsSchedule()
                         ? router->route(ctx.circuit, coupling,
                                         ctx.ensureSchedule(), ctx.arena())
                         : router->route(ctx.circuit, coupling,
                                         Schedule(), ctx.arena());
        }
        ctx.circuit = std::move(routed.circuit);
        ctx.schedule.invalidate(); // SWAPs rewrote the circuit
        ctx.initial_positions = std::move(routed.initial_positions);
        ctx.final_positions = std::move(routed.final_positions);
        ctx.swaps_inserted = routed.swaps_inserted;
        ctx.teleports_inserted = routed.teleports_inserted;
        ctx.epr_attempts = routed.epr_attempts;
        ctx.reportCounter("swaps_inserted", routed.swaps_inserted);
        if (coupling.numCores() > 1) {
            ctx.reportCounter("teleports_inserted",
                              routed.teleports_inserted);
            ctx.reportCounter("epr_attempts", routed.epr_attempts);
        }
        if (routed.fallback_moves > 0)
            ctx.reportCounter("fallback_moves", routed.fallback_moves);
        ctx.diagnostic("routing: strategy " + router->name() +
                       " inserted " +
                       std::to_string(routed.swaps_inserted) + " SWAPs" +
                       (routed.teleports_inserted > 0
                            ? " and " +
                                  std::to_string(
                                      routed.teleports_inserted) +
                                  " teleports"
                            : ""));
    }

  private:
    std::string strategy_;
};

class ConsolidationPass : public Pass
{
  public:
    std::string name() const override { return "consolidation"; }

    void run(CompilationContext& ctx) override
    {
        int before = ctx.circuit.twoQubitGateCount();
        ArenaResetGuard scratch(ctx.arena());
        ctx.circuit = consolidateTwoQubitBlocks(ctx.circuit, ctx.arena());
        ctx.schedule.invalidate(); // fusing ops rewrote the circuit
        int after = ctx.circuit.twoQubitGateCount();
        ctx.reportCounter("blocks_before", before);
        ctx.reportCounter("blocks_after", after);
    }
};

class TranslationPass : public Pass
{
  public:
    std::string name() const override { return "translation"; }

    void run(CompilationContext& ctx) override
    {
        QISET_REQUIRE(ctx.physical.size() ==
                          static_cast<size_t>(ctx.circuit.numQubits()),
                      "translation requires a mapping pass to run first");
        NuOpDecomposer decomposer(ctx.options().nuop);
        std::unique_ptr<DecompositionStrategy> strategy =
            makeDecompositionStrategy(ctx.options().decomposition);
        ArenaResetGuard scratch(ctx.arena());
        TranslateResult translated = translateCircuit(
            ctx.circuit, ctx.physical, ctx.device(), ctx.gateSet(),
            decomposer, *strategy, ctx.profileCache(),
            ctx.options().approximate, ctx.threadPool(),
            ctx.options().intra_circuit_parallelism, &ctx.arena());
        ctx.circuit = std::move(translated.circuit);
        ctx.schedule.invalidate(); // native gates rewrote the circuit
        ctx.two_qubit_count = translated.two_qubit_count;
        ctx.type_usage = std::move(translated.type_usage);
        ctx.estimated_fidelity = translated.estimated_fidelity;

        ctx.reportCounter("two_qubit_count", translated.two_qubit_count);
        // 2Q blocks the analytic engine served (BFGS bypassed).
        ctx.reportCounter("analytic_ops",
                          static_cast<double>(translated.analytic_ops));
        if (translated.dressing_fallbacks > 0) {
            // Canonical dressing failed somewhere: each distinct such
            // unitary paid cold BFGS solves — surface it loudly.
            ctx.reportCounter(
                "dressing_fallbacks",
                static_cast<double>(translated.dressing_fallbacks));
            ctx.diagnostic(
                "translation: " +
                std::to_string(translated.dressing_fallbacks) +
                " op(s) fell back from canonical dressing to raw "
                "NuOp profiles");
        }
        if (translated.exact_fallbacks > 0) {
            // Exact mode met its threshold nowhere for these blocks
            // and emitted the best lossy fit instead.
            ctx.reportCounter(
                "exact_fallbacks",
                static_cast<double>(translated.exact_fallbacks));
            ctx.diagnostic(
                "translation: " +
                std::to_string(translated.exact_fallbacks) +
                " op(s) met no exact-threshold fit and fell back to "
                "the best lossy fit");
        }
        // This circuit's own traffic (the shared cache's global stats
        // also include concurrently-compiling circuits).
        ctx.reportCounter("cache_hits",
                          static_cast<double>(translated.cache_hits));
        ctx.reportCounter("cache_misses",
                          static_cast<double>(translated.cache_misses));
    }
};

class SchedulingPass : public Pass
{
  public:
    std::string name() const override { return "scheduling"; }

    void run(CompilationContext& ctx) override
    {
        ArenaResetGuard scratch(ctx.arena());
        ctx.schedule.build(ctx.circuit, &ctx.arena());
        ctx.reportCounter("depth", ctx.schedule.depth());
        ctx.reportCounter("max_parallel_2q",
                          static_cast<double>(
                              ctx.schedule.maxParallelTwoQubit()));
        ctx.reportCounter("duration_ns", ctx.schedule.durationNs());
    }
};

class CrosstalkPass : public Pass
{
  public:
    explicit CrosstalkPass(double inflation) : inflation_(inflation) {}

    std::string name() const override { return "crosstalk"; }

    void run(CompilationContext& ctx) override
    {
        // Simultaneity comes from the shared schedule (built by the
        // scheduling pass; rebuilt here only if a pass rewrote the
        // circuit afterwards). Error-rate inflation keeps it valid.
        ctx.crosstalk_inflated = applyCrosstalkInflation(
            ctx.circuit, ctx.ensureSchedule(), ctx.physical,
            ctx.device().topology(), inflation_);
        ctx.reportCounter("inflated_ops", ctx.crosstalk_inflated);
        if (ctx.crosstalk_inflated > 0) {
            std::ostringstream os;
            os << "crosstalk: inflated " << ctx.crosstalk_inflated
               << " simultaneous adjacent 2Q ops by x" << inflation_;
            ctx.diagnostic(os.str());
        }
    }

  private:
    double inflation_;
};

class NoiseAnnotationPass : public Pass
{
  public:
    std::string name() const override { return "noise-annotation"; }

    void run(CompilationContext& ctx) override
    {
        QISET_REQUIRE(!ctx.physical.empty(),
                      "noise annotation requires a mapping");
        ctx.noise = ctx.device().noiseModelFor(ctx.physical);
        // Report the decoherence-relevant wall-clock figures off the
        // shared schedule rather than re-deriving moments privately.
        const Schedule& schedule = ctx.ensureSchedule();
        ctx.reportCounter("schedule_depth", schedule.depth());
        ctx.reportCounter("scheduled_duration_ns",
                          schedule.durationNs());
    }
};

} // namespace

std::unique_ptr<Pass>
makeMappingPass()
{
    return std::make_unique<MappingPass>();
}

std::unique_ptr<Pass>
makeRoutingPass(const std::string& strategy)
{
    return std::make_unique<RoutingPass>(strategy);
}

std::unique_ptr<Pass>
makeSchedulingPass()
{
    return std::make_unique<SchedulingPass>();
}

std::unique_ptr<Pass>
makeConsolidationPass()
{
    return std::make_unique<ConsolidationPass>();
}

std::unique_ptr<Pass>
makeTranslationPass()
{
    return std::make_unique<TranslationPass>();
}

std::unique_ptr<Pass>
makeCrosstalkPass(double inflation)
{
    return std::make_unique<CrosstalkPass>(inflation);
}

std::unique_ptr<Pass>
makeNoiseAnnotationPass()
{
    return std::make_unique<NoiseAnnotationPass>();
}

} // namespace qiset
