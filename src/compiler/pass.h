#ifndef QISET_COMPILER_PASS_H
#define QISET_COMPILER_PASS_H

/**
 * @file
 * The compiler core: compilation options/results, the shared
 * CompilationContext every pass reads and mutates, and the Pass
 * interface.
 *
 * The Fig. 1 pipeline stages (mapping -> SWAP routing -> consolidation
 * -> NuOp translation -> crosstalk check -> noise annotation) are
 * expressed as Pass implementations (see passes.h) registered into a
 * PassManager (pass_manager.h). The context carries the working
 * circuit, device/gate-set inputs, layout and routing state, per-pass
 * timing metrics, diagnostics, and the shared decomposition profile
 * cache, so passes compose without hard-coded stage wiring.
 */

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/schedule.h"
#include "common/arena.h"
#include "common/thread_pool.h"
#include "compiler/profile_cache.h"
#include "compiler/routing_strategy.h"
#include "device/device.h"
#include "isa/gate_set.h"
#include "metrics/event_stream.h"
#include "metrics/metrics.h"
#include "nuop/decomposer.h"
#include "sim/noise_model.h"

namespace qiset {

/** Compilation settings. */
struct CompileOptions
{
    /** Approximate (Eq. 2) vs exact decomposition selection. */
    bool approximate = true;
    /** Fuse same-pair runs into SU(4) blocks before NuOp. */
    bool consolidate = true;
    /**
     * Error-rate multiplier for simultaneously-scheduled adjacent 2Q
     * gates; values > 1 register the crosstalk pass in the default
     * pipeline (1.0 disables it, matching the paper's baseline).
     */
    double crosstalk_inflation = 1.0;
    /**
     * Routing strategy name, built by makeRoutingStrategy
     * (routing_strategy.h): "greedy" (nearest-neighbor SWAP chains,
     * the paper's baseline), "sabre" (bidirectional lookahead; fewer
     * SWAPs on long-range workloads) or "telesabre" (chiplet-aware
     * SABRE, forced on multi-core couplings). Any other name raises
     * FatalError on every device.
     */
    std::string routing = "greedy";
    /**
     * Decomposition engine name, built by makeDecompositionStrategy
     * (nuop/decomposition_strategy.h):
     * "nuop" (BFGS multistarts, the paper's engine — bit-identical to
     * the historical path) or "auto" (analytic Cartan synthesis when
     * it reaches the exact threshold, NuOp fallback otherwise —
     * bypasses the BFGS hot path on every analytically reachable
     * target).
     */
    std::string decomposition = "nuop";
    /**
     * SABRE tuning of the "sabre" and "telesabre" routers: lookahead
     * window, decay, refinement rounds. Per-compile — and therefore
     * per-shard in a sharded batch — so each target can tune its
     * router.
     */
    SabreOptions sabre;
    /**
     * Chiplet-router tuning used when `routing == "telesabre"` (and
     * whenever a multi-core coupling forces the teleport router; see
     * the routing pass). use_teleport = false selects the SWAP-only
     * link baseline the benches compare against.
     */
    TeleportOptions teleport;
    /** NuOp settings shared by all decompositions. */
    NuOpOptions nuop;
    /**
     * Cap on the threads (including the calling one) a single compile
     * may use for intra-circuit work — today, fanning a circuit's
     * independent two-qubit decompositions across the worker pool.
     * 0 means "no cap" (use every pool worker), 1 forces the serial
     * path. Parallel and serial results are bit-identical; the cap
     * only trades latency of one job against throughput of many.
     */
    size_t intra_circuit_parallelism = 0;
};

/**
 * Telemetry identity of one compile: where PassBegin/PassComplete
 * packets published while it runs should be attributed. The service
 * stacks one per dispatched circuit; a null stream (or a null
 * CompilationContext::telemetry, the default everywhere outside the
 * service) disables pass events entirely — the compile hot path pays
 * one branch.
 */
struct CompileTelemetry
{
    /** Destination stream; null disables publishing. */
    EventStream* stream = nullptr;
    /** Service-wide job id (CompileJob::id). */
    uint64_t job = 0;
    /** Circuit index within the job. */
    int32_t circuit = -1;
    /** Fleet shard the compile runs on. */
    int32_t shard = -1;
};

/** Fully compiled circuit with everything needed to simulate it. */
struct CompileResult
{
    /** Native circuit over register positions 0..n-1. */
    Circuit circuit;
    /** physical[i] = device qubit hosting register position i. */
    std::vector<int> physical;
    /**
     * initial_positions[l] = register position of logical qubit l at
     * circuit start. Identity for the greedy router; lookahead
     * routers may permute the start layout (harmless for the all-|0>
     * register input every simulator here uses, and the final
     * permutation below is tracked regardless).
     */
    std::vector<int> initial_positions;
    /** final_positions[l] = register position of logical qubit l. */
    std::vector<int> final_positions;
    /** Noise parameters of the compressed register. */
    NoiseModel noise;
    /** Native two-qubit instruction count. */
    int two_qubit_count = 0;
    /** SWAPs inserted by routing (before decomposition). */
    int swaps_inserted = 0;
    /** Inter-core teleport ops inserted by chiplet routing. */
    int teleports_inserted = 0;
    /** Expected EPR generation attempts of inter-core traffic. */
    double epr_attempts = 0.0;
    /** Ops whose error rate the crosstalk pass inflated. */
    int crosstalk_inflated = 0;
    /** Native 2Q usage per gate type. */
    std::map<std::string, int> type_usage;
    /** Compiler's overall fidelity estimate (product model). */
    double estimated_fidelity = 1.0;
    /** Wall-clock and counters of every pass that ran, in order. */
    std::vector<PassMetric> pass_metrics;
    /** Human-readable notes passes emitted while compiling. */
    std::vector<std::string> diagnostics;

    CompileResult() : circuit(1) {}
    /** A result whose circuit starts as a copy of `app`. */
    explicit CompileResult(const Circuit& app) : circuit(app) {}
};

/**
 * Shared state of one compilation, owned for the duration of a
 * PassManager run. The context *is* the result it builds: passes read
 * and write the inherited CompileResult fields (starting with
 * `circuit`, a copy of the application circuit) directly, and
 * takeResult() moves that one object out. The application circuit,
 * device and cache are held by reference and must outlive the
 * context; the gate set and options are small and copied, so
 * temporaries are safe to pass.
 */
class CompilationContext : public CompileResult
{
  public:
    CompilationContext(const Circuit& app, const Device& device,
                       GateSet gate_set, CompileOptions options,
                       ProfileCache& cache, ThreadPool* pool = nullptr)
        : CompileResult(app), app_(app), device_(device),
          gate_set_(std::move(gate_set)),
          options_(std::move(options)), cache_(cache), pool_(pool)
    {
    }

    CompilationContext(const CompilationContext&) = delete;
    CompilationContext& operator=(const CompilationContext&) = delete;

    // ----- immutable inputs -------------------------------------------
    const Circuit& app() const { return app_; }
    const Device& device() const { return device_; }
    const GateSet& gateSet() const { return gate_set_; }
    const CompileOptions& options() const { return options_; }
    ProfileCache& profileCache() { return cache_; }
    /** Worker pool for intra-pass parallelism; may be null. */
    ThreadPool* threadPool() { return pool_; }

    /**
     * Per-compile bump arena for pass-local scratch (frontier sets,
     * distance rows, moment tables). Lifetime rules: allocations live
     * until the pass that made them returns — each pass that uses the
     * arena resets it on exit (ArenaResetGuard), so no pass may hold
     * arena pointers across its own run() exit, and blocks chained by
     * one pass are reused warm by the next. Single-threaded: only the
     * pass running on the context's thread may allocate; work fanned
     * onto the pool must not touch it.
     */
    MemArena& arena() { return arena_; }

    // ----- mutable pipeline state beyond the inherited result ---------
    /**
     * Shared moment schedule of `circuit`. The scheduling pass builds
     * it; passes that rewrite the circuit invalidate() it; consumers
     * go through ensureSchedule() so they never read a stale one.
     */
    Schedule schedule;
    /**
     * Telemetry identity of this compile (may be null, the default):
     * when set, the PassManager publishes PassBegin/PassComplete
     * packets onto its stream as passes run. The pointee must outlive
     * the pipeline run; the service keeps one on the worker's stack.
     */
    const CompileTelemetry* telemetry = nullptr;

    /** Record a note for the compile report. */
    void diagnostic(std::string message)
    {
        diagnostics.push_back(std::move(message));
    }

    /**
     * The schedule of the current working circuit, rebuilding it when
     * it is missing or stale: the circuit's structure stamp moved
     * since the last build (two compares, no rehash).
     */
    const Schedule& ensureSchedule()
    {
        // The build's per-qubit scratch bumps from the compile arena;
        // the Schedule itself stores only heap state, so the rebuild
        // leaves nothing arena-held behind.
        if (!schedule.consistentWith(circuit))
            schedule.build(circuit, &arena_);
        return schedule;
    }

    /**
     * Report a counter on the currently running pass (no-op when
     * called outside a PassManager run).
     */
    void reportCounter(const std::string& name, double value)
    {
        if (current_index_ < pass_metrics.size())
            pass_metrics[current_index_].counters[name] = value;
    }

    /** Move the built CompileResult out of the context. */
    CompileResult takeResult()
    {
        return std::move(static_cast<CompileResult&>(*this));
    }

  private:
    friend class PassManager;

    const Circuit& app_;
    const Device& device_;
    GateSet gate_set_;
    CompileOptions options_;
    ProfileCache& cache_;
    ThreadPool* pool_ = nullptr;
    MemArena arena_;
    /**
     * Index into pass_metrics of the pass currently running, or
     * SIZE_MAX outside a run (index, not pointer: a nested manager run
     * may grow the vector and reallocate).
     */
    size_t current_index_ = static_cast<size_t>(-1);
};

/** One unit of compilation work, composable through the PassManager. */
class Pass
{
  public:
    virtual ~Pass() = default;

    /** Stable identifier used for ordering, lookup and reporting. */
    virtual std::string name() const = 0;

    /** Transform the context (may throw QisetError on misuse). */
    virtual void run(CompilationContext& context) = 0;
};

} // namespace qiset

#endif // QISET_COMPILER_PASS_H
