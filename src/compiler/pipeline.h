#ifndef QISET_COMPILER_PIPELINE_H
#define QISET_COMPILER_PIPELINE_H

/**
 * @file
 * End-to-end compilation entry points (Fig. 1 of the paper): qubit
 * mapping -> SWAP routing -> NuOp translation -> noise annotation,
 * plus the noisy-simulation helpers the benches use.
 *
 * The pipeline itself is a PassManager over the passes in passes.h;
 * runCompilePipeline() runs the default pipeline on one circuit, and
 * every entry point here — compileCircuit(), compileBatch(), and
 * compileBatchSharded() in shard.h — calls it directly. compileBatch()
 * fans a workload of circuits over a ThreadPool with one shared
 * decomposition profile cache.
 */

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "common/thread_pool.h"
#include "compiler/pass.h"
#include "compiler/pass_manager.h"
#include "compiler/passes.h"
#include "compiler/translate.h"
#include "device/device.h"
#include "isa/gate_set.h"
#include "nuop/decomposer.h"
#include "sim/noise_model.h"

namespace qiset {

/**
 * Pass-pipeline primitive: run the default pipeline built from
 * `options` on one circuit, on the calling thread (`pool`, when
 * given, parallelizes the circuit's translation). Every compile entry
 * point and every CompileService worker executes exactly this.
 *
 * `telemetry` (optional) attributes PassBegin/PassComplete packets to
 * a service job on an EventStream (see metrics/event_stream.h); null
 * — the default everywhere outside the service — publishes nothing
 * and costs one branch per pass. Telemetry never affects compile
 * results.
 */
CompileResult runCompilePipeline(const Circuit& app, const Device& device,
                                 const GateSet& gate_set,
                                 ProfileCache& cache,
                                 const CompileOptions& options,
                                 ThreadPool* pool = nullptr,
                                 const CompileTelemetry* telemetry =
                                     nullptr);

/**
 * Compile an application circuit for a device and instruction set by
 * running the default pass pipeline built from `options` (the same as
 * runCompilePipeline). The ProfileCache may be shared across calls
 * (and instruction sets) to amortize NuOp optimizations. Raises
 * FatalError on invalid input, e.g. a circuit wider than the device.
 */
CompileResult compileCircuit(const Circuit& app, const Device& device,
                             const GateSet& gate_set, ProfileCache& cache,
                             const CompileOptions& options,
                             ThreadPool* pool = nullptr);

/**
 * Compile many circuits against one device/instruction set, sharing
 * one thread-safe profile cache so every distinct (unitary, gate type)
 * profile is optimized at most once across the whole batch.
 *
 * Circuits are dispatched by forEachCircuit(): with a pool of more
 * than one worker they compile concurrently, and each additionally
 * fans its decompositions across otherwise-idle workers (capped by
 * options.intra_circuit_parallelism). Results are positionally aligned
 * with `apps` and, thanks to deterministic multistart seeding,
 * bit-identical to serial compileCircuit() calls. The first compile
 * error is rethrown; circuits not yet started are skipped.
 */
std::vector<CompileResult>
compileBatch(const std::vector<Circuit>& apps, const Device& device,
             const GateSet& gate_set, ProfileCache& cache,
             const CompileOptions& options, ThreadPool* pool = nullptr);

/**
 * The batch dispatch rule of compileBatch and compileBatchSharded:
 * run compile(i) for every i in [0, count). When `pool` has more than
 * one worker and the batch more than one circuit, the calls fan out
 * through the cooperative parallelFor (which skips unclaimed indices
 * after a throw and rethrows the first error); otherwise they run in
 * order on the calling thread, stopping at the first throw. Either
 * way `compile` should pass `pool` on to its circuit's translation.
 */
void forEachCircuit(size_t count, ThreadPool* pool,
                    const std::function<void(size_t)>& compile);

/**
 * Exact noisy output distribution of a compiled circuit (density
 * matrix + readout error), reordered to logical qubit order.
 * Register width must be <= 13.
 */
std::vector<double> simulateCompiled(const CompileResult& result);

/** Ideal (noiseless) output distribution of a logical circuit. */
std::vector<double> idealProbabilities(const Circuit& app);

/**
 * State-fidelity success rate <psi_ideal| rho_noisy |psi_ideal> of a
 * compiled circuit against the ideal output state of the logical
 * circuit, tracking the router's final qubit permutation (the paper's
 * QFT metric). Density-matrix path; register width <= 13.
 */
double simulateSuccessRate(const CompileResult& result,
                           const Circuit& app);

/**
 * Re-stamp a compiled circuit's error rates and noise model from
 * another device's calibration — the "true" hardware in stale-
 * calibration (drift) studies, where the compiler saw outdated data.
 * Native 2Q ops are matched by their gate-type label on the physical
 * edge they run on.
 */
void reannotateErrorRates(CompileResult& result, const Device& truth);

} // namespace qiset

#endif // QISET_COMPILER_PIPELINE_H
