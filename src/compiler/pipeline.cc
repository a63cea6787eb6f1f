#include "compiler/pipeline.h"

#include "sim/density_matrix.h"
#include "sim/statevector.h"

namespace qiset {

CompileResult
runCompilePipeline(const Circuit& app, const Device& device,
                   const GateSet& gate_set, ProfileCache& cache,
                   const CompileOptions& options, ThreadPool* pool,
                   const CompileTelemetry* telemetry)
{
    CompilationContext context(app, device, gate_set, options, cache,
                               pool);
    context.telemetry = telemetry;
    defaultPipeline(options).run(context);
    return context.takeResult();
}

CompileResult
compileCircuit(const Circuit& app, const Device& device,
               const GateSet& gate_set, ProfileCache& cache,
               const CompileOptions& options, ThreadPool* pool)
{
    return runCompilePipeline(app, device, gate_set, cache, options, pool);
}

void
forEachCircuit(size_t count, ThreadPool* pool,
               const std::function<void(size_t)>& compile)
{
    if (pool && pool->size() > 1 && count > 1) {
        parallelFor(*pool, count, compile);
        return;
    }
    for (size_t i = 0; i < count; ++i)
        compile(i);
}

std::vector<CompileResult>
compileBatch(const std::vector<Circuit>& apps, const Device& device,
             const GateSet& gate_set, ProfileCache& cache,
             const CompileOptions& options, ThreadPool* pool)
{
    std::vector<CompileResult> results(apps.size());
    forEachCircuit(apps.size(), pool, [&](size_t i) {
        results[i] = runCompilePipeline(apps[i], device, gate_set, cache,
                                        options, pool);
    });
    return results;
}

std::vector<double>
simulateCompiled(const CompileResult& result)
{
    DensityMatrix rho(result.circuit.numQubits());
    rho.runNoisy(result.circuit, result.noise);
    std::vector<double> probs =
        result.noise.applyReadoutError(rho.probabilities());
    return permuteProbabilities(probs, result.final_positions);
}

std::vector<double>
idealProbabilities(const Circuit& app)
{
    StateVector state(app.numQubits());
    state.run(app);
    return state.probabilities();
}

void
reannotateErrorRates(CompileResult& result, const Device& truth)
{
    for (OpRef op : result.circuit.mutableOps()) {
        Qubits qs = op.qubits();
        if (op.isTwoQubit()) {
            int pa = result.physical.at(qs[0]);
            int pb = result.physical.at(qs[1]);
            double fidelity = truth.edgeFidelity(pa, pb, op.label());
            // A type the true hardware no longer supports behaves as
            // a fully broken gate.
            op.setErrorRate(fidelity > 0.0 ? 1.0 - fidelity : 1.0);
        } else {
            op.setErrorRate(
                truth.oneQubitError(result.physical.at(qs[0])));
        }
    }
    result.noise = truth.noiseModelFor(result.physical);
}

double
simulateSuccessRate(const CompileResult& result, const Circuit& app)
{
    StateVector ideal(app.numQubits());
    ideal.run(app);

    // Move the ideal amplitudes into physical register order: logical
    // qubit l sits at position final_positions[l] at measurement time.
    int n = app.numQubits();
    StateVector permuted(n);
    auto& amps = permuted.mutableAmplitudes();
    std::fill(amps.begin(), amps.end(), cplx(0.0, 0.0));
    const auto& map = result.final_positions;
    for (size_t logical = 0; logical < ideal.dim(); ++logical) {
        size_t phys = 0;
        for (int l = 0; l < n; ++l) {
            if (logical & (size_t{1} << (n - 1 - l)))
                phys |= size_t{1} << (n - 1 - map[l]);
        }
        amps[phys] = ideal.amplitudes()[logical];
    }

    DensityMatrix rho(result.circuit.numQubits());
    rho.runNoisy(result.circuit, result.noise);
    return rho.fidelityWithPure(permuted);
}

} // namespace qiset
