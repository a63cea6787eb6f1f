#ifndef QISET_BENCH_BENCH_COMMON_H
#define QISET_BENCH_BENCH_COMMON_H

/**
 * @file
 * Shared helpers for the figure/table benches: scale flags and the
 * compile-simulate-score loop used by the Fig. 9/10 reproductions.
 */

#include <algorithm>
#include <chrono>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "compiler/pipeline.h"
#include "metrics/metrics.h"
#include "sim/density_matrix.h"
#include "sim/statevector.h"

namespace qiset {
namespace bench {

/** Bench scale selected on the command line. */
struct Scale
{
    /** True when --full was passed: paper-scale sampling. */
    bool full = false;

    /** Random-circuit count per benchmark. */
    int circuits(int quick_count, int full_count) const
    {
        return full ? full_count : quick_count;
    }
};

inline Scale
parseArgs(int argc, char** argv)
{
    Scale scale;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--full")
            scale.full = true;
        else if (arg == "--help" || arg == "-h") {
            std::cout << "usage: " << argv[0] << " [--full]\n"
                      << "  --full  paper-scale sample counts (slow)\n";
            std::exit(0);
        }
    }
    if (!scale.full) {
        std::cout << "(quick mode: reduced sample counts; pass --full "
                     "for paper-scale runs)\n\n";
    }
    return scale;
}

/** Compile options tuned for the serial bench environment. */
inline CompileOptions
benchCompileOptions()
{
    CompileOptions options;
    options.approximate = true;
    options.nuop.max_layers = 5;
    options.nuop.multistarts = 3;
    options.nuop.exact_threshold = 1.0 - 1e-6;
    options.nuop.bfgs.max_iterations = 150;
    return options;
}

/** Average metric and instruction count of a gate set on a workload. */
struct GateSetScore
{
    double metric = 0.0;
    double avg_two_qubit = 0.0;
};

/**
 * Compile every circuit for the gate set, simulate exactly (density
 * matrix + readout) and average metric(ideal, noisy). Compilation is
 * one compileBatch call, so a pool parallelizes across circuits while
 * the shared cache still deduplicates NuOp work.
 */
inline GateSetScore
scoreGateSet(const Device& device, const GateSet& gate_set,
             const std::vector<Circuit>& circuits, ProfileCache& cache,
             const CompileOptions& options,
             const std::function<double(const std::vector<double>&,
                                        const std::vector<double>&)>&
                 metric,
             ThreadPool* pool = nullptr)
{
    GateSetScore score;
    std::vector<CompileResult> results =
        compileBatch(circuits, device, gate_set, cache, options, pool);
    for (size_t i = 0; i < circuits.size(); ++i) {
        auto ideal = idealProbabilities(circuits[i]);
        auto noisy = simulateCompiled(results[i]);
        score.metric += metric(ideal, noisy);
        score.avg_two_qubit += results[i].two_qubit_count;
    }
    score.metric /= circuits.size();
    score.avg_two_qubit /= circuits.size();
    return score;
}

/** State-fidelity success rate (the QFT metric); see the library's
 *  simulateSuccessRate. */
inline double
successRate(const CompileResult& result, const Circuit& app)
{
    return simulateSuccessRate(result, app);
}

/**
 * Fastest rep of `num` over fastest rep of `den`, for two legs whose
 * reps alternate. A host stall only ever adds time, so each side's
 * fastest rep is its least disturbed one, and a slow host stretch
 * covers reps of both sides instead of one whole leg.
 */
inline double
bestRatio(const std::vector<double>& num, const std::vector<double>& den)
{
    if (num.empty() || den.empty())
        return 0.0;
    double best_den = *std::min_element(den.begin(), den.end());
    return best_den > 0.0
               ? *std::min_element(num.begin(), num.end()) / best_den
               : 0.0;
}

/**
 * Whether two alternating ratio legs run another rep: each runs at
 * least 3, and the reps go on until 4 s have passed since `start`.
 * An idle host's vCPUs can take over a second to join a parallel
 * burst (on a 4-vCPU VM idle for 6 s, four threads ran at about 1x for
 * 1.6 s), and a parallel rep inside that window reads about 1x.
 */
inline bool
anotherRatioRep(int reps_done, std::chrono::steady_clock::time_point start)
{
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return reps_done < 3 || elapsed.count() < 4.0;
}

/**
 * Field-by-field bit-identity of two compile results — the
 * determinism self-check the sharding/service benches gate CI on.
 * One shared definition so a new CompileResult field only needs the
 * comparison added here.
 */
inline bool
resultsBitIdentical(const CompileResult& a, const CompileResult& b)
{
    if (a.physical != b.physical ||
        a.initial_positions != b.initial_positions ||
        a.final_positions != b.final_positions ||
        a.swaps_inserted != b.swaps_inserted ||
        a.two_qubit_count != b.two_qubit_count ||
        a.type_usage != b.type_usage ||
        a.estimated_fidelity != b.estimated_fidelity ||
        a.circuit.size() != b.circuit.size())
        return false;
    for (size_t i = 0; i < a.circuit.size(); ++i) {
        ConstOpRef x = a.circuit.ops()[i];
        ConstOpRef y = b.circuit.ops()[i];
        // Interned ids compare label text exactly (one global table).
        if (x.qubits() != y.qubits() || x.labelId() != y.labelId() ||
            x.errorRate() != y.errorRate() ||
            x.unitary().maxAbsDiff(y.unitary()) != 0.0)
            return false;
    }
    return true;
}

} // namespace bench
} // namespace qiset

#endif // QISET_BENCH_BENCH_COMMON_H
