/**
 * @file
 * Micro-benchmarks (google-benchmark): NuOp decomposition latency per
 * layer count and gate family, the per-call cost of the template
 * objective and gradient that BFGS runs inside every decomposition,
 * plus simulator gate-application throughput. Mirrors the paper's
 * Section VI compile-time discussion.
 */

#include <benchmark/benchmark.h>

#include "apps/qv.h"
#include "common/rng.h"
#include "nuop/decomposer.h"
#include "nuop/template_circuit.h"
#include "qc/gates.h"
#include "qc/linalg.h"
#include "sim/density_matrix.h"
#include "sim/statevector.h"

using namespace qiset;

namespace {

void
BM_NuOpExactSu4IntoCz(benchmark::State& state)
{
    Rng rng(1);
    Matrix target = randomSu4(rng);
    NuOpOptions options;
    options.max_layers = 4;
    options.multistarts = static_cast<int>(state.range(0));
    NuOpDecomposer nuop(options);
    HardwareGate gate = makeFixedGate("CZ", gates::cz());
    for (auto _ : state) {
        Decomposition d = nuop.decomposeExact(target, gate);
        benchmark::DoNotOptimize(d.decomposition_fidelity);
    }
}
BENCHMARK(BM_NuOpExactSu4IntoCz)->Arg(1)->Arg(2)->Arg(4);

void
BM_NuOpZzIntoCz(benchmark::State& state)
{
    NuOpOptions options;
    options.max_layers = 4;
    NuOpDecomposer nuop(options);
    HardwareGate gate = makeFixedGate("CZ", gates::cz());
    Matrix target = gates::zz(0.4);
    for (auto _ : state) {
        Decomposition d = nuop.decomposeExact(target, gate);
        benchmark::DoNotOptimize(d.layers);
    }
}
BENCHMARK(BM_NuOpZzIntoCz);

void
BM_NuOpFullFsimFamily(benchmark::State& state)
{
    Rng rng(2);
    Matrix target = randomSu4(rng);
    NuOpOptions options;
    options.max_layers = 3;
    options.multistarts = 2;
    NuOpDecomposer nuop(options);
    HardwareGate family;
    family.name = "fSim";
    family.family = TemplateFamily::FullFsim;
    for (auto _ : state) {
        Decomposition d = nuop.decomposeExact(target, family);
        benchmark::DoNotOptimize(d.layers);
    }
}
BENCHMARK(BM_NuOpFullFsimFamily);

/**
 * One template call at a seeded point: range(0) layers of SYC
 * (range(1) == 0) or of the Full fSim family (range(1) == 1), a Haar
 * target and a scratch reused across calls, as in a BFGS run.
 */
struct TemplateCall
{
    TwoQubitTemplate templ;
    Matrix target;
    std::vector<double> x;
    TwoQubitTemplate::BuildScratch scratch;
    std::vector<double> grad;

    explicit TemplateCall(const benchmark::State& state)
        : templ(state.range(1) == 0
                    ? TwoQubitTemplate(static_cast<int>(state.range(0)),
                                       gates::sycamore())
                    : TwoQubitTemplate(static_cast<int>(state.range(0)),
                                       TemplateFamily::FullFsim))
    {
        Rng rng(static_cast<uint64_t>(10 * state.range(0) +
                                      state.range(1)));
        target = haarRandomUnitary(4, rng);
        x.resize(templ.numParams());
        for (double& value : x)
            value = rng.uniform(0.0, 2.0 * gates::kPi);
    }
};

/** The BFGS objective: one template build and its trace fidelity. */
void
BM_TemplateObjective(benchmark::State& state)
{
    TemplateCall call(state);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            call.templ.infidelityWithScratch(call.x, call.target,
                                             call.scratch));
}
BENCHMARK(BM_TemplateObjective)
    ->ArgsProduct({{1, 2, 3, 4, 5}, {0, 1}})
    ->ArgNames({"layers", "fsim"});

/** The gradient with a build of its own, then the backward sweep. */
void
BM_TemplateGradient(benchmark::State& state)
{
    TemplateCall call(state);
    for (auto _ : state) {
        call.templ.infidelityGradient(call.x, call.target, call.grad,
                                      call.scratch);
        benchmark::DoNotOptimize(call.grad.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_TemplateGradient)
    ->ArgsProduct({{1, 2, 3, 4, 5}, {0, 1}})
    ->ArgNames({"layers", "fsim"});

/**
 * The backward sweep alone, over the build the objective left in the
 * scratch: NuOp's BFGS gradient.
 */
void
BM_TemplateGradientSweep(benchmark::State& state)
{
    TemplateCall call(state);
    call.templ.infidelityWithScratch(call.x, call.target, call.scratch);
    for (auto _ : state) {
        call.templ.infidelityGradientFromBuild(call.x, call.target,
                                               call.grad, call.scratch);
        benchmark::DoNotOptimize(call.grad.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_TemplateGradientSweep)
    ->ArgsProduct({{1, 2, 3, 4, 5}, {0, 1}})
    ->ArgNames({"layers", "fsim"});

void
BM_StateVector2qGate(benchmark::State& state)
{
    int n = static_cast<int>(state.range(0));
    StateVector sv(n);
    Matrix gate = gates::fsim(0.3, 0.9);
    for (auto _ : state)
        sv.apply2q(gate, 0, n / 2);
    state.SetItemsProcessed(state.iterations() * (1 << n));
}
BENCHMARK(BM_StateVector2qGate)->Arg(10)->Arg(16)->Arg(20);

void
BM_DensityMatrixNoisy2qGate(benchmark::State& state)
{
    int n = static_cast<int>(state.range(0));
    DensityMatrix rho(n);
    Matrix gate = gates::fsim(0.3, 0.9);
    for (auto _ : state) {
        rho.applyUnitary(gate, {0, 1});
        rho.applyDepolarizing(0.006, {0, 1});
    }
    state.SetItemsProcessed(state.iterations() * (1 << (2 * n)));
}
BENCHMARK(BM_DensityMatrixNoisy2qGate)->Arg(6)->Arg(8)->Arg(10);

} // namespace

BENCHMARK_MAIN();
