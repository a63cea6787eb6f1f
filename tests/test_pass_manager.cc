// Pass-manager core tests: registration, ordering, context metrics
// and equivalence of the compileCircuit wrapper with a manual run.

#include <gtest/gtest.h>

#include "apps/qaoa.h"
#include "common/error.h"
#include "compiler/pipeline.h"

namespace qiset {
namespace {

CompileOptions
fastCompile()
{
    CompileOptions opts;
    opts.nuop.max_layers = 4;
    opts.nuop.multistarts = 3;
    opts.nuop.exact_threshold = 1.0 - 1e-6;
    return opts;
}

Device
lineDevice(int n)
{
    Device d("line", Topology::line(n));
    for (auto [a, b] : d.topology().edges()) {
        d.setEdgeFidelity(a, b, "S3", 0.995);
        d.setEdgeFidelity(a, b, "S4", 0.99);
    }
    for (int q = 0; q < n; ++q)
        d.setOneQubitError(q, 0.0005);
    return d;
}

/** Test pass recording its execution into a shared log. */
class RecordingPass : public Pass
{
  public:
    RecordingPass(std::string name, std::vector<std::string>* log)
        : name_(std::move(name)), log_(log)
    {
    }

    std::string name() const override { return name_; }

    void run(CompilationContext& ctx) override
    {
        log_->push_back(name_);
        ctx.reportCounter("ran", 1.0);
    }

  private:
    std::string name_;
    std::vector<std::string>* log_;
};

TEST(PassManager, DefaultPipelineOrder)
{
    CompileOptions opts;
    PassManager manager = defaultPipeline(opts);
    std::vector<std::string> expected = {"mapping", "routing",
                                         "consolidation", "translation",
                                         "scheduling",
                                         "noise-annotation"};
    EXPECT_EQ(manager.passNames(), expected);
}

TEST(PassManager, DefaultPipelineRespectsOptions)
{
    CompileOptions opts;
    opts.consolidate = false;
    opts.crosstalk_inflation = 2.0;
    PassManager manager = defaultPipeline(opts);
    std::vector<std::string> expected = {"mapping", "routing",
                                         "translation", "scheduling",
                                         "crosstalk",
                                         "noise-annotation"};
    EXPECT_EQ(manager.passNames(), expected);
}

TEST(PassManager, RegistrationAndOrdering)
{
    std::vector<std::string> log;
    PassManager manager;
    manager.append(std::make_unique<RecordingPass>("b", &log));
    manager.append(std::make_unique<RecordingPass>("c", &log));
    manager.append(std::make_unique<RecordingPass>("d", &log));
    EXPECT_EQ(manager.size(), 3u);
    std::vector<std::string> expected = {"b", "c", "d"};
    EXPECT_EQ(manager.passNames(), expected);

    Device d = lineDevice(2);
    Circuit app(2);
    ProfileCache cache;
    CompileOptions opts;
    CompilationContext ctx(app, d, isa::rigettiSet(1), opts, cache);
    manager.run(ctx);
    EXPECT_EQ(log, expected);

    // One timed metric record per executed pass, in order, with the
    // counter each pass reported.
    ASSERT_EQ(ctx.pass_metrics.size(), 3u);
    for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(ctx.pass_metrics[i].pass, expected[i]);
        EXPECT_GE(ctx.pass_metrics[i].wall_ms, 0.0);
        EXPECT_EQ(ctx.pass_metrics[i].counters.at("ran"), 1.0);
    }
}

TEST(PassManager, CompileResultCarriesPassMetrics)
{
    Device d = lineDevice(3);
    Rng rng(42);
    Circuit app = makeRandomQaoaCircuit(3, rng);
    ProfileCache cache;
    CompileResult result =
        compileCircuit(app, d, isa::rigettiSet(1), cache, fastCompile());

    ASSERT_EQ(result.pass_metrics.size(), 6u);
    EXPECT_EQ(result.pass_metrics.front().pass, "mapping");
    EXPECT_EQ(result.pass_metrics.back().pass, "noise-annotation");
    EXPECT_EQ(result.pass_metrics[0].counters.at("physical_qubits"), 3.0);

    const PassMetric* translation = nullptr;
    for (const auto& metric : result.pass_metrics)
        if (metric.pass == "translation")
            translation = &metric;
    ASSERT_NE(translation, nullptr);
    EXPECT_EQ(translation->counters.at("two_qubit_count"),
              static_cast<double>(result.two_qubit_count));
    // A cold cache means every profile was computed here.
    EXPECT_GT(translation->counters.at("cache_misses"), 0.0);
    EXPECT_GT(totalWallMs(result.pass_metrics), 0.0);
}

TEST(PassManager, WrapperMatchesManualPipeline)
{
    Device d = lineDevice(3);
    Rng rng(43);
    Circuit app = makeRandomQaoaCircuit(3, rng);
    CompileOptions opts = fastCompile();

    ProfileCache cache_a;
    CompileResult via_wrapper =
        compileCircuit(app, d, isa::rigettiSet(1), cache_a, opts);

    ProfileCache cache_b;
    CompilationContext ctx(app, d, isa::rigettiSet(1), opts, cache_b);
    defaultPipeline(opts).run(ctx);
    CompileResult manual = ctx.takeResult();

    EXPECT_EQ(via_wrapper.physical, manual.physical);
    EXPECT_EQ(via_wrapper.final_positions, manual.final_positions);
    EXPECT_EQ(via_wrapper.two_qubit_count, manual.two_qubit_count);
    EXPECT_EQ(via_wrapper.type_usage, manual.type_usage);
    EXPECT_DOUBLE_EQ(via_wrapper.estimated_fidelity,
                     manual.estimated_fidelity);
    ASSERT_EQ(via_wrapper.circuit.size(), manual.circuit.size());
    for (size_t i = 0; i < via_wrapper.circuit.size(); ++i) {
        ConstOpRef a = via_wrapper.circuit.ops()[i];
        ConstOpRef b = manual.circuit.ops()[i];
        EXPECT_EQ(a.qubits(), b.qubits());
        EXPECT_EQ(a.labelId(), b.labelId());
        EXPECT_EQ(a.unitary().maxAbsDiff(b.unitary()), 0.0);
    }
}

TEST(PassManager, RoutingWithoutMappingThrows)
{
    PassManager manager;
    manager.append(makeRoutingPass());
    Device d = lineDevice(2);
    Circuit app(2);
    app.add2q(0, 1, Matrix::identity(4), "block");
    ProfileCache cache;
    CompileOptions opts;
    CompilationContext ctx(app, d, isa::rigettiSet(1), opts, cache);
    EXPECT_THROW(manager.run(ctx), FatalError);
}

TEST(PassManager, CrosstalkPassRunsWhenEnabled)
{
    Device d = lineDevice(4);
    Rng rng(44);
    // Two disjoint ZZ pairs scheduled in the same moment on adjacent
    // couplers of a line: the crosstalk model must inflate them.
    Circuit app = makeQaoaCircuit(4, {{0, 1}, {2, 3}}, rng);
    CompileOptions opts = fastCompile();
    opts.crosstalk_inflation = 3.0;
    ProfileCache cache;
    CompileResult result =
        compileCircuit(app, d, isa::rigettiSet(1), cache, opts);

    bool saw_crosstalk = false;
    for (const auto& metric : result.pass_metrics)
        if (metric.pass == "crosstalk")
            saw_crosstalk = true;
    EXPECT_TRUE(saw_crosstalk);
    EXPECT_GE(result.crosstalk_inflated, 0);

    // Baseline options never register the pass.
    ProfileCache cache2;
    CompileResult baseline =
        compileCircuit(app, d, isa::rigettiSet(1), cache2, fastCompile());
    for (const auto& metric : baseline.pass_metrics)
        EXPECT_NE(metric.pass, "crosstalk");
}

} // namespace
} // namespace qiset
