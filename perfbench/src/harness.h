#ifndef QISET_PERFBENCH_HARNESS_H
#define QISET_PERFBENCH_HARNESS_H

/**
 * @file
 * Shared machinery of the end-to-end benchmark: compile jobs, the
 * output checker, end-to-end accumulators, the span recorder with its
 * allocation counters, and the pass-by-pass traced replay.
 *
 * Every layer is driven from outside through its public entry points
 * (compileCircuit, CompileService::submit, the passes.h factories,
 * precomputeProfiles, ProfileCache::get, runCompilePipeline); spans
 * are recorded here, around those calls, never inside the library.
 */

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "compiler/pipeline.h"

namespace perfbench {

using namespace qiset;

/** Command-line arguments of one benchmark run. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its spans (empty: not written). */
    std::string spans_path;
};

/** Milliseconds on the steady clock. */
double nowMs();

/** Nearest-rank quantile q in [0, 1] of the samples (0 when empty). */
double quantile(std::vector<double> samples, double q);

/** Median of the samples (0 when empty). */
double median(std::vector<double> samples);

/**
 * The NuOp settings of the paper-figure benches (approximate Eq. 2
 * selection, 5 layers, 3 multistarts, 150 BFGS iterations), copied so
 * the benchmark does not depend on bench/ helpers.
 */
CompileOptions figureBenchOptions();

/** One compile of a workload: inputs are owned by the workload. */
struct CompileJobSpec
{
    std::string name;
    const Circuit* app = nullptr;
    const Device* device = nullptr;
    const GateSet* gate_set = nullptr;
    CompileOptions options;
};

/** 64-bit FNV-1a digest of a compiled result's outputs. */
uint64_t resultDigest(const CompileResult& result);

/** Field-by-field bit identity of two results (timings excluded). */
bool bitIdentical(const CompileResult& a, const CompileResult& b);

/**
 * Output checks of one compile. Structural checks run on every
 * output: 2Q ops sit on calibrated couplings (or teleport links),
 * 2Q labels belong to the instruction set, the register map is a
 * bijection and 0 < estimated_fidelity <= 1. The semantic check runs
 * once per distinct output of at most kSemanticMaxQubits qubits: the
 * compiled circuit's noiseless state must match the logical circuit's
 * ideal state under final_positions within the bound derived in the
 * README, 1 - sqrt(F) <= 4 N ln(1/Fd) + 1e-9, where Fd is the
 * decomposition fidelity the compiler claims and N bounds the number
 * of translated 2Q blocks.
 */
class OutputChecker
{
  public:
    static constexpr int kSemanticMaxQubits = 14;

    /** Empty when every check passes, else the first failure. */
    std::string check(const CompileJobSpec& job,
                      const CompileResult& result);

    uint64_t checked() const { return checked_; }
    uint64_t failed() const { return failed_; }
    uint64_t simulated() const { return simulated_.size(); }
    /** Largest (1 - F) / (1 - Fd) among simulated outputs. */
    double worstRatio() const { return worst_ratio_; }
    /** Failure messages (at most a few are kept). */
    const std::vector<std::string>& failures() const { return failures_; }

  private:
    std::string structural(const CompileJobSpec& job,
                           const CompileResult& result) const;
    std::string semantic(const CompileJobSpec& job,
                         const CompileResult& result);

    uint64_t checked_ = 0;
    uint64_t failed_ = 0;
    double worst_ratio_ = 0.0;
    std::unordered_set<uint64_t> simulated_;
    std::vector<std::string> failures_;
};

/** The exact per-output figures averaged into end-to-end metrics. */
struct OutputFigures
{
    double native_2q = 0.0;
    double neg_log10_fidelity = 0.0;
    double duration_us = 0.0;
};

OutputFigures outputFigures(const CompileResult& result);

/** End-to-end accumulator of one timed phase. */
struct EndToEnd
{
    std::vector<double> latencies_ms;
    /** Numerator of throughput_per_s: operations completed. */
    uint64_t completed = 0;
    /** Denominator of throughput_per_s. */
    double timed_s = 0.0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    double native_2q_sum = 0.0;
    double neg_log10_fidelity_sum = 0.0;
    double duration_us_sum = 0.0;
    uint64_t outputs = 0;
    /** Peak resident set of the timed phase, in MB. */
    double peak_rss_mb = 0.0;

    void addOutput(const OutputFigures& figures);
};

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};


/**
 * Peak resident set of the process while an instance lives, sampled
 * from /proc/self/statm every 2 ms by a background thread. Workloads
 * wrap their timed phase in one, so the transient memory of set-up's
 * cold compiles (which varied by seed) does not count.
 */
class RssSampler
{
  public:
    RssSampler();
    ~RssSampler();
    RssSampler(const RssSampler&) = delete;
    RssSampler& operator=(const RssSampler&) = delete;

    /** Largest resident set seen so far, in MB. */
    double peakMb() const;

  private:
    void sample();

    std::atomic<bool> stop_{false};
    std::atomic<long> peak_pages_{0};
    std::thread thread_;
};

// ------------------------------------------------------------ tracing

/** Turn the replaceable operator new's counters on or off. */
void setAllocCounting(bool on);

/** One recorded call: name, interval, parent span and compile id. */
struct Span
{
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;
    int compile = -1;
    uint64_t allocs = 0;
    uint64_t alloc_bytes = 0;
    /** Wall time of child spans, filled by Tracer::end. */
    double child_ms = 0.0;

    double selfMs() const { return end_ms - start_ms - child_ms; }
};

/** In-memory span recorder; written out once at exit. */
class Tracer
{
  public:
    /** Open a span under the innermost open one; returns its index. */
    int begin(const std::string& name, int compile);
    /** Close the span opened by the matching begin(). */
    void end(int index);

    const std::vector<Span>& spans() const { return spans_; }

    /** Write every span as a Chrome trace-event JSON file. */
    bool write(const std::string& path) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** Per-compile layer counters gathered by the traced replay. */
struct ReplayCounters
{
    uint64_t misses = 0;
    uint64_t hits = 0;
    /** Timed warm ProfileCache::get calls of the probe. */
    uint64_t probe_lookups = 0;
    double probe_ms = 0.0;
};

/**
 * Compile `job` pass by pass: one-pass PassManagers built from the
 * passes.h factories in defaultPipeline(options).passNames() order
 * over one CompilationContext, with precomputeProfiles called (and
 * timed) just before translation and a warm-lookup probe between the
 * two. Every call is recorded as a span of compile `compile_id`.
 */
CompileResult tracedCompile(const CompileJobSpec& job, ProfileCache& cache,
                            Tracer& tracer, int compile_id,
                            ReplayCounters& counters);

/**
 * Per-layer aggregation of a traced run: span self times per compile,
 * allocation counts, cache and routing counters.
 */
class LayerReport
{
  public:
    /** Fold in one traced compile and its (identical) result. */
    void addCompile(const Tracer& tracer, int compile_id,
                    const ReplayCounters& counters,
                    const CompileResult& result);

    /** Record compileCircuit - runCompilePipeline on a warm input. */
    void addWrapperMs(double ms) { wrapper_ms_.push_back(ms); }

    /** Metrics per compile (translation.*, routing.*, alloc.*, ...). */
    std::vector<Metric> metrics() const;

    /** Time per profile solved, in ms (0 without misses). */
    double solveMs() const;

    uint64_t misses() const { return misses_; }
    /** Genuine-reuse hits over lookups of the translations (0 if none). */
    double hitRatio() const
    {
        return hits_ + misses_ > 0
                   ? static_cast<double>(hits_) /
                         static_cast<double>(hits_ + misses_)
                   : 0.0;
    }
    /** Summed traced wall time of the pipeline spans. */
    double tracedMs() const { return traced_ms_; }

  private:
    /** Mean self time of a span name per compile, in ms. */
    double selfMs(const std::string& name) const;
    /** Mean time of one warm ProfileCache::get of the probe, in ms. */
    double getMs() const;

    int compiles_ = 0;
    double traced_ms_ = 0.0;
    std::map<std::string, double> self_ms_;
    std::map<std::string, double> allocs_;
    std::map<std::string, double> alloc_bytes_;
    uint64_t misses_ = 0;
    uint64_t hits_ = 0;
    uint64_t probe_lookups_ = 0;
    double probe_ms_ = 0.0;
    double swaps_ = 0.0;
    double teleports_ = 0.0;
    double blocks_ = 0.0;
    double dressing_fallbacks_ = 0.0;
    std::vector<double> wrapper_ms_;
};

// ------------------------------------------------------- host noise

/**
 * Host-noise sentinel: steal time from /proc/stat and the wall time of
 * a fixed reference loop, sampled at the start and end of a run. It is
 * printed beside the metrics and never used to adjust them.
 */
struct HostSentinel
{
    double steal_start_s = -1.0;
    double ref_start_ms = 0.0;
    double steal_s = -1.0;
    double ref_end_ms = 0.0;

    void start();
    void stop();
};

/** Everything a workload reports back to main(). */
struct RunReport
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Side figures printed on their own line (never in metrics). */
    std::vector<Metric> side;
    std::vector<std::string> failures;
};

/**
 * Fill the end-to-end metrics (setup_s, throughput_per_s, latency
 * p50/p95, the three exact output means, peak_rss_mb and ok_share) and
 * the operation counts into the report, with the latency sample count
 * on the side line.
 */
void reportEndToEnd(const EndToEnd& e2e, double setup_s, RunReport& report);

/** Fill the checker's verdicts into the report. */
void addCheckerSide(const OutputChecker& checker, RunReport& report);

} // namespace perfbench

#endif // QISET_PERFBENCH_HARNESS_H
