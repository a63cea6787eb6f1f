#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>
#include <stdexcept>

#include "compiler/passes.h"
#include "compiler/translate.h"
#include "nuop/decomposition_strategy.h"
#include "sim/statevector.h"

// ------------------------------------------------- allocation counters
//
// Replaceable global allocation functions (the bench_hotpath
// technique). Counting is switched on only for the traced run, so the
// timed run pays one predictable branch per allocation. Every form of
// operator new is replaced, nothrow ones included, so that no memory
// from another allocator reaches the replaced operator delete.

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

/** Counted malloc / aligned_alloc; null when memory is exhausted. */
void*
countedAlloc(std::size_t size, std::size_t align = 0) noexcept
{
    if (g_counting.load(std::memory_order_relaxed)) {
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
        g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
    }
    if (align == 0)
        return std::malloc(size == 0 ? 1 : size);
    // aligned_alloc requires size to be a multiple of the alignment.
    std::size_t padded = (size + align - 1) / align * align;
    return std::aligned_alloc(align, padded == 0 ? align : padded);
}

void*
throwingAlloc(std::size_t size, std::size_t align = 0)
{
    void* p = countedAlloc(size, align);
    if (!p)
        throw std::bad_alloc();
    return p;
}

std::size_t
alignment(std::align_val_t align)
{
    return static_cast<std::size_t>(align);
}

} // namespace

void*
operator new(std::size_t size)
{
    return throwingAlloc(size);
}

void*
operator new[](std::size_t size)
{
    return throwingAlloc(size);
}

void*
operator new(std::size_t size, std::align_val_t align)
{
    return throwingAlloc(size, alignment(align));
}

void*
operator new[](std::size_t size, std::align_val_t align)
{
    return throwingAlloc(size, alignment(align));
}

void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    return countedAlloc(size);
}

void*
operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
    return countedAlloc(size);
}

void*
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t&) noexcept
{
    return countedAlloc(size, alignment(align));
}

void*
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t&) noexcept
{
    return countedAlloc(size, alignment(align));
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept
{
    std::free(p);
}

namespace perfbench {

void
setAllocCounting(bool on)
{
    g_counting.store(on, std::memory_order_relaxed);
}

namespace {

uint64_t
allocCount()
{
    return g_alloc_count.load(std::memory_order_relaxed);
}

uint64_t
allocBytes()
{
    return g_alloc_bytes.load(std::memory_order_relaxed);
}

} // namespace

double
nowMs()
{
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double, std::milli>(
               Clock::now().time_since_epoch())
        .count();
}

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    return samples[std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

CompileOptions
figureBenchOptions()
{
    CompileOptions options;
    options.approximate = true;
    options.nuop.max_layers = 5;
    options.nuop.multistarts = 3;
    options.nuop.exact_threshold = 1.0 - 1e-6;
    options.nuop.bfgs.max_iterations = 150;
    return options;
}

// ------------------------------------------------------ output digest

namespace {

struct Fnv
{
    uint64_t h = 1469598103934665603ull;

    void bytes(const void* p, size_t n)
    {
        const unsigned char* c = static_cast<const unsigned char*>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= c[i];
            h *= 1099511628211ull;
        }
    }
    template <typename T> void value(const T& v) { bytes(&v, sizeof v); }
    void ints(const std::vector<int>& v)
    {
        value(v.size());
        if (!v.empty())
            bytes(v.data(), v.size() * sizeof(int));
    }
};

} // namespace

uint64_t
resultDigest(const CompileResult& result)
{
    Fnv f;
    f.ints(result.physical);
    f.ints(result.initial_positions);
    f.ints(result.final_positions);
    f.value(result.estimated_fidelity);
    f.value(result.two_qubit_count);
    const Circuit& c = result.circuit;
    f.value(c.numQubits());
    for (ConstOpRef op : c.ops()) {
        Qubits qs = op.qubits();
        f.value(qs[0]);
        f.value(qs.isTwoQubit() ? qs[1] : -1);
        f.value(op.labelId());
        f.value(op.errorRate());
        f.value(op.durationNs());
        const Matrix& u = op.unitary();
        f.bytes(u.data(), u.size() * sizeof(cplx));
    }
    return f.h;
}

bool
bitIdentical(const CompileResult& a, const CompileResult& b)
{
    if (a.physical != b.physical ||
        a.initial_positions != b.initial_positions ||
        a.final_positions != b.final_positions ||
        a.two_qubit_count != b.two_qubit_count ||
        a.swaps_inserted != b.swaps_inserted ||
        a.teleports_inserted != b.teleports_inserted ||
        a.epr_attempts != b.epr_attempts ||
        a.crosstalk_inflated != b.crosstalk_inflated ||
        a.type_usage != b.type_usage ||
        a.estimated_fidelity != b.estimated_fidelity ||
        a.circuit.numQubits() != b.circuit.numQubits() ||
        a.circuit.size() != b.circuit.size())
        return false;
    for (size_t i = 0; i < a.circuit.size(); ++i) {
        ConstOpRef x = a.circuit.ops()[i];
        ConstOpRef y = b.circuit.ops()[i];
        if (x.qubits() != y.qubits() || x.labelId() != y.labelId() ||
            x.errorRate() != y.errorRate() ||
            x.durationNs() != y.durationNs())
            return false;
        const Matrix& u = x.unitary();
        const Matrix& v = y.unitary();
        if (u.size() != v.size() ||
            std::memcmp(u.data(), v.data(), u.size() * sizeof(cplx)) != 0)
            return false;
    }
    return true;
}

// ------------------------------------------------------ output checks

namespace {

bool
isPermutation(const std::vector<int>& v, int n)
{
    if (v.size() != static_cast<size_t>(n))
        return false;
    std::vector<bool> seen(n, false);
    for (int x : v) {
        if (x < 0 || x >= n || seen[x])
            return false;
        seen[x] = true;
    }
    return true;
}

bool
onTeleportLink(const Topology& topology, int a, int b)
{
    for (const TeleportEdge& edge : topology.teleportEdges())
        if ((edge.comm_a == a && edge.comm_b == b) ||
            (edge.comm_a == b && edge.comm_b == a))
            return true;
    return false;
}

} // namespace

std::string
OutputChecker::check(const CompileJobSpec& job, const CompileResult& result)
{
    ++checked_;
    std::string why = structural(job, result);
    if (why.empty())
        why = semantic(job, result);
    if (!why.empty()) {
        ++failed_;
        if (failures_.size() < 8)
            failures_.push_back(job.name + ": " + why);
    }
    return why;
}

std::string
OutputChecker::structural(const CompileJobSpec& job,
                          const CompileResult& result) const
{
    const Device& device = *job.device;
    const Circuit& circuit = result.circuit;
    int n = circuit.numQubits();
    if (n != job.app->numQubits())
        return "register width differs from the logical circuit";

    // Register map: distinct device qubits, permutation positions.
    if (result.physical.size() != static_cast<size_t>(n))
        return "physical map has the wrong size";
    std::vector<bool> used(device.numQubits(), false);
    for (int q : result.physical) {
        if (q < 0 || q >= device.numQubits() || used[q])
            return "physical map is not injective into the device";
        used[q] = true;
    }
    if (!isPermutation(result.initial_positions, n) ||
        !isPermutation(result.final_positions, n))
        return "initial/final positions are not a bijection";

    if (!(result.estimated_fidelity > 0.0 &&
          result.estimated_fidelity <= 1.0))
        return "estimated fidelity outside (0, 1]";

    std::vector<std::string> allowed;
    for (const GateSpec& spec : gateSpecs(*job.gate_set))
        allowed.push_back(spec.type_name);
    static const LabelId teleport = internLabel("TELEPORT");
    static const LabelId teleswap = internLabel("TELESWAP");
    for (ConstOpRef op : circuit.ops()) {
        if (!op.isTwoQubit())
            continue;
        Qubits qs = op.qubits();
        int pa = result.physical[qs[0]];
        int pb = result.physical[qs[1]];
        if (op.labelId() == teleport || op.labelId() == teleswap) {
            if (!onTeleportLink(device.topology(), pa, pb))
                return "teleport op off every teleport link";
            continue;
        }
        const std::string& label = op.label();
        if (std::find(allowed.begin(), allowed.end(), label) ==
            allowed.end())
            return "2Q label " + label + " not in instruction set " +
                   job.gate_set->name;
        if (!(device.edgeFidelity(pa, pb, label) > 0.0))
            return "2Q op " + label + " on uncalibrated coupling (" +
                   std::to_string(pa) + "," + std::to_string(pb) + ")";
    }
    return "";
}

std::string
OutputChecker::semantic(const CompileJobSpec& job,
                        const CompileResult& result)
{
    const Circuit& app = *job.app;
    int n = app.numQubits();
    if (n > kSemanticMaxQubits)
        return "";
    if (!simulated_.insert(resultDigest(result)).second)
        return ""; // this exact output was already simulated.

    StateVector ideal(n);
    ideal.run(app);
    // Logical qubit l is measured at register position
    // final_positions[l]; move the ideal amplitudes there.
    StateVector expected(n);
    auto& amps = expected.mutableAmplitudes();
    std::fill(amps.begin(), amps.end(), cplx(0.0, 0.0));
    for (size_t logical = 0; logical < ideal.dim(); ++logical) {
        size_t reg = 0;
        for (int l = 0; l < n; ++l)
            if (logical & (size_t{1} << (n - 1 - l)))
                reg |= size_t{1} << (n - 1 - result.final_positions[l]);
        amps[reg] = ideal.amplitudes()[logical];
    }
    StateVector compiled(n);
    compiled.run(result.circuit);
    double fidelity = std::norm(expected.innerProduct(compiled));

    // Fd: the decomposition fidelity the compiler claims, i.e. its
    // product-model estimate with every op's own error rate divided
    // out. N bounds the translated 2Q blocks: each block emits
    // 2 (layers + 1) single-qubit ops.
    double hardware = 1.0;
    int one_qubit_ops = 0;
    for (ConstOpRef op : result.circuit.ops()) {
        hardware *= 1.0 - op.errorRate();
        if (!op.isTwoQubit())
            ++one_qubit_ops;
    }
    double fd = result.estimated_fidelity / hardware;
    double blocks = 0.5 * one_qubit_ops;
    double log_inv_fd = std::max(0.0, -std::log(fd));
    double allowed = 4.0 * blocks * log_inv_fd + 1e-9;
    double gap = 1.0 - std::sqrt(std::max(0.0, fidelity));
    if (1.0 - fd > 1e-12)
        worst_ratio_ = std::max(worst_ratio_, (1.0 - fidelity) / (1.0 - fd));
    if (!(gap <= allowed)) {
        std::ostringstream os;
        os << "noiseless state fidelity " << fidelity << " below bound (Fd "
           << fd << ", blocks <= " << blocks << ")";
        return os.str();
    }
    return "";
}

OutputFigures
outputFigures(const CompileResult& result)
{
    OutputFigures f;
    f.native_2q = result.two_qubit_count;
    f.neg_log10_fidelity = -std::log10(result.estimated_fidelity);
    f.duration_us = result.circuit.scheduledDurationNs() / 1000.0;
    return f;
}

void
EndToEnd::addOutput(const OutputFigures& figures)
{
    native_2q_sum += figures.native_2q;
    neg_log10_fidelity_sum += figures.neg_log10_fidelity;
    duration_us_sum += figures.duration_us;
    ++outputs;
}

RssSampler::RssSampler()
{
    sample();
    thread_ = std::thread([this] {
        while (!stop_.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            sample();
        }
    });
}

RssSampler::~RssSampler()
{
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
}

void
RssSampler::sample()
{
    // statm: total program size, then resident pages.
    std::ifstream statm("/proc/self/statm");
    long size = 0, resident = 0;
    if (statm >> size >> resident && resident > peak_pages_.load())
        peak_pages_.store(resident);
}

double
RssSampler::peakMb() const
{
    static const double page_mb =
        static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
    return static_cast<double>(peak_pages_.load()) * page_mb;
}

void
reportEndToEnd(const EndToEnd& e2e, double setup_s, RunReport& report)
{
    double outputs = std::max<double>(1.0, static_cast<double>(e2e.outputs));
    double completed = static_cast<double>(e2e.completed);
    double attempted =
        std::max<double>(1.0, static_cast<double>(e2e.attempted));
    report.attempted = e2e.attempted;
    report.failed = e2e.failed;
    report.correct = report.correct && e2e.failed == 0;
    report.side.push_back({"latency.samples",
                           static_cast<double>(e2e.latencies_ms.size()),
                           "count"});
    report.metrics = {
        {"setup_s", setup_s, "s"},
        {"throughput_per_s",
         e2e.timed_s > 0.0 ? completed / e2e.timed_s : 0.0, "1/s"},
        {"latency_ms_p50", quantile(e2e.latencies_ms, 0.50), "ms"},
        {"latency_ms_p95", quantile(e2e.latencies_ms, 0.95), "ms"},
        {"native_2q_mean", e2e.native_2q_sum / outputs, "count"},
        {"neg_log10_fidelity_mean", e2e.neg_log10_fidelity_sum / outputs,
         "log10"},
        {"circuit_duration_us_mean", e2e.duration_us_sum / outputs, "us"},
        {"peak_rss_mb", e2e.peak_rss_mb, "MB"},
        {"ok_share",
         (static_cast<double>(e2e.attempted) -
          static_cast<double>(e2e.failed)) /
             attempted,
         "share"},
    };
}

// ------------------------------------------------------------ tracing

int
Tracer::begin(const std::string& name, int compile)
{
    // Bookkeeping allocations (span storage, the name) happen before
    // the counters are sampled, so they land in the parent span.
    int parent = open_.empty() ? -1 : open_.back();
    spans_.emplace_back();
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    Span& span = spans_.back();
    span.name = name;
    span.compile = compile;
    span.parent = parent;
    span.allocs = allocCount();
    span.alloc_bytes = allocBytes();
    span.start_ms = nowMs();
    return open_.back();
}

void
Tracer::end(int index)
{
    double now = nowMs();
    uint64_t allocs = allocCount();
    uint64_t bytes = allocBytes();
    if (open_.empty() || open_.back() != index)
        throw std::logic_error("spans must close innermost first");
    open_.pop_back();
    Span& span = spans_[index];
    span.end_ms = now;
    span.allocs = allocs - span.allocs;
    span.alloc_bytes = bytes - span.alloc_bytes;
    if (span.parent >= 0)
        spans_[span.parent].child_ms += span.end_ms - span.start_ms;
}

bool
Tracer::write(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"traceEvents\":[";
    double origin = spans_.empty() ? 0.0 : spans_.front().start_ms;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << (s.start_ms - origin) * 1000.0
            << ",\"dur\":" << (s.end_ms - s.start_ms) * 1000.0
            << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
            << ",\"compile\":" << s.compile << ",\"self_us\":"
            << s.selfMs() * 1000.0 << ",\"allocs\":" << s.allocs
            << ",\"alloc_bytes\":" << s.alloc_bytes << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

namespace {

std::unique_ptr<Pass>
makePass(const std::string& name, const CompileOptions& options)
{
    if (name == "mapping")
        return makeMappingPass();
    if (name == "routing")
        return makeRoutingPass(options.routing);
    if (name == "consolidation")
        return makeConsolidationPass();
    if (name == "translation")
        return makeTranslationPass();
    if (name == "scheduling")
        return makeSchedulingPass();
    if (name == "crosstalk")
        return makeCrosstalkPass(options.crosstalk_inflation);
    if (name == "noise-annotation")
        return makeNoiseAnnotationPass();
    throw std::runtime_error("traced replay has no factory for pass " +
                             name);
}

const char* const kProbeSpan = "probe.cache_get";

/** Names of the per-pass spans the replay records. */
const char* const kPassSpans[] = {
    "mapping",          "routing",    "consolidation", "translation.profiles",
    "translation.emit", "scheduling", "noise-annotation"};

} // namespace

CompileResult
tracedCompile(const CompileJobSpec& job, ProfileCache& cache,
              Tracer& tracer, int compile_id, ReplayCounters& counters)
{
    const CompileOptions& options = job.options;
    int root = tracer.begin("compile", compile_id);
    CompilationContext context(*job.app, *job.device, *job.gate_set,
                               options, cache);
    for (const std::string& name : defaultPipeline(options).passNames()) {
        if (name == "translation") {
            std::vector<GateSpec> specs = gateSpecs(*job.gate_set);
            NuOpDecomposer decomposer(options.nuop);
            std::unique_ptr<DecompositionStrategy> strategy =
                makeDecompositionStrategy(options.decomposition);

            LocalCacheCounters local;
            int span = tracer.begin("translation.profiles", compile_id);
            precomputeProfiles(context.circuit, specs, decomposer,
                               *strategy, cache, nullptr, &local);
            tracer.end(span);
            counters.hits += local.hits.load();
            counters.misses += local.misses.load();

            // Warm ProfileCache::get on this compile's own blocks: every
            // key was resolved a moment ago, so each call is a hit.
            LocalCacheCounters warm;
            span = tracer.begin(kProbeSpan, compile_id);
            double t0 = nowMs();
            for (ConstOpRef op : context.circuit.ops())
                if (op.isTwoQubit())
                    for (const GateSpec& spec : specs)
                        cache.get(op.unitary(), spec, decomposer,
                                  *strategy, &warm);
            counters.probe_ms += nowMs() - t0;
            tracer.end(span);
            counters.probe_lookups += warm.hits.load() + warm.misses.load();
        }
        PassManager one;
        one.append(makePass(name, options));
        int span = tracer.begin(
            name == "translation" ? "translation.emit" : name, compile_id);
        one.run(context);
        tracer.end(span);
    }
    tracer.end(root);
    return context.takeResult();
}

namespace {

double
passCounter(const CompileResult& result, const std::string& pass,
            const std::string& counter)
{
    for (const PassMetric& metric : result.pass_metrics) {
        if (metric.pass != pass)
            continue;
        auto it = metric.counters.find(counter);
        return it == metric.counters.end() ? 0.0 : it->second;
    }
    return 0.0;
}

std::string
metricStem(std::string name)
{
    std::replace(name.begin(), name.end(), '-', '_');
    return name;
}

} // namespace

void
LayerReport::addCompile(const Tracer& tracer, int compile_id,
                        const ReplayCounters& counters,
                        const CompileResult& result)
{
    ++compiles_;
    for (const Span& span : tracer.spans()) {
        if (span.compile != compile_id)
            continue;
        if (span.name == "compile") {
            traced_ms_ += span.end_ms - span.start_ms;
            continue;
        }
        if (span.name == kProbeSpan) {
            traced_ms_ -= span.end_ms - span.start_ms;
            continue;
        }
        self_ms_[span.name] += span.selfMs();
        allocs_[span.name] += static_cast<double>(span.allocs);
        alloc_bytes_[span.name] += static_cast<double>(span.alloc_bytes);
    }
    misses_ += counters.misses;
    hits_ += counters.hits;
    probe_lookups_ += counters.probe_lookups;
    probe_ms_ += counters.probe_ms;
    swaps_ += result.swaps_inserted;
    teleports_ += result.teleports_inserted;
    blocks_ += passCounter(result, "consolidation", "blocks_after");
    dressing_fallbacks_ +=
        passCounter(result, "translation", "dressing_fallbacks");
}

double
LayerReport::selfMs(const std::string& name) const
{
    auto it = self_ms_.find(name);
    return it == self_ms_.end() || compiles_ == 0 ? 0.0
                                                  : it->second / compiles_;
}

double
LayerReport::getMs() const
{
    return probe_lookups_ > 0
               ? probe_ms_ / static_cast<double>(probe_lookups_)
               : 0.0;
}

double
LayerReport::solveMs() const
{
    // The precompute spans minus what their hits cost at the probe's
    // warm-lookup rate, spread over the misses.
    if (misses_ == 0)
        return 0.0;
    double profiles_ms = selfMs("translation.profiles") * compiles_;
    return std::max(0.0, profiles_ms - static_cast<double>(hits_) * getMs()) /
           static_cast<double>(misses_);
}

std::vector<Metric>
LayerReport::metrics() const
{
    double per = compiles_ > 0 ? 1.0 / compiles_ : 0.0;
    double total_allocs = 0.0, total_bytes = 0.0;
    for (const auto& [name, count] : allocs_)
        total_allocs += count;
    for (const auto& [name, bytes] : alloc_bytes_)
        total_bytes += bytes;

    std::vector<Metric> out = {
        {"profile_cache.misses", static_cast<double>(misses_) * per,
         "count"},
        {"nuop.solve_ms", solveMs(), "ms"},
        {"translation.profiles_ms", selfMs("translation.profiles"), "ms"},
        {"translation.emit_ms", selfMs("translation.emit"), "ms"},
        {"profile_cache.get_us", getMs() * 1000.0, "us"},
        {"alloc.count", total_allocs * per, "count"},
        {"alloc.mb", total_bytes * per / (1024.0 * 1024.0), "MB"},
        {"mapping.ms", selfMs("mapping"), "ms"},
        {"routing.ms", selfMs("routing"), "ms"},
        {"consolidation.ms", selfMs("consolidation"), "ms"},
        {"scheduling.ms", selfMs("scheduling"), "ms"},
        {"noise_annotation.ms", selfMs("noise-annotation"), "ms"},
        {"routing.swaps", swaps_ * per, "count"},
        {"routing.teleports", teleports_ * per, "count"},
        {"consolidation.blocks", blocks_ * per, "count"},
        {"translation.dressing_fallbacks", dressing_fallbacks_ * per,
         "count"},
        {"compile_wrapper.ms", median(wrapper_ms_), "ms"},
    };
    for (const std::string name : kPassSpans) {
        auto count = allocs_.find(name);
        auto bytes = alloc_bytes_.find(name);
        std::string stem = metricStem(name);
        out.push_back({"alloc.count." + stem,
                       count == allocs_.end() ? 0.0 : count->second * per,
                       "count"});
        out.push_back({"alloc.mb." + stem,
                       bytes == alloc_bytes_.end()
                           ? 0.0
                           : bytes->second * per / (1024.0 * 1024.0),
                       "MB"});
    }
    return out;
}

// ------------------------------------------------------- host noise

namespace {

/** Keeps the reference loop's result observable. */
volatile double g_reference_sink = 0.0;

/** Cumulative steal time of all CPUs in seconds, or -1. */
double
stealSeconds()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    if (!(in >> cpu) || cpu != "cpu")
        return -1.0;
    // user nice system idle iowait irq softirq steal
    double fields[8] = {0};
    for (double& f : fields)
        if (!(in >> f))
            return -1.0;
    long hz = sysconf(_SC_CLK_TCK);
    return hz > 0 ? fields[7] / static_cast<double>(hz) : -1.0;
}

/** Wall time of a fixed integer + floating-point loop, in ms. */
double
referenceLoopMs()
{
    double t0 = nowMs();
    uint64_t x = 88172645463325252ull;
    double acc = 0.0;
    for (int i = 0; i < 4000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += static_cast<double>(x & 0xffff) * 1e-9;
        acc *= 0.999999;
    }
    g_reference_sink = acc;
    return nowMs() - t0;
}

} // namespace

void
HostSentinel::start()
{
    steal_start_s = stealSeconds();
    ref_start_ms = referenceLoopMs();
}

void
HostSentinel::stop()
{
    ref_end_ms = referenceLoopMs();
    double now = stealSeconds();
    steal_s = steal_start_s >= 0.0 && now >= 0.0 ? now - steal_start_s : -1.0;
}

void
addCheckerSide(const OutputChecker& checker, RunReport& report)
{
    report.side.push_back(
        {"checks.outputs", static_cast<double>(checker.checked()), "count"});
    report.side.push_back(
        {"checks.failed", static_cast<double>(checker.failed()), "count"});
    report.side.push_back({"checks.simulated",
                           static_cast<double>(checker.simulated()),
                           "count"});
    report.side.push_back(
        {"checks.worst_infidelity_ratio", checker.worstRatio(), "ratio"});
    for (const std::string& failure : checker.failures())
        report.failures.push_back(failure);
}

} // namespace perfbench
