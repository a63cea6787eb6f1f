#include "compiler/pass_manager.h"

#include <chrono>

#include "common/error.h"
#include "compiler/passes.h"

namespace qiset {

PassManager&
PassManager::append(std::unique_ptr<Pass> pass)
{
    QISET_REQUIRE(pass != nullptr, "cannot register a null pass");
    passes_.push_back(std::move(pass));
    return *this;
}

std::vector<std::string>
PassManager::passNames() const
{
    std::vector<std::string> names;
    names.reserve(passes_.size());
    for (const auto& pass : passes_)
        names.push_back(pass->name());
    return names;
}

namespace {

/**
 * Publish one pass-span packet. `telemetry` is the compile's identity
 * (job/circuit/shard); a null stream was filtered by the caller.
 */
void
publishPassEvent(const CompileTelemetry& telemetry,
                 ServiceEventType type, int32_t pass_id,
                 double wall_ms)
{
    ServiceEvent event;
    event.type = type;
    event.job = telemetry.job;
    event.circuit = telemetry.circuit;
    event.shard = telemetry.shard;
    event.pass = pass_id;
    event.worker = EventStream::currentWorker();
    event.a = wall_ms;
    telemetry.stream->publishNow(event);
}

} // namespace

void
PassManager::run(CompilationContext& context) const
{
    const CompileTelemetry* telemetry =
        context.telemetry && context.telemetry->stream
            ? context.telemetry
            : nullptr;
    for (const auto& pass : passes_) {
        size_t index = context.pass_metrics.size();
        context.pass_metrics.push_back(PassMetric{pass->name(), 0.0, {}});
        size_t previous = context.current_index_;
        context.current_index_ = index;
        int32_t pass_id = -1;
        if (telemetry) {
            pass_id = telemetry->stream->passId(pass->name());
            publishPassEvent(*telemetry, ServiceEventType::PassBegin,
                             pass_id, 0.0);
        }
        auto start = std::chrono::steady_clock::now();
        try {
            pass->run(context);
        } catch (...) {
            // Keep B/E spans balanced even when the pass throws; the
            // Complete packet the service publishes carries ok=0.
            if (telemetry)
                publishPassEvent(*telemetry,
                                 ServiceEventType::PassComplete,
                                 pass_id, 0.0);
            context.current_index_ = previous;
            throw;
        }
        auto end = std::chrono::steady_clock::now();
        context.pass_metrics[index].wall_ms =
            std::chrono::duration<double, std::milli>(end - start)
                .count();
        if (telemetry)
            publishPassEvent(*telemetry, ServiceEventType::PassComplete,
                             pass_id, context.pass_metrics[index].wall_ms);
        context.current_index_ = previous;
    }
}

PassManager
defaultPipeline(const CompileOptions& options)
{
    PassManager manager;
    manager.append(makeMappingPass());
    manager.append(makeRoutingPass(options.routing));
    if (options.consolidate)
        manager.append(makeConsolidationPass());
    manager.append(makeTranslationPass());
    // Scheduling runs on the final (native) circuit so crosstalk and
    // noise annotation share one moment assignment.
    manager.append(makeSchedulingPass());
    if (options.crosstalk_inflation > 1.0)
        manager.append(makeCrosstalkPass(options.crosstalk_inflation));
    manager.append(makeNoiseAnnotationPass());
    return manager;
}

} // namespace qiset
