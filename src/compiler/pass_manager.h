#ifndef QISET_COMPILER_PASS_MANAGER_H
#define QISET_COMPILER_PASS_MANAGER_H

/**
 * @file
 * Ordered pass sequence and runner.
 *
 * A PassManager owns a sequence of Pass instances and executes them
 * against one CompilationContext, timing each pass and appending a
 * PassMetric record per run. Pipelines are assembled by append() in
 * execution order; defaultPipeline() builds the Fig. 1 pipeline from
 * the compile options, and ablations select passes through those
 * options.
 */

#include <memory>
#include <string>
#include <vector>

#include "compiler/pass.h"

namespace qiset {

/** Ordered, named sequence of compiler passes. */
class PassManager
{
  public:
    PassManager() = default;
    PassManager(PassManager&&) = default;
    PassManager& operator=(PassManager&&) = default;

    /** Append a pass at the end of the pipeline. */
    PassManager& append(std::unique_ptr<Pass> pass);

    /** Appended pass names, in execution order. */
    std::vector<std::string> passNames() const;

    size_t size() const { return passes_.size(); }

    /**
     * Run every pass in order against the context, recording one timed
     * PassMetric per pass in context.pass_metrics.
     */
    void run(CompilationContext& context) const;

  private:
    std::vector<std::unique_ptr<Pass>> passes_;
};

/**
 * The Fig. 1 pipeline as configured by the options: mapping, routing
 * (strategy options.routing), consolidation (when
 * options.consolidate), NuOp translation, scheduling, crosstalk
 * inflation (when options.crosstalk_inflation > 1) and noise
 * annotation.
 */
PassManager defaultPipeline(const CompileOptions& options);

} // namespace qiset

#endif // QISET_COMPILER_PASS_MANAGER_H
