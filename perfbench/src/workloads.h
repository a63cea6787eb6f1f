#ifndef QISET_PERFBENCH_WORKLOADS_H
#define QISET_PERFBENCH_WORKLOADS_H

/**
 * @file
 * The three benchmark workloads. Each builds every input from the
 * seed, sets up several times (reporting the median), runs its timed
 * phase for the requested seconds, checks every output outside the
 * timed region, and fills a RunReport: end-to-end metrics untraced,
 * per-layer metrics in the separate traced run.
 */

#include "harness.h"

namespace perfbench {

/**
 * Cold instruction-set sweep (the paper's Figs. 9-10 experiment): 21
 * sets x {4 QV-6, 4 QAOA-6, QFT-6, FH-10}, one serial caller, one
 * ProfileCache per pass, fresh every pass, seconds / 10 passes (at
 * least 2).
 */
RunReport runIsaSweep(const Args& args);

/**
 * Recalibration cycle: G3 recompiles of QFT-32 (greedy and sabre) and
 * QAOA-24 on Sycamore and QFT-14 / QAOA-18 on a 3x3 chiplet, round-
 * robin over K = 16 calibration snapshots, on a cache set-up warmed.
 */
RunReport runRecalibrate(const Args& args);

/**
 * Open-loop mixed traffic into a 3-worker CompileService over one
 * Aspen-8 shard with set R3: four warm repeats (from a pool of 36) per
 * novel QV-4.
 */
RunReport runService(const Args& args);

} // namespace perfbench

#endif // QISET_PERFBENCH_WORKLOADS_H
