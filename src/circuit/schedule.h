#ifndef QISET_CIRCUIT_SCHEDULE_H
#define QISET_CIRCUIT_SCHEDULE_H

/**
 * @file
 * Moment-level schedule IR.
 *
 * A Schedule assigns every operation of a Circuit to a discrete
 * *moment* (gates in the same moment execute simultaneously) under
 * both ASAP (as-soon-as-possible) and ALAP (as-late-as-possible)
 * dependency orderings, plus wall-clock start times driven by the
 * per-op durations. It is the shared scheduling state of the
 * compiler: the scheduling pass builds one on the CompilationContext,
 * the crosstalk pass reads its per-moment two-qubit frontier to find
 * simultaneously-executing couplers (the paper's Section IX model),
 * the noise-annotation pass reads its critical-path duration, and the
 * SABRE router drives its lookahead from the ASAP moment order.
 *
 * Invalidation: moments depend only on the circuit's *qubit
 * structure* (which qubits each op touches) and durations — not on
 * unitaries, labels or error rates. The schedule records the
 * circuit's structure stamp (circuit.h), which every appended op and
 * duration edit renews, so consistentWith() is two compares: it stays
 * true across error-rate rewrites (crosstalk inflation) and turns
 * false once ops are inserted, removed or re-wired (SWAP insertion,
 * consolidation, translation). Passes that rewrite the circuit call
 * invalidate(); consumers rebuild lazily via
 * CompilationContext::ensureSchedule().
 */

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qiset {

class Circuit;
class MemArena;

/**
 * Cheap cost summary of one schedule — the per-candidate signal the
 * shard planner ranks (circuit, shard) placements by: dependency
 * depth and critical-path duration bound queue time, max 2Q
 * parallelism bounds crosstalk exposure.
 */
struct ScheduleSummary
{
    int depth = 0;
    double duration_ns = 0.0;
    size_t max_parallel_2q = 0;
    size_t num_ops = 0;
};

/**
 * The op indices of one moment — a borrowed slice of the schedule's
 * flat moment table (valid until the schedule is rebuilt).
 */
class MomentView
{
  public:
    MomentView() = default;
    MomentView(const size_t* begin, const size_t* end)
        : begin_(begin), end_(end)
    {
    }

    const size_t* begin() const { return begin_; }
    const size_t* end() const { return end_; }
    size_t size() const { return static_cast<size_t>(end_ - begin_); }
    bool empty() const { return begin_ == end_; }
    size_t operator[](size_t i) const { return begin_[i]; }

  private:
    const size_t* begin_ = nullptr;
    const size_t* end_ = nullptr;
};

/**
 * All moments of a schedule, stored CSR-style: one flat op-index
 * array plus per-moment offsets, so building a schedule costs two
 * vectors instead of one allocation per moment. Iteration yields
 * MomentView slices.
 */
class MomentTable
{
  public:
    class Iterator
    {
      public:
        Iterator(const MomentTable* table, size_t m)
            : table_(table), m_(m)
        {
        }
        MomentView operator*() const { return (*table_)[m_]; }
        Iterator& operator++()
        {
            ++m_;
            return *this;
        }
        bool operator!=(const Iterator& o) const { return m_ != o.m_; }

      private:
        const MomentTable* table_;
        size_t m_;
    };

    /** Number of moments. */
    size_t size() const
    {
        return offsets_.empty() ? 0 : offsets_.size() - 1;
    }
    bool empty() const { return size() == 0; }

    MomentView operator[](size_t m) const
    {
        return MomentView(ops_.data() + offsets_[m],
                          ops_.data() + offsets_[m + 1]);
    }

    Iterator begin() const { return Iterator(this, 0); }
    Iterator end() const { return Iterator(this, size()); }

  private:
    friend class Schedule;
    std::vector<size_t> ops_;
    /** size()+1 offsets into ops_ (offsets_[m] .. offsets_[m+1]). */
    std::vector<size_t> offsets_;
};

/** ASAP/ALAP moment assignment of one circuit. */
class Schedule
{
  public:
    /** An empty, invalid schedule (build() before use). */
    Schedule() = default;

    explicit Schedule(const Circuit& circuit) { build(circuit); }

    /**
     * (Re)compute all moment state from the circuit. When `scratch`
     * is given, per-qubit working arrays bump-allocate from it (and
     * are dead once build returns — the arena owner may reset);
     * the schedule's own state always lives on the regular heap, so a
     * built Schedule never holds arena pointers.
     */
    void build(const Circuit& circuit, MemArena* scratch = nullptr);

    /** False until built, or after invalidate(). */
    bool valid() const { return valid_; }

    /** Mark stale (cheap; consumers rebuild lazily). */
    void invalidate() { valid_ = false; }

    /**
     * True when this schedule was built from `circuit`, or from a copy
     * of it, and neither has had an op appended or a duration changed
     * since (error-rate, label and unitary edits keep a schedule
     * consistent). Compares structure stamps and sizes; nothing is
     * rehashed. A circuit with equal structure that is not a copy
     * reads as stale.
     */
    bool consistentWith(const Circuit& circuit) const;

    /** Number of scheduled operations. */
    size_t numOps() const { return asap_.size(); }

    /** Number of moments (the circuit's dependency depth). */
    int depth() const { return depth_; }

    /** ASAP moment of op `op` (index into the circuit's op list). */
    int asapMoment(size_t op) const;

    /** ALAP moment of op `op`. */
    int alapMoment(size_t op) const;

    /** alapMoment - asapMoment; zero for critical-path ops. */
    int slack(size_t op) const;

    /** Op indices of each ASAP moment, in circuit order. */
    const MomentTable& moments() const { return moments_; }

    /**
     * Two-qubit op indices of each ASAP moment — the simultaneity
     * frontier the crosstalk model pairs up.
     */
    const MomentTable& twoQubitFrontier() const { return frontier_; }

    /** Largest two-qubit frontier across all moments. */
    size_t maxParallelTwoQubit() const;

    /** ASAP start time of op `op` in ns (durations drive packing). */
    double startTimeNs(size_t op) const;

    /** Critical-path wall-clock duration of the circuit in ns. */
    double durationNs() const { return duration_ns_; }

    /** Snapshot of the ranking signals (depth, duration, 2Q width). */
    ScheduleSummary summary() const;

  private:
    bool valid_ = false;
    /** Structure stamp of the circuit this was built from. */
    uint64_t stamp_ = 0;
    int depth_ = 0;
    double duration_ns_ = 0.0;
    std::vector<int> asap_;
    std::vector<int> alap_;
    std::vector<double> start_ns_;
    MomentTable moments_;
    MomentTable frontier_;
};

/**
 * Hash of what a schedule reads: (num_qubits, per-op qubit lists,
 * per-op durations). Stable across error-rate, label and unitary
 * edits; golden tests pin it to detect structural drift in the IR or
 * the generators. Schedules themselves compare structure stamps.
 */
uint64_t structureFingerprint(const Circuit& circuit);

} // namespace qiset

#endif // QISET_CIRCUIT_SCHEDULE_H
