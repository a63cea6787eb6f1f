#include "circuit/schedule.h"

#include <algorithm>
#include <cstring>

#include "circuit/circuit.h"
#include "common/arena.h"
#include "common/error.h"

namespace qiset {

namespace {

/** FNV-1a, the usual incremental byte hash. */
inline uint64_t
fnv1a(uint64_t hash, uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (8 * byte)) & 0xffu;
        hash *= 1099511628211ull;
    }
    return hash;
}

inline uint64_t
fnv1aDouble(uint64_t hash, double value)
{
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value), "double is 64-bit");
    std::memcpy(&bits, &value, sizeof(bits));
    return fnv1a(hash, bits);
}

} // namespace

uint64_t
structureFingerprint(const Circuit& circuit)
{
    uint64_t hash = 14695981039346656037ull;
    hash = fnv1a(hash, static_cast<uint64_t>(circuit.numQubits()));
    hash = fnv1a(hash, circuit.size());
    const auto& qubits = circuit.opQubits();
    const auto& durations = circuit.opDurations();
    for (size_t i = 0; i < qubits.size(); ++i) {
        hash = fnv1a(hash, qubits[i].size());
        for (int q : qubits[i])
            hash = fnv1a(hash, static_cast<uint64_t>(q));
        hash = fnv1aDouble(hash, durations[i]);
    }
    return hash;
}

void
Schedule::build(const Circuit& circuit, MemArena* scratch)
{
    // The build touches only the qubit and duration columns — the
    // whole point of the SoA layout: no label/unitary cache traffic.
    const auto& op_qubits = circuit.opQubits();
    const auto& op_durations = circuit.opDurations();
    size_t count = op_qubits.size();
    int n = circuit.numQubits();

    asap_.assign(count, 0);
    alap_.assign(count, 0);
    start_ns_.assign(count, 0.0);
    moments_.ops_.clear();
    moments_.offsets_.clear();
    frontier_.ops_.clear();
    frontier_.offsets_.clear();

    // ASAP: each op starts at the first moment after every op already
    // scheduled on its qubits (this exact recurrence is the contract
    // the crosstalk model and Circuit::depth() rely on). The per-qubit
    // working arrays are pure scratch: bump them from the caller's
    // arena when one is available.
    int* level;
    double* busy_until;
    std::vector<int> level_heap;
    std::vector<double> busy_heap;
    if (scratch) {
        level = scratch->allocateArray<int>(n);
        busy_until = scratch->allocateArray<double>(n);
    } else {
        level_heap.assign(n, 0);
        busy_heap.assign(n, 0.0);
        level = level_heap.data();
        busy_until = busy_heap.data();
    }
    std::fill(level, level + n, 0);
    std::fill(busy_until, busy_until + n, 0.0);
    int depth = 0;
    double duration = 0.0;
    for (size_t i = 0; i < count; ++i) {
        int start = 0;
        double start_ns = 0.0;
        for (int q : op_qubits[i]) {
            start = std::max(start, level[q]);
            start_ns = std::max(start_ns, busy_until[q]);
        }
        asap_[i] = start;
        start_ns_[i] = start_ns;
        double end_ns = start_ns + op_durations[i];
        for (int q : op_qubits[i]) {
            level[q] = start + 1;
            busy_until[q] = end_ns;
        }
        depth = std::max(depth, start + 1);
        duration = std::max(duration, end_ns);
    }
    depth_ = depth;
    duration_ns_ = duration;

    // ALAP: schedule the reversed op order ASAP, then mirror the
    // moment axis. An op's ALAP moment is depth-1 minus its reversed
    // ASAP moment.
    std::fill(level, level + n, 0);
    for (size_t r = 0; r < count; ++r) {
        size_t i = count - 1 - r;
        int start = 0;
        for (int q : op_qubits[i])
            start = std::max(start, level[q]);
        alap_[i] = depth_ - 1 - start;
        for (int q : op_qubits[i])
            level[q] = start + 1;
    }

    // Build the CSR moment tables: count per moment, prefix-sum into
    // offsets, then scatter the op indices in circuit order. Two flat
    // vectors per table (reusing their capacity across rebuilds)
    // instead of one heap allocation per moment.
    size_t two_q = 0;
    moments_.offsets_.assign(static_cast<size_t>(depth_) + 1, 0);
    frontier_.offsets_.assign(static_cast<size_t>(depth_) + 1, 0);
    for (size_t i = 0; i < count; ++i) {
        ++moments_.offsets_[asap_[i] + 1];
        if (op_qubits[i].isTwoQubit()) {
            ++frontier_.offsets_[asap_[i] + 1];
            ++two_q;
        }
    }
    for (int m = 0; m < depth_; ++m) {
        moments_.offsets_[m + 1] += moments_.offsets_[m];
        frontier_.offsets_[m + 1] += frontier_.offsets_[m];
    }
    moments_.ops_.resize(count);
    frontier_.ops_.resize(two_q);
    // Scatter via a running cursor per moment (reusing the scratch
    // arena when one is available); ops stay in circuit order within
    // each moment because i is ascending.
    if (depth_ > 0) {
        size_t* cursor;
        std::vector<size_t> cursor_heap;
        if (scratch) {
            cursor = scratch->allocateArray<size_t>(2 * depth_);
        } else {
            cursor_heap.assign(2 * static_cast<size_t>(depth_), 0);
            cursor = cursor_heap.data();
        }
        size_t* frontier_cursor = cursor + depth_;
        std::copy(moments_.offsets_.begin(),
                  moments_.offsets_.end() - 1, cursor);
        std::copy(frontier_.offsets_.begin(),
                  frontier_.offsets_.end() - 1, frontier_cursor);
        for (size_t i = 0; i < count; ++i) {
            moments_.ops_[cursor[asap_[i]]++] = i;
            if (op_qubits[i].isTwoQubit())
                frontier_.ops_[frontier_cursor[asap_[i]]++] = i;
        }
    }

    stamp_ = circuit.structureStamp();
    valid_ = true;
}

bool
Schedule::consistentWith(const Circuit& circuit) const
{
    return valid_ && circuit.size() == asap_.size() &&
           stamp_ == circuit.structureStamp();
}

int
Schedule::asapMoment(size_t op) const
{
    QISET_REQUIRE(valid_, "schedule not built");
    QISET_REQUIRE(op < asap_.size(), "op index ", op,
                  " out of range for ", asap_.size(), " scheduled ops");
    return asap_[op];
}

int
Schedule::alapMoment(size_t op) const
{
    QISET_REQUIRE(valid_, "schedule not built");
    QISET_REQUIRE(op < alap_.size(), "op index ", op,
                  " out of range for ", alap_.size(), " scheduled ops");
    return alap_[op];
}

int
Schedule::slack(size_t op) const
{
    return alapMoment(op) - asapMoment(op);
}

size_t
Schedule::maxParallelTwoQubit() const
{
    size_t best = 0;
    for (const auto& moment : frontier_)
        best = std::max(best, moment.size());
    return best;
}

ScheduleSummary
Schedule::summary() const
{
    QISET_REQUIRE(valid_, "schedule not built");
    ScheduleSummary out;
    out.depth = depth_;
    out.duration_ns = duration_ns_;
    out.max_parallel_2q = maxParallelTwoQubit();
    out.num_ops = numOps();
    return out;
}

double
Schedule::startTimeNs(size_t op) const
{
    QISET_REQUIRE(valid_, "schedule not built");
    QISET_REQUIRE(op < start_ns_.size(), "op index ", op,
                  " out of range for ", start_ns_.size(),
                  " scheduled ops");
    return start_ns_[op];
}

} // namespace qiset
