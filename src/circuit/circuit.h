#ifndef QISET_CIRCUIT_CIRCUIT_H
#define QISET_CIRCUIT_CIRCUIT_H

/**
 * @file
 * Quantum circuit intermediate representation.
 *
 * A Circuit is an ordered list of 1Q/2Q unitary operations on a fixed
 * register. Application generators emit circuits of abstract unitaries
 * (SU(4) blocks, ZZ interactions, ...); the compiler rewrites them into
 * circuits of native hardware gates annotated with error rates and
 * durations that the noisy simulators consume.
 *
 * Storage is struct-of-arrays: operands are an inline fixed pair
 * (Qubits), labels are interned LabelIds, and unitary id / error-rate
 * / duration live in parallel columns, so pass sweeps touch only the
 * columns they read and appending an op performs no per-op heap
 * allocation. Unitaries live in a per-circuit table and each op keeps
 * a 4-byte UnitaryId into it: code that emits one matrix many times
 * (translation's template gates, routing's SWAPs) stores it once with
 * storeUnitary() and adds every op by id. The Matrix-taking adds store
 * one entry per op. An entry is never rewritten: OpRef::setUnitary
 * stores a new one and repoints only its own op, so ops that share an
 * entry never see each other's edits. Operations are accessed through
 * OpRef/ConstOpRef proxy views (`for (const auto& op :
 * circuit.ops())`) or — for the hottest sweeps — through the raw
 * column accessors (opQubits(), ...).
 *
 * Invalidation: like std::vector, any add, append or store call may
 * reallocate the columns and the unitary table; OpRefs, column and
 * unitary references and iterators obtained before a mutation must
 * not be used after it.
 *
 * Structure stamp: every change to what a schedule reads (an appended
 * op, a duration edit) gives the circuit a fresh process-unique
 * stamp; error-rate, label and unitary edits keep it. A copy keeps
 * its source's stamp, and a moved-from circuit gets a fresh one. A
 * Schedule compares stamps to tell whether it is stale.
 *
 * Basis convention: for an n-qubit register, qubit 0 is the most
 * significant bit of the computational basis index.
 */

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "circuit/label_table.h"
#include "qc/matrix.h"

namespace qiset {

/**
 * Inline operand list of one operation: one or two qubit indices, no
 * heap. The second slot is -1 for single-qubit ops. Iterable and
 * indexable like the std::vector<int> it replaced.
 */
class Qubits
{
  public:
    Qubits() = default;
    Qubits(int q0) : q_{static_cast<std::int32_t>(q0), -1} {}
    Qubits(int q0, int q1)
        : q_{static_cast<std::int32_t>(q0), static_cast<std::int32_t>(q1)}
    {
    }
    Qubits(std::initializer_list<int> qs)
    {
        size_t i = 0;
        for (int q : qs) {
            if (i < 2)
                q_[i] = static_cast<std::int32_t>(q);
            ++i;
        }
        // Over-long lists are rejected by Circuit::add's validation
        // (size() never exceeds 2 by construction here).
    }
    Qubits(const std::vector<int>& qs)
    {
        for (size_t i = 0; i < qs.size() && i < 2; ++i)
            q_[i] = static_cast<std::int32_t>(qs[i]);
    }

    size_t size() const { return q_[1] >= 0 ? 2 : 1; }
    bool isTwoQubit() const { return q_[1] >= 0; }
    int operator[](size_t i) const { return q_[i]; }

    const std::int32_t* begin() const { return q_; }
    const std::int32_t* end() const { return q_ + size(); }

    friend bool operator==(Qubits a, Qubits b)
    {
        return a.q_[0] == b.q_[0] && a.q_[1] == b.q_[1];
    }
    friend bool operator!=(Qubits a, Qubits b) { return !(a == b); }

  private:
    std::int32_t q_[2] = {-1, -1};
};

/**
 * A single gate application, as a standalone value. This is the
 * *builder* type for Circuit::add(Operation) — inside a Circuit the
 * fields live in separate columns and are read through OpRef views.
 */
struct Operation
{
    /** Qubits acted on; size 1 or 2. For 2Q ops order matters. */
    Qubits qubits;

    /** The gate unitary: 2x2 for 1Q ops, 4x4 for 2Q ops. */
    Matrix unitary;

    /** Human-readable tag, e.g. "U3", "fSim(1.571,0.524)", "ZZ". */
    std::string label;

    /**
     * Hardware error rate of this gate instance (depolarizing strength
     * used by the noise model). Zero for abstract/ideal operations.
     */
    double error_rate = 0.0;

    /** Gate duration in nanoseconds (drives T1/T2 decoherence). */
    double duration_ns = 0.0;

    bool isTwoQubit() const { return qubits.isTwoQubit(); }
};

class Circuit;

/**
 * Index of an entry in one Circuit's unitary table. A distinct type,
 * so that it cannot bind to an int qubit; it names an entry only in
 * the circuit whose storeUnitary() returned it.
 */
enum class UnitaryId : std::uint32_t
{
};

/**
 * Process-unique structure stamp of one Circuit. Copies share the
 * value; a move hands it over and renews the source's, so a moved-from
 * circuit never matches a schedule built before the move. Stamps come
 * in thread-local blocks from one global counter: drawing one costs no
 * contended atomic.
 */
class StructureStamp
{
  public:
    StructureStamp() : value_(draw()) {}
    StructureStamp(const StructureStamp&) = default;
    StructureStamp& operator=(const StructureStamp&) = default;
    StructureStamp(StructureStamp&& other) noexcept : value_(other.value_)
    {
        other.renew();
    }
    StructureStamp& operator=(StructureStamp&& other) noexcept
    {
        value_ = other.value_;
        other.renew();
        return *this;
    }

    uint64_t value() const { return value_; }
    void renew() { value_ = draw(); }

  private:
    static uint64_t draw();

    uint64_t value_;
};

/** Read-only proxy for one operation inside a Circuit. */
class ConstOpRef
{
  public:
    ConstOpRef(const Circuit& circuit, size_t index)
        : circuit_(&circuit), index_(index)
    {
    }

    size_t index() const { return index_; }
    inline Qubits qubits() const;
    inline bool isTwoQubit() const;
    inline const Matrix& unitary() const;
    inline LabelId labelId() const;
    /** Label text, resolved through the global LabelTable. */
    inline const std::string& label() const;
    inline double errorRate() const;
    inline double durationNs() const;

  private:
    const Circuit* circuit_;
    size_t index_;
};

/** Mutable proxy for one operation inside a Circuit. */
class OpRef
{
  public:
    OpRef(Circuit& circuit, size_t index)
        : circuit_(&circuit), index_(index)
    {
    }

    size_t index() const { return index_; }
    inline Qubits qubits() const;
    inline bool isTwoQubit() const;
    inline const Matrix& unitary() const;
    inline LabelId labelId() const;
    inline const std::string& label() const;
    inline double errorRate() const;
    inline double durationNs() const;

    /**
     * Store `unitary` as a new table entry and point this op at it;
     * other ops sharing the old entry keep its bytes.
     */
    void setUnitary(const Matrix& unitary) const;
    inline void setLabel(LabelId label) const;
    inline void setLabel(std::string_view label) const;
    inline void setErrorRate(double error_rate) const;
    inline void setDurationNs(double duration_ns) const;

    inline operator ConstOpRef() const;

  private:
    Circuit* circuit_;
    size_t index_;
};

/** Range view over a Circuit's operations yielding Ref proxies. */
template <typename CircuitT, typename Ref>
class OpRange
{
  public:
    class iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = Ref;
        using difference_type = std::ptrdiff_t;
        using pointer = const Ref*;
        using reference = Ref;

        iterator(CircuitT& circuit, size_t index)
            : circuit_(&circuit), index_(index)
        {
        }
        Ref operator*() const { return Ref(*circuit_, index_); }
        iterator& operator++()
        {
            ++index_;
            return *this;
        }
        bool operator==(const iterator& other) const
        {
            return index_ == other.index_;
        }
        bool operator!=(const iterator& other) const
        {
            return index_ != other.index_;
        }

      private:
        CircuitT* circuit_;
        size_t index_;
    };

    explicit OpRange(CircuitT& circuit) : circuit_(&circuit) {}
    inline iterator begin() const;
    inline iterator end() const;
    inline size_t size() const;
    bool empty() const { return size() == 0; }
    Ref operator[](size_t index) const { return Ref(*circuit_, index); }

  private:
    CircuitT* circuit_;
};

using ConstOpRange = OpRange<const Circuit, ConstOpRef>;
using MutableOpRange = OpRange<Circuit, OpRef>;

/** An ordered sequence of operations on a fixed-size qubit register. */
class Circuit
{
  public:
    /** Create an empty circuit on num_qubits qubits. */
    explicit Circuit(int num_qubits);

    int numQubits() const { return num_qubits_; }

    /** Append a single-qubit unitary. */
    void add1q(int qubit, const Matrix& unitary,
               const std::string& label = "U1q");

    /** Append a single-qubit unitary with a pre-interned label. */
    void add1q(int qubit, const Matrix& unitary, LabelId label,
               double error_rate = 0.0, double duration_ns = 0.0);

    /** Append a two-qubit unitary on (qubit_a, qubit_b). */
    void add2q(int qubit_a, int qubit_b, const Matrix& unitary,
               const std::string& label = "U2q");

    /** Append a two-qubit unitary with a pre-interned label. */
    void add2q(int qubit_a, int qubit_b, const Matrix& unitary,
               LabelId label, double error_rate = 0.0,
               double duration_ns = 0.0);

    /**
     * Store a 2x2 or 4x4 unitary in this circuit's table and return
     * its id. Every op added by the id shares the entry's bytes.
     */
    UnitaryId storeUnitary(const Matrix& unitary);

    /** Append a single-qubit op whose unitary is a stored 2x2 entry. */
    void add1q(int qubit, UnitaryId unitary, LabelId label,
               double error_rate = 0.0, double duration_ns = 0.0);

    /** Append a two-qubit op whose unitary is a stored 4x4 entry. */
    void add2q(int qubit_a, int qubit_b, UnitaryId unitary, LabelId label,
               double error_rate = 0.0, double duration_ns = 0.0);

    /** Append a pre-built operation (validated). */
    void add(Operation op);

    /**
     * Append a copy of an op from another circuit (column-to-column;
     * no label re-intern, no unitary heap traffic).
     */
    void add(ConstOpRef op);

    /** Append a copy of `op` rewired onto `remapped` qubits. */
    void add(ConstOpRef op, Qubits remapped);

    /** Append every operation of another circuit (same register size). */
    void append(const Circuit& other);

    /**
     * Pre-size every column for `ops` more appends and the unitary
     * table for `unitaries` more entries (on top of the current
     * sizes). Generators and rewrite passes that know their output
     * call this so append loops never reallocate.
     */
    void reserveOps(size_t ops, size_t unitaries);

    /** reserveOps(additional, additional): one entry per op. */
    void reserveOps(size_t additional)
    {
        reserveOps(additional, additional);
    }

    ConstOpRange ops() const { return ConstOpRange(*this); }
    MutableOpRange mutableOps() { return MutableOpRange(*this); }

    size_t size() const { return qubits_.size(); }

    /** Number of two-qubit operations (the paper's instruction count). */
    int twoQubitGateCount() const { return two_qubit_count_; }

    /** Number of single-qubit operations. */
    int oneQubitGateCount() const
    {
        return static_cast<int>(size()) - two_qubit_count_;
    }

    /** Count of operations whose label matches exactly. */
    int countLabel(const std::string& label) const;

    /** ASAP-schedule depth (number of moments; see schedule.h). */
    int depth() const;

    /** Total ASAP-scheduled wall-clock duration in ns (schedule.h). */
    double scheduledDurationNs() const;

    /**
     * Full 2^n x 2^n unitary of the circuit (intended for small n;
     * guards against n > 12).
     */
    Matrix unitary() const;

    /** Multi-line textual listing of the circuit. */
    std::string toString() const;

    // ----------------------------------------------------- SoA columns
    //
    // Raw parallel arrays for allocation-free pass sweeps: routing and
    // scheduling read opQubits()/opDurations(), crosstalk reads
    // opQubits() and rewrites mutableErrorRates(), translation reads
    // opQubits()/opLabels() and each op's opUnitary(). References
    // follow the std::vector rule: invalidated by any add, append or
    // store.

    const std::vector<Qubits>& opQubits() const { return qubits_; }
    const std::vector<LabelId>& opLabels() const { return labels_; }
    /** Op i's unitary: its entry in the unitary table. */
    const Matrix& opUnitary(size_t i) const
    {
        return unitaries_[static_cast<size_t>(unitary_ids_[i])];
    }
    /** Op i's unitary-table id; equal ids mean shared bytes. */
    UnitaryId opUnitaryId(size_t i) const { return unitary_ids_[i]; }
    /** Number of entries in the unitary table. */
    size_t unitaryTableSize() const { return unitaries_.size(); }
    const std::vector<double>& opErrorRates() const
    {
        return error_rates_;
    }
    const std::vector<double>& opDurations() const { return durations_; }

    /** Error-rate column, writable (crosstalk/noise re-annotation). */
    std::vector<double>& mutableErrorRates() { return error_rates_; }

    /**
     * Stamp of the current qubit structure and durations (see the file
     * comment): equal stamps mean equal structure.
     */
    uint64_t structureStamp() const { return stamp_.value(); }

  private:
    friend class ConstOpRef;
    friend class OpRef;

    void validateQubit(int qubit) const;
    /** Validate operands, and the unitary's shape against arity. */
    void validateOp(Qubits qubits, const Matrix& unitary) const;
    /** Validated append storing one table entry for the op. */
    void pushOp(Qubits qubits, const Matrix& unitary, LabelId label,
                double error_rate, double duration_ns);
    /** Validated append of an op referencing a stored entry. */
    void pushOp(Qubits qubits, UnitaryId unitary, LabelId label,
                double error_rate, double duration_ns);
    /** Column append of an already validated op. */
    void appendOp(Qubits qubits, UnitaryId unitary, LabelId label,
                  double error_rate, double duration_ns);

    int num_qubits_;
    int two_qubit_count_ = 0;
    std::vector<Qubits> qubits_;
    std::vector<LabelId> labels_;
    std::vector<UnitaryId> unitary_ids_;
    /** The unitary table; entries are appended, never rewritten. */
    std::vector<Matrix> unitaries_;
    std::vector<double> error_rates_;
    std::vector<double> durations_;
    StructureStamp stamp_;
};

// ------------------------------------------------- inline proxy bodies

inline Qubits
ConstOpRef::qubits() const
{
    return circuit_->qubits_[index_];
}
inline bool
ConstOpRef::isTwoQubit() const
{
    return circuit_->qubits_[index_].isTwoQubit();
}
inline const Matrix&
ConstOpRef::unitary() const
{
    return circuit_->opUnitary(index_);
}
inline LabelId
ConstOpRef::labelId() const
{
    return circuit_->labels_[index_];
}
inline const std::string&
ConstOpRef::label() const
{
    return labelName(circuit_->labels_[index_]);
}
inline double
ConstOpRef::errorRate() const
{
    return circuit_->error_rates_[index_];
}
inline double
ConstOpRef::durationNs() const
{
    return circuit_->durations_[index_];
}

inline Qubits
OpRef::qubits() const
{
    return circuit_->qubits_[index_];
}
inline bool
OpRef::isTwoQubit() const
{
    return circuit_->qubits_[index_].isTwoQubit();
}
inline const Matrix&
OpRef::unitary() const
{
    return circuit_->opUnitary(index_);
}
inline LabelId
OpRef::labelId() const
{
    return circuit_->labels_[index_];
}
inline const std::string&
OpRef::label() const
{
    return labelName(circuit_->labels_[index_]);
}
inline double
OpRef::errorRate() const
{
    return circuit_->error_rates_[index_];
}
inline double
OpRef::durationNs() const
{
    return circuit_->durations_[index_];
}
inline void
OpRef::setLabel(LabelId label) const
{
    circuit_->labels_[index_] = label;
}
inline void
OpRef::setLabel(std::string_view label) const
{
    circuit_->labels_[index_] = internLabel(label);
}
inline void
OpRef::setErrorRate(double error_rate) const
{
    circuit_->error_rates_[index_] = error_rate;
}
inline void
OpRef::setDurationNs(double duration_ns) const
{
    circuit_->durations_[index_] = duration_ns;
    circuit_->stamp_.renew();
}
inline OpRef::operator ConstOpRef() const
{
    return ConstOpRef(*circuit_, index_);
}

template <typename CircuitT, typename Ref>
inline typename OpRange<CircuitT, Ref>::iterator
OpRange<CircuitT, Ref>::begin() const
{
    return iterator(*circuit_, 0);
}
template <typename CircuitT, typename Ref>
inline typename OpRange<CircuitT, Ref>::iterator
OpRange<CircuitT, Ref>::end() const
{
    return iterator(*circuit_, circuit_->size());
}
template <typename CircuitT, typename Ref>
inline size_t
OpRange<CircuitT, Ref>::size() const
{
    return circuit_->size();
}

/**
 * Embed a 1Q or 2Q gate into the full 2^n register unitary.
 * Exposed for tests and for the ideal-simulation path.
 */
Matrix embedUnitary(const Matrix& gate, Qubits qubits, int num_qubits);

} // namespace qiset

#endif // QISET_CIRCUIT_CIRCUIT_H
