#include "circuit/circuit.h"

#include <atomic>
#include <utility>

#include "circuit/schedule.h"
#include "common/error.h"

namespace qiset {

namespace {

/** Stamps each thread takes from the global counter at a time. */
constexpr uint64_t kStampBlock = 4096;

/** Next unissued block start; 0 is never issued. */
std::atomic<uint64_t> next_stamp_block{1};

} // namespace

uint64_t
StructureStamp::draw()
{
    thread_local uint64_t next = 0;
    thread_local uint64_t end = 0;
    if (next == end) {
        next = next_stamp_block.fetch_add(kStampBlock);
        end = next + kStampBlock;
    }
    return next++;
}

Circuit::Circuit(int num_qubits)
    : num_qubits_(num_qubits)
{
    QISET_REQUIRE(num_qubits >= 1, "circuit needs at least one qubit");
}

void
Circuit::validateQubit(int qubit) const
{
    QISET_REQUIRE(qubit >= 0 && qubit < num_qubits_, "qubit ", qubit,
                  " out of range for ", num_qubits_, "-qubit circuit");
}

void
Circuit::validateOp(Qubits qubits, const Matrix& unitary) const
{
    validateQubit(qubits[0]);
    if (qubits.isTwoQubit()) {
        validateQubit(qubits[1]);
        QISET_REQUIRE(qubits[0] != qubits[1], "2Q op on identical qubits");
        QISET_REQUIRE(unitary.rows() == 4 && unitary.cols() == 4,
                      "2Q op needs a 4x4 unitary");
    } else {
        QISET_REQUIRE(unitary.rows() == 2 && unitary.cols() == 2,
                      "1Q op needs a 2x2 unitary");
    }
}

UnitaryId
Circuit::storeUnitary(const Matrix& unitary)
{
    QISET_REQUIRE(unitary.rows() == unitary.cols() &&
                      (unitary.rows() == 2 || unitary.rows() == 4),
                  "stored unitaries are 2x2 or 4x4, not ", unitary.rows(),
                  "x", unitary.cols());
    unitaries_.push_back(unitary);
    return static_cast<UnitaryId>(unitaries_.size() - 1);
}

void
Circuit::pushOp(Qubits qubits, const Matrix& unitary, LabelId label,
                double error_rate, double duration_ns)
{
    validateOp(qubits, unitary);
    appendOp(qubits, storeUnitary(unitary), label, error_rate,
             duration_ns);
}

void
Circuit::pushOp(Qubits qubits, UnitaryId unitary, LabelId label,
                double error_rate, double duration_ns)
{
    size_t entry = static_cast<size_t>(unitary);
    QISET_REQUIRE(entry < unitaries_.size(), "unitary id ", entry,
                  " out of range for a table of ", unitaries_.size());
    validateOp(qubits, unitaries_[entry]);
    appendOp(qubits, unitary, label, error_rate, duration_ns);
}

void
Circuit::appendOp(Qubits qubits, UnitaryId unitary, LabelId label,
                  double error_rate, double duration_ns)
{
    two_qubit_count_ += qubits.isTwoQubit();
    qubits_.push_back(qubits);
    labels_.push_back(label);
    unitary_ids_.push_back(unitary);
    error_rates_.push_back(error_rate);
    durations_.push_back(duration_ns);
    stamp_.renew();
}

void
Circuit::add1q(int qubit, const Matrix& unitary, const std::string& label)
{
    pushOp(Qubits(qubit), unitary, internLabel(label), 0.0, 0.0);
}

void
Circuit::add1q(int qubit, const Matrix& unitary, LabelId label,
               double error_rate, double duration_ns)
{
    pushOp(Qubits(qubit), unitary, label, error_rate, duration_ns);
}

void
Circuit::add2q(int qubit_a, int qubit_b, const Matrix& unitary,
               const std::string& label)
{
    pushOp(Qubits(qubit_a, qubit_b), unitary, internLabel(label), 0.0,
           0.0);
}

void
Circuit::add2q(int qubit_a, int qubit_b, const Matrix& unitary,
               LabelId label, double error_rate, double duration_ns)
{
    pushOp(Qubits(qubit_a, qubit_b), unitary, label, error_rate,
           duration_ns);
}

void
Circuit::add1q(int qubit, UnitaryId unitary, LabelId label,
               double error_rate, double duration_ns)
{
    pushOp(Qubits(qubit), unitary, label, error_rate, duration_ns);
}

void
Circuit::add2q(int qubit_a, int qubit_b, UnitaryId unitary, LabelId label,
               double error_rate, double duration_ns)
{
    pushOp(Qubits(qubit_a, qubit_b), unitary, label, error_rate,
           duration_ns);
}

void
Circuit::add(Operation op)
{
    pushOp(op.qubits, op.unitary, internLabel(op.label), op.error_rate,
           op.duration_ns);
}

void
Circuit::add(ConstOpRef op)
{
    pushOp(op.qubits(), op.unitary(), op.labelId(), op.errorRate(),
           op.durationNs());
}

void
Circuit::add(ConstOpRef op, Qubits remapped)
{
    QISET_REQUIRE(remapped.size() == op.qubits().size(),
                  "remapped operand count differs from source op");
    pushOp(remapped, op.unitary(), op.labelId(), op.errorRate(),
           op.durationNs());
}

void
Circuit::append(const Circuit& other)
{
    QISET_REQUIRE(other.num_qubits_ <= num_qubits_,
                  "appended circuit is wider than target");
    reserveOps(other.size());
    for (size_t i = 0; i < other.size(); ++i)
        pushOp(other.qubits_[i], other.opUnitary(i), other.labels_[i],
               other.error_rates_[i], other.durations_[i]);
}

void
Circuit::reserveOps(size_t ops, size_t unitaries)
{
    size_t total = qubits_.size() + ops;
    qubits_.reserve(total);
    labels_.reserve(total);
    unitary_ids_.reserve(total);
    error_rates_.reserve(total);
    durations_.reserve(total);
    unitaries_.reserve(unitaries_.size() + unitaries);
}

void
OpRef::setUnitary(const Matrix& unitary) const
{
    circuit_->validateOp(circuit_->qubits_[index_], unitary);
    circuit_->unitary_ids_[index_] = circuit_->storeUnitary(unitary);
}

int
Circuit::countLabel(const std::string& label) const
{
    LabelId id = LabelTable::global().find(label);
    if (id == kInvalidLabel)
        return 0;
    int count = 0;
    for (LabelId l : labels_)
        count += (l == id);
    return count;
}

int
Circuit::depth() const
{
    return Schedule(*this).depth();
}

double
Circuit::scheduledDurationNs() const
{
    return Schedule(*this).durationNs();
}

Matrix
embedUnitary(const Matrix& gate, Qubits qubits, int num_qubits)
{
    size_t dim = size_t{1} << num_qubits;
    Matrix full(dim, dim);

    if (qubits.size() == 1) {
        int shift = num_qubits - 1 - qubits[0];
        size_t mask = size_t{1} << shift;
        for (size_t col = 0; col < dim; ++col) {
            size_t base = col & ~mask;
            size_t in_bit = (col & mask) ? 1 : 0;
            for (size_t out_bit = 0; out_bit < 2; ++out_bit) {
                cplx amp = gate(out_bit, in_bit);
                if (amp == cplx(0.0, 0.0))
                    continue;
                size_t row = base | (out_bit ? mask : 0);
                full(row, col) += amp;
            }
        }
        return full;
    }

    QISET_REQUIRE(qubits.size() == 2, "embedUnitary handles 1 or 2 qubits");
    int shift_a = num_qubits - 1 - qubits[0];
    int shift_b = num_qubits - 1 - qubits[1];
    size_t mask_a = size_t{1} << shift_a;
    size_t mask_b = size_t{1} << shift_b;
    for (size_t col = 0; col < dim; ++col) {
        size_t base = col & ~(mask_a | mask_b);
        size_t in_idx =
            (((col & mask_a) ? 1 : 0) << 1) | ((col & mask_b) ? 1 : 0);
        for (size_t out_idx = 0; out_idx < 4; ++out_idx) {
            cplx amp = gate(out_idx, in_idx);
            if (amp == cplx(0.0, 0.0))
                continue;
            size_t row = base | ((out_idx & 2) ? mask_a : 0) |
                         ((out_idx & 1) ? mask_b : 0);
            full(row, col) += amp;
        }
    }
    return full;
}

Matrix
Circuit::unitary() const
{
    QISET_REQUIRE(num_qubits_ <= 12,
                  "full unitary limited to 12 qubits (",
                  num_qubits_, " requested)");
    size_t dim = size_t{1} << num_qubits_;
    Matrix result = Matrix::identity(dim);
    // Ping-pong between result and a product buffer so the loop runs
    // allocation-free after the first op (multiplyInto reuses the
    // 2^n x 2^n buffers instead of materializing fresh temporaries).
    Matrix embedded, product;
    for (size_t i = 0; i < size(); ++i) {
        embedded = embedUnitary(opUnitary(i), qubits_[i], num_qubits_);
        Matrix::multiplyInto(product, embedded, result);
        std::swap(product, result);
    }
    return result;
}

std::string
Circuit::toString() const
{
    std::string out;
    for (size_t i = 0; i < size(); ++i) {
        out += labelName(labels_[i]);
        out += " q";
        out += std::to_string(qubits_[i][0]);
        if (qubits_[i].isTwoQubit()) {
            out += ", q";
            out += std::to_string(qubits_[i][1]);
        }
        out += '\n';
    }
    return out;
}

} // namespace qiset
