#include "qc/matrix.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/error.h"
#include "qc/kernels.h"

namespace qiset {

namespace {

/** Dense multiply shared by operator* and multiplyInto: dispatches the
 *  2x2/4x4 hot shapes to the kernel layer (which zero-fills and
 *  reproduces this exact loop bit for bit) and keeps the generic loop
 *  for everything else. `out` must not alias `a` or `b` and must
 *  already have shape ar x bc. */
void
denseMultiply(cplx* out, const cplx* a, const cplx* b, size_t ar,
              size_t ac, size_t bc)
{
    if (ar == 4 && ac == 4 && bc == 4) {
        kernels::active().mul4x4(out, a, b);
        return;
    }
    if (ar == 2 && ac == 2 && bc == 2) {
        kernels::active().mul2x2(out, a, b);
        return;
    }
    std::fill(out, out + ar * bc, cplx(0.0, 0.0));
    for (size_t i = 0; i < ar; ++i) {
        for (size_t k = 0; k < ac; ++k) {
            cplx aik = a[i * ac + k];
            if (aik == cplx(0.0, 0.0))
                continue;
            for (size_t j = 0; j < bc; ++j)
                out[i * bc + j] += aik * b[k * bc + j];
        }
    }
}

} // namespace

void
Matrix::resizeStorage(size_t rows, size_t cols)
{
    size_t count = rows * cols;
    if (ptr_ != inline_)
        delete[] ptr_;
    ptr_ = count <= kInlineElems ? inline_ : new cplx[count];
    rows_ = rows;
    cols_ = cols;
}

Matrix::Matrix(size_t rows, size_t cols)
{
    resizeStorage(rows, cols);
    std::fill(ptr_, ptr_ + size(), cplx(0.0, 0.0));
}

Matrix::Matrix(std::initializer_list<std::initializer_list<cplx>> rows)
{
    size_t r = rows.size();
    size_t c = r ? rows.begin()->size() : 0;
    resizeStorage(r, c);
    cplx* out = ptr_;
    for (const auto& row : rows) {
        QISET_REQUIRE(row.size() == c, "ragged initializer list");
        for (const auto& value : row)
            *out++ = value;
    }
}

Matrix::Matrix(const Matrix& other)
{
    resizeStorage(other.rows_, other.cols_);
    std::copy(other.ptr_, other.ptr_ + size(), ptr_);
}

Matrix::Matrix(Matrix&& other) noexcept
    : rows_(other.rows_), cols_(other.cols_)
{
    if (other.ptr_ == other.inline_) {
        // Inline storage cannot move; copy the handful of elements.
        ptr_ = inline_;
        std::copy(other.ptr_, other.ptr_ + size(), ptr_);
    } else {
        ptr_ = other.ptr_;
        other.ptr_ = other.inline_;
    }
    other.rows_ = 0;
    other.cols_ = 0;
}

Matrix&
Matrix::operator=(const Matrix& other)
{
    if (this == &other)
        return *this;
    if (size() != other.size())
        resizeStorage(other.rows_, other.cols_);
    rows_ = other.rows_;
    cols_ = other.cols_;
    std::copy(other.ptr_, other.ptr_ + size(), ptr_);
    return *this;
}

Matrix&
Matrix::operator=(Matrix&& other) noexcept
{
    if (this == &other)
        return *this;
    if (other.ptr_ == other.inline_) {
        rows_ = other.rows_;
        cols_ = other.cols_;
        if (ptr_ != inline_) {
            delete[] ptr_;
            ptr_ = inline_;
        }
        std::copy(other.ptr_, other.ptr_ + size(), ptr_);
    } else {
        if (ptr_ != inline_)
            delete[] ptr_;
        ptr_ = other.ptr_;
        rows_ = other.rows_;
        cols_ = other.cols_;
        other.ptr_ = other.inline_;
    }
    other.rows_ = 0;
    other.cols_ = 0;
    return *this;
}

Matrix::~Matrix()
{
    if (ptr_ != inline_)
        delete[] ptr_;
}

void
Matrix::multiplyInto(Matrix& out, const Matrix& a, const Matrix& b)
{
    QISET_REQUIRE(a.cols_ == b.rows_, "shape mismatch in multiplyInto: ",
                  a.rows_, "x", a.cols_, " times ", b.rows_, "x",
                  b.cols_);
    QISET_REQUIRE(&out != &a && &out != &b,
                  "multiplyInto output must not alias an input");
    if (out.rows_ != a.rows_ || out.cols_ != b.cols_)
        out.resizeStorage(a.rows_, b.cols_);
    denseMultiply(out.ptr_, a.ptr_, b.ptr_, a.rows_, a.cols_, b.cols_);
}

Matrix
Matrix::identity(size_t n)
{
    Matrix m(n, n);
    for (size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

Matrix
Matrix::operator+(const Matrix& other) const
{
    QISET_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
                  "shape mismatch in +");
    Matrix out(rows_, cols_);
    for (size_t i = 0; i < size(); ++i)
        out.ptr_[i] = ptr_[i] + other.ptr_[i];
    return out;
}

Matrix
Matrix::operator-(const Matrix& other) const
{
    QISET_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
                  "shape mismatch in -");
    Matrix out(rows_, cols_);
    for (size_t i = 0; i < size(); ++i)
        out.ptr_[i] = ptr_[i] - other.ptr_[i];
    return out;
}

Matrix
Matrix::operator*(const Matrix& other) const
{
    QISET_REQUIRE(cols_ == other.rows_, "shape mismatch in *: ",
                  rows_, "x", cols_, " times ", other.rows_, "x",
                  other.cols_);
    Matrix out;
    out.resizeStorage(rows_, other.cols_);
    denseMultiply(out.ptr_, ptr_, other.ptr_, rows_, cols_,
                  other.cols_);
    return out;
}

Matrix
Matrix::operator*(cplx scalar) const
{
    Matrix out = *this;
    out *= scalar;
    return out;
}

Matrix&
Matrix::operator+=(const Matrix& other)
{
    QISET_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
                  "shape mismatch in +=");
    for (size_t i = 0; i < size(); ++i)
        ptr_[i] += other.ptr_[i];
    return *this;
}

Matrix&
Matrix::operator*=(cplx scalar)
{
    for (size_t i = 0; i < size(); ++i)
        ptr_[i] *= scalar;
    return *this;
}

Matrix
Matrix::dagger() const
{
    Matrix out;
    out.resizeStorage(cols_, rows_);
    if (rows_ == cols_ && (rows_ == 2 || rows_ == 4)) {
        kernels::active().dagger(out.ptr_, ptr_, rows_);
        return out;
    }
    for (size_t i = 0; i < rows_; ++i)
        for (size_t j = 0; j < cols_; ++j)
            out(j, i) = std::conj((*this)(i, j));
    return out;
}

Matrix
Matrix::transpose() const
{
    Matrix out(cols_, rows_);
    for (size_t i = 0; i < rows_; ++i)
        for (size_t j = 0; j < cols_; ++j)
            out(j, i) = (*this)(i, j);
    return out;
}

Matrix
Matrix::conjugate() const
{
    Matrix out(rows_, cols_);
    for (size_t i = 0; i < size(); ++i)
        out.ptr_[i] = std::conj(ptr_[i]);
    return out;
}

cplx
Matrix::trace() const
{
    QISET_REQUIRE(rows_ == cols_, "trace of non-square matrix");
    cplx sum(0.0, 0.0);
    for (size_t i = 0; i < rows_; ++i)
        sum += (*this)(i, i);
    return sum;
}

double
Matrix::frobeniusNorm() const
{
    double sum = 0.0;
    for (size_t i = 0; i < size(); ++i)
        sum += std::norm(ptr_[i]);
    return std::sqrt(sum);
}

double
Matrix::maxAbsDiff(const Matrix& other) const
{
    QISET_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
                  "shape mismatch in maxAbsDiff");
    double max_diff = 0.0;
    for (size_t i = 0; i < size(); ++i)
        max_diff = std::max(max_diff, std::abs(ptr_[i] - other.ptr_[i]));
    return max_diff;
}

bool
Matrix::isUnitary(double tol) const
{
    if (rows_ != cols_)
        return false;
    Matrix product = (*this) * dagger();
    return product.maxAbsDiff(identity(rows_)) < tol;
}

bool
Matrix::isHermitian(double tol) const
{
    if (rows_ != cols_)
        return false;
    return maxAbsDiff(dagger()) < tol;
}

Matrix
Matrix::kron(const Matrix& other) const
{
    Matrix out;
    kronInto(out, *this, other);
    return out;
}

void
Matrix::kronInto(Matrix& out, const Matrix& a, const Matrix& b)
{
    QISET_REQUIRE(&out != &a && &out != &b,
                  "kronInto output must not alias an input");
    size_t out_rows = a.rows_ * b.rows_;
    size_t out_cols = a.cols_ * b.cols_;
    if (out.rows_ != out_rows || out.cols_ != out_cols)
        out.resizeStorage(out_rows, out_cols);
    if (a.rows_ == 2 && a.cols_ == 2 && b.rows_ == 2 && b.cols_ == 2) {
        kernels::active().kron2x2(out.ptr_, a.ptr_, b.ptr_);
        return;
    }
    std::fill(out.ptr_, out.ptr_ + out.size(), cplx(0.0, 0.0));
    for (size_t i = 0; i < a.rows_; ++i)
        for (size_t j = 0; j < a.cols_; ++j) {
            cplx aij = a(i, j);
            if (aij == cplx(0.0, 0.0))
                continue;
            for (size_t k = 0; k < b.rows_; ++k)
                for (size_t l = 0; l < b.cols_; ++l)
                    out(i * b.rows_ + k, j * b.cols_ + l) =
                        aij * b(k, l);
        }
}

std::string
Matrix::toString(int precision) const
{
    std::string out;
    char buf[96];
    for (size_t i = 0; i < rows_; ++i) {
        out += "[ ";
        for (size_t j = 0; j < cols_; ++j) {
            const cplx& v = (*this)(i, j);
            std::snprintf(buf, sizeof(buf), "%+.*f%+.*fi  ", precision,
                          v.real(), precision, v.imag());
            out += buf;
        }
        out += "]\n";
    }
    return out;
}

std::string
quantizedForm(const Matrix& m, int decimals)
{
    std::string out;
    out.reserve(m.rows() * m.cols() * 24);
    appendQuantizedForm(out, m, decimals);
    return out;
}

void
appendFixed(std::string& out, double value, int decimals)
{
    // std::to_chars in fixed notation is correctly rounded (ties to
    // even on the exact binary value) and keeps the sign of -0 and of
    // negatives that round to zero — the bytes printf's "%.*f" gives,
    // at a fraction of its cost.
    char buf[64];
    auto [end, error] = std::to_chars(buf, buf + sizeof(buf), value,
                                      std::chars_format::fixed, decimals);
    if (error == std::errc()) {
        out.append(buf, end);
        return;
    }
    // Wider than the buffer (huge magnitudes or precisions): printf.
    int len = std::snprintf(nullptr, 0, "%.*f", decimals, value);
    size_t at = out.size();
    out.resize(at + static_cast<size_t>(len) + 1);
    std::snprintf(&out[at], static_cast<size_t>(len) + 1, "%.*f", decimals,
                  value);
    out.resize(at + static_cast<size_t>(len));
}

void
appendQuantizedForm(std::string& out, const Matrix& m, int decimals)
{
    for (size_t i = 0; i < m.rows(); ++i)
        for (size_t j = 0; j < m.cols(); ++j) {
            const cplx& v = m(i, j);
            appendFixed(out, v.real(), decimals);
            out += ',';
            appendFixed(out, v.imag(), decimals);
            out += ';';
        }
}

cplx
hilbertSchmidt(const Matrix& a, const Matrix& b)
{
    QISET_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
                  "shape mismatch in hilbertSchmidt");
    // Row-major linear order == the historical (i, j) double loop, so
    // the kernel's strictly-serial reduction matches it bit for bit.
    return kernels::active().hsDot(a.data(), b.data(),
                                   a.rows() * a.cols());
}

double
traceFidelity(const Matrix& a, const Matrix& b)
{
    return std::abs(hilbertSchmidt(a, b)) / static_cast<double>(a.rows());
}

} // namespace qiset
