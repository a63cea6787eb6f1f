#ifndef QISET_QC_MATRIX_H
#define QISET_QC_MATRIX_H

/**
 * @file
 * Dense complex matrices.
 *
 * QISET works almost exclusively with 2x2 and 4x4 unitaries (quantum
 * gates) plus 2^n state vectors, so a simple row-major dense matrix
 * with value semantics is the right tool; no sparse machinery needed.
 *
 * Storage uses a small-buffer optimization: matrices of up to 16
 * elements (every 1Q/2Q gate, every KAK local factor — the compile hot
 * path's entire matrix traffic) live inline in the Matrix object and
 * never touch the heap; larger matrices (full register unitaries,
 * density matrices) fall back to a heap allocation. Consequence for
 * code holding data(): the pointer aims into the object itself for
 * small matrices, so moving or copying the Matrix does NOT transfer
 * pointer validity the way a moved std::vector buffer would — re-fetch
 * data() after any move/copy/resize.
 */

#include <complex>
#include <cstddef>
#include <initializer_list>
#include <string>

namespace qiset {

/** Complex scalar type used throughout QISET. */
using cplx = std::complex<double>;

/** Dense row-major complex matrix with value semantics (SBO <= 16). */
class Matrix
{
  public:
    /** Elements held inline without a heap allocation (covers 4x4). */
    static constexpr size_t kInlineElems = 16;

    /** Empty 0x0 matrix. */
    Matrix() = default;

    /** Zero-initialized rows x cols matrix. */
    Matrix(size_t rows, size_t cols);

    /** Build from nested initializer lists (row major). */
    Matrix(std::initializer_list<std::initializer_list<cplx>> rows);

    Matrix(const Matrix& other);
    Matrix(Matrix&& other) noexcept;
    Matrix& operator=(const Matrix& other);
    Matrix& operator=(Matrix&& other) noexcept;
    ~Matrix();

    /** The n x n identity. */
    static Matrix identity(size_t n);

    /** n x n matrix of zeros. */
    static Matrix zeros(size_t n) { return Matrix(n, n); }

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }

    /** Element count rows() * cols(). */
    size_t size() const { return rows_ * cols_; }

    /** True when the elements live inline (no heap allocation). */
    bool isInline() const { return ptr_ == inline_; }

    /** Element access (row, col), bounds unchecked in release builds. */
    cplx& operator()(size_t r, size_t c) { return ptr_[r * cols_ + c]; }
    const cplx&
    operator()(size_t r, size_t c) const
    {
        return ptr_[r * cols_ + c];
    }

    /**
     * Raw row-major storage. For matrices of <= kInlineElems elements
     * this points into the Matrix object itself (see the SBO caveat in
     * the file comment); never retain it across a move/copy/resize.
     */
    const cplx* data() const { return ptr_; }

    Matrix operator+(const Matrix& other) const;
    Matrix operator-(const Matrix& other) const;
    Matrix operator*(const Matrix& other) const;
    Matrix operator*(cplx scalar) const;
    Matrix& operator+=(const Matrix& other);
    Matrix& operator*=(cplx scalar);

    /**
     * out = a * b without materializing a temporary: out's storage is
     * reshaped (reusing its buffer when the shape already matches) and
     * overwritten. `out` must not alias `a` or `b`. The hot-loop
     * companion of operator* for consolidation/template products.
     */
    static void multiplyInto(Matrix& out, const Matrix& a,
                             const Matrix& b);

    /**
     * out = a ⊗ b without materializing a temporary (same reshape and
     * aliasing rules as multiplyInto). 2x2 ⊗ 2x2 — the template
     * circuit's u3-pair construction — takes the kernel fast path.
     */
    static void kronInto(Matrix& out, const Matrix& a, const Matrix& b);

    /** Conjugate transpose. */
    Matrix dagger() const;

    /** Transpose (no conjugation). */
    Matrix transpose() const;

    /** Elementwise complex conjugate. */
    Matrix conjugate() const;

    /** Sum of diagonal elements. */
    cplx trace() const;

    /** Frobenius norm sqrt(sum |a_ij|^2). */
    double frobeniusNorm() const;

    /** Max elementwise |a_ij - b_ij| between two matrices. */
    double maxAbsDiff(const Matrix& other) const;

    /** True if U * U^dagger == I within tol. */
    bool isUnitary(double tol = 1e-9) const;

    /** True if A == A^dagger within tol. */
    bool isHermitian(double tol = 1e-9) const;

    /** Kronecker product (this ⊗ other). */
    Matrix kron(const Matrix& other) const;

    /** Multi-line human-readable rendering (for examples/debugging). */
    std::string toString(int precision = 3) const;

  private:
    /**
     * Point ptr_ at storage for rows*cols elements — the inline buffer
     * when it fits, a fresh heap block otherwise. Frees any previous
     * heap block; elements are left uninitialized.
     */
    void resizeStorage(size_t rows, size_t cols);

    size_t rows_ = 0;
    size_t cols_ = 0;
    /** Aims at inline_ (SBO) or a heap block of size() elements. */
    cplx* ptr_ = inline_;
    cplx inline_[kInlineElems];
};

/**
 * Entry-wise fixed-point rendering "re,im;re,im;..." with the given
 * decimal precision. This is the canonical quantized form of a
 * matrix: the decomposition profile cache keys on it and the NuOp
 * multistart seeding hashes it, so "equal up to rounding" means the
 * same thing in both places (a prerequisite for bit-identical
 * parallel and serial compilation).
 */
std::string quantizedForm(const Matrix& m, int decimals = 9);

/**
 * Append quantizedForm(m, decimals) to `out` without constructing a
 * temporary string — the allocation-free building block the profile
 * cache uses to assemble lookup keys in a reused buffer.
 */
void appendQuantizedForm(std::string& out, const Matrix& m,
                         int decimals = 9);

/**
 * Append `value` with `decimals` fixed decimals, byte-identical to
 * printf's "%.*f" (the number format of every quantized cache key).
 */
void appendFixed(std::string& out, double value, int decimals);

/** Hilbert-Schmidt inner product Tr(A^dagger B). */
cplx hilbertSchmidt(const Matrix& a, const Matrix& b);

/**
 * Phase-invariant unitary overlap |Tr(A^dagger B)| / dim.
 * Equals 1 iff A == B up to a global phase; this is the decomposition
 * fidelity F_d of Eq. (1) in the paper.
 */
double traceFidelity(const Matrix& a, const Matrix& b);

} // namespace qiset

#endif // QISET_QC_MATRIX_H
