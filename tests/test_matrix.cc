// Unit tests for the dense complex matrix type.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "qc/gates.h"
#include "qc/matrix.h"

namespace qiset {
namespace {

/** printf's "%.*f" rendering: the reference the cache keys keep. */
std::string
printfFixed(double value, int decimals)
{
    int len = std::snprintf(nullptr, 0, "%.*f", decimals, value);
    std::string out(static_cast<size_t>(len) + 1, '\0');
    std::snprintf(&out[0], out.size(), "%.*f", decimals, value);
    out.resize(static_cast<size_t>(len));
    return out;
}

/**
 * Values where a fixed-point renderer can differ from printf: signed
 * zeros, negatives that round to zero, exact ties at the ninth
 * decimal, neighbours of the rounding boundaries, huge magnitudes
 * and non-finite values, plus seeded random unitary-range entries.
 */
std::vector<double>
fixedFormatTable()
{
    std::vector<double> table = {
        0.0, -0.0, -1e-12, 1e-12, 5e-10, -5e-10, 4.9999999999e-10,
        1.0, -1.0, 0.5, 0.7071067811865476, -0.7071067811865476,
        3.14159265358979, 1e300, -1e300,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()};
    // k * 2^-12 has 12 binary fraction digits: ties at 9 decimals.
    for (int k = -4096; k <= 4096; k += 7)
        table.push_back(std::ldexp(static_cast<double>(k), -12));
    Rng rng(20261018);
    for (int i = 0; i < 2000; ++i) {
        double x = rng.uniform(-1.0, 1.0);
        table.push_back(x);
        // The ninth-decimal rounding boundary nearest x, and its
        // neighbours one ulp away.
        double boundary = (std::floor(x * 1e9) + 0.5) / 1e9;
        table.push_back(boundary);
        table.push_back(std::nextafter(boundary, 2.0));
        table.push_back(std::nextafter(boundary, -2.0));
    }
    return table;
}

TEST(QuantizedForm, FixedMatchesPrintfByteForByte)
{
    for (double value : fixedFormatTable()) {
        for (int decimals : {0, 3, 9, 17}) {
            std::string out = "prefix";
            appendFixed(out, value, decimals);
            EXPECT_EQ(out, "prefix" + printfFixed(value, decimals))
                << value << " at " << decimals << " decimals";
        }
    }
}

TEST(QuantizedForm, MatchesPrintfEntryRendering)
{
    std::vector<double> table = fixedFormatTable();
    Matrix m(4, 4);
    std::string reference;
    for (size_t e = 0; e < 16; ++e) {
        double re = table[(5 * e) % table.size()];
        double im = table[(5 * e + 3) % table.size()];
        m(e / 4, e % 4) = cplx(re, im);
        reference += printfFixed(re, 9) + "," + printfFixed(im, 9) + ";";
    }
    EXPECT_EQ(quantizedForm(m), reference);
    std::string appended = "key|";
    appendQuantizedForm(appended, m);
    EXPECT_EQ(appended, "key|" + reference);
}

TEST(Matrix, IdentityHasUnitDiagonal)
{
    Matrix id = Matrix::identity(4);
    for (size_t i = 0; i < 4; ++i)
        for (size_t j = 0; j < 4; ++j)
            EXPECT_EQ(id(i, j), (i == j ? cplx(1.0) : cplx(0.0)));
}

TEST(Matrix, InitializerListLayout)
{
    Matrix m{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 2u);
    EXPECT_EQ(m(0, 1), cplx(2.0));
    EXPECT_EQ(m(1, 0), cplx(3.0));
}

TEST(Matrix, MultiplicationMatchesHandComputation)
{
    Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    Matrix b{{5.0, 6.0}, {7.0, 8.0}};
    Matrix c = a * b;
    EXPECT_EQ(c(0, 0), cplx(19.0));
    EXPECT_EQ(c(0, 1), cplx(22.0));
    EXPECT_EQ(c(1, 0), cplx(43.0));
    EXPECT_EQ(c(1, 1), cplx(50.0));
}

TEST(Matrix, MultiplicationShapeMismatchThrows)
{
    Matrix a(2, 3), b(2, 2);
    EXPECT_THROW(a * b, FatalError);
}

TEST(Matrix, DaggerConjugatesAndTransposes)
{
    Matrix m{{cplx(1.0, 2.0), cplx(3.0, -1.0)},
             {cplx(0.0, 1.0), cplx(2.0, 0.0)}};
    Matrix d = m.dagger();
    EXPECT_EQ(d(0, 0), cplx(1.0, -2.0));
    EXPECT_EQ(d(0, 1), cplx(0.0, -1.0));
    EXPECT_EQ(d(1, 0), cplx(3.0, 1.0));
}

TEST(Matrix, TraceSumsDiagonal)
{
    Matrix m{{cplx(1.0, 1.0), 0.0}, {0.0, cplx(2.0, -3.0)}};
    EXPECT_EQ(m.trace(), cplx(3.0, -2.0));
}

TEST(Matrix, KroneckerProductOfPaulis)
{
    Matrix zz = gates::pauliZ().kron(gates::pauliZ());
    EXPECT_EQ(zz(0, 0), cplx(1.0));
    EXPECT_EQ(zz(1, 1), cplx(-1.0));
    EXPECT_EQ(zz(2, 2), cplx(-1.0));
    EXPECT_EQ(zz(3, 3), cplx(1.0));
    EXPECT_EQ(zz(0, 1), cplx(0.0));
}

TEST(Matrix, KroneckerDimensions)
{
    Matrix a(2, 3), b(4, 5);
    Matrix k = a.kron(b);
    EXPECT_EQ(k.rows(), 8u);
    EXPECT_EQ(k.cols(), 15u);
}

TEST(Matrix, FrobeniusNormOfIdentity)
{
    EXPECT_NEAR(Matrix::identity(4).frobeniusNorm(), 2.0, 1e-12);
}

TEST(Matrix, UnitaryDetection)
{
    EXPECT_TRUE(gates::hadamard().isUnitary());
    EXPECT_TRUE(gates::fsim(0.3, 1.1).isUnitary());
    Matrix not_unitary{{1.0, 1.0}, {0.0, 1.0}};
    EXPECT_FALSE(not_unitary.isUnitary());
}

TEST(Matrix, HermitianDetection)
{
    EXPECT_TRUE(gates::pauliY().isHermitian());
    EXPECT_FALSE(gates::sGate().isHermitian());
}

TEST(Matrix, TraceFidelityIsPhaseInvariant)
{
    Matrix u = gates::fsim(0.7, 0.2);
    Matrix v = u * cplx(std::cos(1.3), std::sin(1.3));
    EXPECT_NEAR(traceFidelity(u, v), 1.0, 1e-12);
}

TEST(Matrix, TraceFidelityDistinguishesGates)
{
    double f = traceFidelity(gates::cz(), gates::iswap());
    EXPECT_LT(f, 0.999);
    EXPECT_GE(f, 0.0);
}

TEST(Matrix, HilbertSchmidtOfIdenticalUnitaries)
{
    Matrix u = gates::sycamore();
    EXPECT_NEAR(std::abs(hilbertSchmidt(u, u)), 4.0, 1e-12);
}

TEST(Matrix, MaxAbsDiff)
{
    Matrix a = Matrix::identity(2);
    Matrix b = a;
    b(1, 1) = cplx(1.0, 0.5);
    EXPECT_NEAR(a.maxAbsDiff(b), 0.5, 1e-12);
}

TEST(Matrix, AdditionAndScaling)
{
    Matrix a = Matrix::identity(2);
    Matrix b = (a + a) * cplx(2.0);
    EXPECT_EQ(b(0, 0), cplx(4.0));
    a += b;
    EXPECT_EQ(a(1, 1), cplx(5.0));
}

// ---------------------------------------------------- small-buffer SBO

TEST(MatrixSbo, GateSizedMatricesLiveInline)
{
    EXPECT_TRUE(Matrix::identity(1).isInline());
    EXPECT_TRUE(gates::hadamard().isInline());      // 2x2
    EXPECT_TRUE(gates::sycamore().isInline());      // 4x4 == 16 elems
    EXPECT_FALSE(Matrix::identity(5).isInline());   // 25 > 16
    EXPECT_FALSE(Matrix(2, 16).isInline());
}

TEST(MatrixSbo, DataPointsIntoObjectForInlineStorage)
{
    Matrix m = gates::cz();
    const char* lo = reinterpret_cast<const char*>(&m);
    const char* hi = lo + sizeof(Matrix);
    const char* d = reinterpret_cast<const char*>(m.data());
    EXPECT_GE(d, lo);
    EXPECT_LT(d, hi);

    Matrix big = Matrix::identity(8);
    const char* bd = reinterpret_cast<const char*>(big.data());
    EXPECT_TRUE(bd < reinterpret_cast<const char*>(&big) ||
                bd >= reinterpret_cast<const char*>(&big) +
                          sizeof(Matrix));
}

TEST(MatrixSbo, InlineAndHeapRoundTripsAgree)
{
    // The same arithmetic through an inline 4x4 and a heap 5x5
    // embedding must agree on the shared 4x4 corner.
    Matrix small = gates::fsim(0.37, 0.81);
    Matrix big(5, 5);
    for (size_t i = 0; i < 4; ++i)
        for (size_t j = 0; j < 4; ++j)
            big(i, j) = small(i, j);
    big(4, 4) = 1.0;

    Matrix small_sq = small * small;
    Matrix big_sq = big * big;
    for (size_t i = 0; i < 4; ++i)
        for (size_t j = 0; j < 4; ++j)
            EXPECT_EQ(big_sq(i, j), small_sq(i, j));
}

TEST(MatrixSbo, CopyAndMoveSemantics)
{
    Matrix inline_src = gates::iswap();
    Matrix copy = inline_src;
    EXPECT_TRUE(copy.isInline());
    EXPECT_EQ(copy.maxAbsDiff(inline_src), 0.0);

    Matrix moved = std::move(copy);
    EXPECT_TRUE(moved.isInline());
    EXPECT_EQ(moved.maxAbsDiff(inline_src), 0.0);

    Matrix heap_src = Matrix::identity(6);
    heap_src(5, 0) = cplx(0.0, 2.0);
    const cplx* heap_buf = heap_src.data();
    Matrix heap_moved = std::move(heap_src);
    // Heap storage transfers by pointer steal.
    EXPECT_EQ(heap_moved.data(), heap_buf);
    EXPECT_EQ(heap_moved(5, 0), cplx(0.0, 2.0));

    // Assignment across storage classes in both directions.
    Matrix m = gates::cnot();
    m = Matrix::identity(7);
    EXPECT_FALSE(m.isInline());
    EXPECT_EQ(m(6, 6), cplx(1.0));
    m = gates::cnot();
    EXPECT_TRUE(m.isInline());
    EXPECT_EQ(m(3, 2), cplx(1.0));

    // Self-assignment keeps contents.
    Matrix& alias = m;
    m = alias;
    EXPECT_EQ(m(3, 2), cplx(1.0));
}

TEST(MatrixSbo, MovedFromMatrixIsReusable)
{
    Matrix a = Matrix::identity(6);
    Matrix b = std::move(a);
    a = gates::pauliX(); // must be safely assignable after the move
    EXPECT_TRUE(a.isInline());
    EXPECT_EQ(a(0, 1), cplx(1.0));
    EXPECT_EQ(b(5, 5), cplx(1.0));
}

TEST(MatrixSbo, MultiplyIntoMatchesOperatorStar)
{
    Matrix a = gates::fsim(1.2, 0.4);
    Matrix b = gates::sqrtIswap();
    Matrix expected = a * b;
    Matrix out;
    Matrix::multiplyInto(out, a, b);
    EXPECT_EQ(out.maxAbsDiff(expected), 0.0);

    // Reuse with a shape already matching (no reallocation path).
    Matrix::multiplyInto(out, b, a);
    EXPECT_EQ(out.maxAbsDiff(b * a), 0.0);

    // Heap-sized product and rectangular shapes.
    Matrix r1(3, 7), r2(7, 2);
    for (size_t i = 0; i < r1.size(); ++i)
        const_cast<cplx*>(r1.data())[i] = cplx(double(i), 0.5);
    for (size_t i = 0; i < r2.size(); ++i)
        const_cast<cplx*>(r2.data())[i] = cplx(0.25, double(i));
    Matrix rect;
    Matrix::multiplyInto(rect, r1, r2);
    EXPECT_EQ(rect.rows(), 3u);
    EXPECT_EQ(rect.cols(), 2u);
    EXPECT_EQ(rect.maxAbsDiff(r1 * r2), 0.0);
}

TEST(MatrixSbo, MultiplyIntoRejectsAliasing)
{
    Matrix a = gates::cz();
    Matrix b = gates::iswap();
    EXPECT_THROW(Matrix::multiplyInto(a, a, b), FatalError);
    EXPECT_THROW(Matrix::multiplyInto(b, a, b), FatalError);
}

} // namespace
} // namespace qiset
