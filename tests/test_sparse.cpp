#include <gtest/gtest.h>

#include <vector>

#include "sparse/block_csr.hpp"
#include "sparse/dense.hpp"
#include "sparse/vector_ops.hpp"
#include "util/rng.hpp"

namespace gs = geofem::sparse;

namespace {

/// Random SPD-ish 3x3 block (diagonally dominant).
void random_block(geofem::util::Rng& rng, double* b, double scale = 1.0) {
  for (int i = 0; i < 9; ++i) b[i] = scale * rng.uniform(-1.0, 1.0);
}

gs::BlockCSR tridiag_matrix(int n, geofem::util::Rng& rng) {
  gs::BlockCSRBuilder builder(n);
  for (int i = 0; i + 1 < n; ++i) {
    builder.add_pattern(i, i + 1);
    builder.add_pattern(i + 1, i);
  }
  builder.finalize_pattern();
  double blk[9];
  for (int i = 0; i < n; ++i) {
    random_block(rng, blk);
    // symmetrize and make the diagonal dominant
    for (int r = 0; r < 3; ++r)
      for (int c = 0; c < r; ++c) blk[3 * r + c] = blk[3 * c + r];
    blk[0] += 10;
    blk[4] += 10;
    blk[8] += 10;
    builder.add_block(i, i, blk);
    if (i + 1 < n) {
      random_block(rng, blk, 0.5);
      builder.add_block(i, i + 1, blk);
      double blkt[9];
      for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 3; ++c) blkt[3 * r + c] = blk[3 * c + r];
      builder.add_block(i + 1, i, blkt);
    }
  }
  return builder.take();
}

}  // namespace

TEST(Dense, B3InverseRoundTrip) {
  geofem::util::Rng rng(7);
  double a[9], inv[9];
  random_block(rng, a);
  a[0] += 5;
  a[4] += 5;
  a[8] += 5;
  ASSERT_TRUE(gs::b3_inverse(a, inv));
  double prod[9] = {};
  gs::b3_gemm(a, inv, prod);
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 3; ++c) EXPECT_NEAR(prod[3 * r + c], r == c ? 1.0 : 0.0, 1e-12);
}

TEST(Dense, B3InverseSingularFails) {
  double a[9] = {1, 2, 3, 2, 4, 6, 0, 0, 1};  // rank deficient
  double inv[9];
  EXPECT_FALSE(gs::b3_inverse(a, inv));
}

TEST(Dense, GemvMatchesManual) {
  double a[9] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  double x[3] = {1, -1, 2};
  double y[3] = {0, 0, 0};
  gs::b3_gemv(a, x, y);
  EXPECT_DOUBLE_EQ(y[0], 1 - 2 + 6);
  EXPECT_DOUBLE_EQ(y[1], 4 - 5 + 12);
  EXPECT_DOUBLE_EQ(y[2], 7 - 8 + 18);
}

TEST(Dense, GemvTransMatchesTranspose) {
  geofem::util::Rng rng(3);
  double a[9], x[3] = {0.3, -0.7, 1.1};
  random_block(rng, a);
  double y1[3] = {}, y2[3] = {};
  gs::b3_gemv_trans(a, x, y1);
  double at[9];
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 3; ++c) at[3 * r + c] = a[3 * c + r];
  gs::b3_gemv(at, x, y2);
  for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(y1[i], y2[i]);
}

TEST(DenseLU, SolvesRandomSystem) {
  geofem::util::Rng rng(11);
  const int n = 17;
  std::vector<double> a(static_cast<std::size_t>(n) * n);
  for (auto& v : a) v = rng.uniform(-1.0, 1.0);
  for (int i = 0; i < n; ++i) a[static_cast<std::size_t>(i) * n + i] += n;  // dominance
  std::vector<double> xref(n), b(n, 0.0);
  for (int i = 0; i < n; ++i) xref[static_cast<std::size_t>(i)] = rng.uniform(-2.0, 2.0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      b[static_cast<std::size_t>(i)] +=
          a[static_cast<std::size_t>(i) * n + j] * xref[static_cast<std::size_t>(j)];

  gs::DenseLU lu;
  ASSERT_TRUE(lu.factor(a.data(), n));
  lu.solve(b.data());
  for (int i = 0; i < n; ++i) EXPECT_NEAR(b[static_cast<std::size_t>(i)],
                                          xref[static_cast<std::size_t>(i)], 1e-10);
}

TEST(DenseLU, PivotsZeroDiagonal) {
  // Requires row swaps: leading diagonal entry is zero.
  double a[4] = {0, 1, 1, 0};
  gs::DenseLU lu;
  ASSERT_TRUE(lu.factor(a, 2));
  double x[2] = {3, 5};  // solves [[0,1],[1,0]] x = (3,5) -> x = (5,3)
  lu.solve(x);
  EXPECT_NEAR(x[0], 5.0, 1e-14);
  EXPECT_NEAR(x[1], 3.0, 1e-14);
}

TEST(DenseLU, SingularReturnsFalse) {
  double a[4] = {1, 2, 2, 4};
  gs::DenseLU lu;
  EXPECT_FALSE(lu.factor(a, 2));
}

TEST(BlockCSR, BuilderSortsAndDedups) {
  gs::BlockCSRBuilder builder(3);
  builder.add_pattern(0, 2);
  builder.add_pattern(0, 1);
  builder.add_pattern(0, 2);  // duplicate
  builder.finalize_pattern();
  double one[9] = {1, 0, 0, 0, 1, 0, 0, 0, 1};
  builder.add_block(0, 2, one);
  builder.add_block(0, 2, one);  // accumulates
  auto m = builder.take();
  ASSERT_EQ(m.n, 3);
  EXPECT_EQ(m.rowptr[1] - m.rowptr[0], 3);  // diag + 2
  const int e = m.find(0, 2);
  ASSERT_GE(e, 0);
  EXPECT_DOUBLE_EQ(m.block(e)[0], 2.0);
  EXPECT_EQ(m.find(0, 0), 0);  // sorted: diagonal first in row 0
  EXPECT_EQ(m.find(2, 0), -1);
}

TEST(BlockCSR, SpmvMatchesDense) {
  geofem::util::Rng rng(23);
  const int n = 9;
  auto m = tridiag_matrix(n, rng);

  std::vector<double> x(m.ndof()), y(m.ndof());
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  m.spmv(x, y);

  // dense reference
  std::vector<double> dense(m.ndof() * m.ndof(), 0.0);
  for (int i = 0; i < n; ++i)
    for (int e = m.rowptr[i]; e < m.rowptr[i + 1]; ++e)
      for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 3; ++c)
          dense[(static_cast<std::size_t>(3 * i + r)) * m.ndof() +
                static_cast<std::size_t>(3 * m.colind[e] + c)] = m.block(e)[3 * r + c];
  for (std::size_t r = 0; r < m.ndof(); ++r) {
    double acc = 0;
    for (std::size_t c = 0; c < m.ndof(); ++c) acc += dense[r * m.ndof() + c] * x[c];
    EXPECT_NEAR(acc, y[r], 1e-12);
  }
}

TEST(BlockCSR, SpmvCountsFlops) {
  geofem::util::Rng rng(5);
  auto m = tridiag_matrix(4, rng);
  std::vector<double> x(m.ndof(), 1.0), y(m.ndof());
  geofem::util::FlopCounter fc;
  m.spmv(x, y, &fc);
  EXPECT_EQ(fc.spmv, 18ULL * static_cast<std::uint64_t>(m.nnz_blocks()));
}

TEST(BlockCSR, SymmetryErrorDetectsAsymmetry) {
  geofem::util::Rng rng(31);
  auto m = tridiag_matrix(5, rng);
  EXPECT_NEAR(m.symmetry_error(), 0.0, 1e-15);
  // perturb one off-diagonal block
  const int e = m.find(1, 2);
  ASSERT_GE(e, 0);
  m.block(e)[1] += 0.25;
  EXPECT_NEAR(m.symmetry_error(), 0.25, 1e-12);
}

TEST(BlockCSR, GraphExcludesDiagonal) {
  geofem::util::Rng rng(17);
  auto m = tridiag_matrix(6, rng);
  auto g = gs::graph_of(m);
  ASSERT_EQ(g.n, 6);
  EXPECT_EQ(g.xadj[1] - g.xadj[0], 1);  // end row: one neighbour
  EXPECT_EQ(g.xadj[2] - g.xadj[1], 2);  // interior: two
  for (int i = 0; i < g.n; ++i)
    for (int e = g.xadj[i]; e < g.xadj[i + 1]; ++e) EXPECT_NE(g.adjncy[static_cast<std::size_t>(e)], i);
}

TEST(VectorOps, DotAxpyNorm) {
  std::vector<double> x{1, 2, 3}, y{4, 5, 6};
  geofem::util::FlopCounter fc;
  EXPECT_DOUBLE_EQ(gs::dot(x, y, &fc), 32.0);
  EXPECT_EQ(fc.blas1, 6u);
  gs::axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
  gs::xpby(x, 0.5, y);
  EXPECT_DOUBLE_EQ(y[0], 1 + 0.5 * 6);
  EXPECT_DOUBLE_EQ(gs::norm2(std::vector<double>{3.0, 4.0}), 5.0);
}
