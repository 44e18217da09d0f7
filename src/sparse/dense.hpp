#pragma once

#include <cmath>
#include <cstring>
#include <vector>

#include "simd/simd.hpp"
#include "util/check.hpp"

namespace geofem::sparse {

/// Block dimension. GeoFEM solid-mechanics problems carry 3 DOF (ux,uy,uz)
/// per finite-element node, so every sparse matrix in this library is a
/// 3x3-blocked matrix.
inline constexpr int kB = 3;
/// Doubles per 3x3 block (row-major).
inline constexpr int kBB = kB * kB;

// ---------------------------------------------------------------------------
// 3x3 block kernels. The gemv/apply family is templated on the scalar (all
// three operands at the same precision — double everywhere except the fp32
// DJDS substitution staging); the factorization-side kernels (gemm, inverse)
// stay double-only because factorization always runs in fp64.
// ---------------------------------------------------------------------------

/// y += A * x
template <class T>
inline void b3_gemv(const T* a, const T* x, T* y) {
  y[0] += a[0] * x[0] + a[1] * x[1] + a[2] * x[2];
  y[1] += a[3] * x[0] + a[4] * x[1] + a[5] * x[2];
  y[2] += a[6] * x[0] + a[7] * x[1] + a[8] * x[2];
}

/// y -= A * x
template <class T>
inline void b3_gemv_sub(const T* a, const T* x, T* y) {
  y[0] -= a[0] * x[0] + a[1] * x[1] + a[2] * x[2];
  y[1] -= a[3] * x[0] + a[4] * x[1] + a[5] * x[2];
  y[2] -= a[6] * x[0] + a[7] * x[1] + a[8] * x[2];
}

/// y += A^T * x
template <class T>
inline void b3_gemv_trans(const T* a, const T* x, T* y) {
  y[0] += a[0] * x[0] + a[3] * x[1] + a[6] * x[2];
  y[1] += a[1] * x[0] + a[4] * x[1] + a[7] * x[2];
  y[2] += a[2] * x[0] + a[5] * x[1] + a[8] * x[2];
}

/// C += A * B
inline void b3_gemm(const double* a, const double* b, double* c) {
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j)
      c[3 * i + j] += a[3 * i] * b[j] + a[3 * i + 1] * b[3 + j] + a[3 * i + 2] * b[6 + j];
}

/// C -= A * B
inline void b3_gemm_sub(const double* a, const double* b, double* c) {
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j)
      c[3 * i + j] -= a[3 * i] * b[j] + a[3 * i + 1] * b[3 + j] + a[3 * i + 2] * b[6 + j];
}

/// inv = A^-1 by cofactor expansion. Returns false if A is singular.
inline bool b3_inverse(const double* a, double* inv) {
  const double c00 = a[4] * a[8] - a[5] * a[7];
  const double c01 = a[5] * a[6] - a[3] * a[8];
  const double c02 = a[3] * a[7] - a[4] * a[6];
  const double det = a[0] * c00 + a[1] * c01 + a[2] * c02;
  if (det == 0.0 || !std::isfinite(det)) return false;
  const double id = 1.0 / det;
  inv[0] = c00 * id;
  inv[1] = (a[2] * a[7] - a[1] * a[8]) * id;
  inv[2] = (a[1] * a[5] - a[2] * a[4]) * id;
  inv[3] = c01 * id;
  inv[4] = (a[0] * a[8] - a[2] * a[6]) * id;
  inv[5] = (a[2] * a[3] - a[0] * a[5]) * id;
  inv[6] = c02 * id;
  inv[7] = (a[1] * a[6] - a[0] * a[7]) * id;
  inv[8] = (a[0] * a[4] - a[1] * a[3]) * id;
  return true;
}

/// y = A * x (overwrite)
template <class T>
inline void b3_apply(const T* a, const T* x, T* y) {
  y[0] = a[0] * x[0] + a[1] * x[1] + a[2] * x[2];
  y[1] = a[3] * x[0] + a[4] * x[1] + a[5] * x[2];
  y[2] = a[6] * x[0] + a[7] * x[1] + a[8] * x[2];
}

/// True iff the n x n row-major matrix is symmetric positive definite, by
/// attempted Cholesky factorization of a copy. Used by the incomplete
/// factorizations to detect when the modified-diagonal corrections have
/// over-subtracted (the block is then reset to its unmodified value — the
/// classic IC breakdown remedy; partial-pivoting LU alone cannot tell
/// indefiniteness from health).
inline bool is_spd(const double* a, int n) {
  std::vector<double> c(a, a + static_cast<std::size_t>(n) * n);
  for (int k = 0; k < n; ++k) {
    double d = c[static_cast<std::size_t>(k) * n + k];
    for (int m = 0; m < k; ++m) {
      const double l = c[static_cast<std::size_t>(k) * n + m];
      d -= l * l;
    }
    if (!(d > 0.0) || !std::isfinite(d)) return false;
    const double s = std::sqrt(d);
    c[static_cast<std::size_t>(k) * n + k] = s;
    for (int i = k + 1; i < n; ++i) {
      double v = c[static_cast<std::size_t>(i) * n + k];
      for (int m = 0; m < k; ++m)
        v -= c[static_cast<std::size_t>(i) * n + m] * c[static_cast<std::size_t>(k) * n + m];
      c[static_cast<std::size_t>(i) * n + k] = v / s;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Variable-size dense LU with partial pivoting. Used for the diagonal blocks
// of selective blocks (supernodes), whose size is 3*NB x 3*NB with NB the
// number of finite-element nodes in the contact group.
// ---------------------------------------------------------------------------
class DenseLU {
 public:
  DenseLU() = default;

  /// Factor the n x n row-major matrix `a` in place (copied internally).
  /// Returns false on singularity.
  bool factor(const double* a, int n) {
    n_ = n;
    lu_.assign(a, a + static_cast<std::size_t>(n) * n);
    piv_.resize(n);
    for (int k = 0; k < n; ++k) {
      int p = k;
      double best = std::fabs(lu_[idx(k, k)]);
      for (int i = k + 1; i < n; ++i) {
        const double v = std::fabs(lu_[idx(i, k)]);
        if (v > best) {
          best = v;
          p = i;
        }
      }
      if (best == 0.0 || !std::isfinite(best)) return false;
      piv_[k] = p;
      if (p != k) {
        for (int j = 0; j < n; ++j) std::swap(lu_[idx(k, j)], lu_[idx(p, j)]);
      }
      const double pivinv = 1.0 / lu_[idx(k, k)];
      for (int i = k + 1; i < n; ++i) {
        const double m = lu_[idx(i, k)] * pivinv;
        lu_[idx(i, k)] = m;
        if (m != 0.0) {
          double* ri = lu_.data() + idx(i, k + 1);
          const double* rk = lu_.data() + idx(k, k + 1);
          GEOFEM_PRAGMA_SIMD
          for (int j = 0; j < n - k - 1; ++j) ri[j] -= m * rk[j];
        }
      }
    }
    // Column-major mirror: solve() walks column k of the factor, which is
    // stride-n in lu_. Copying once here turns both substitution loops into
    // unit-stride axpy-style updates the lanes can stream.
    cm_.resize(lu_.size());
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i) cm_[static_cast<std::size_t>(j) * n + i] = lu_[idx(i, j)];
    return true;
  }

  /// Pre-size the storage of an n x n factor, so a later factor(a, n) — for
  /// instance on a worker thread — allocates nothing.
  void reserve(int n) {
    const auto nn = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
    lu_.reserve(nn);
    cm_.reserve(nn);
    piv_.reserve(static_cast<std::size_t>(n));
  }

  /// x := A^-1 x. Unit-stride over cm_ columns; per-element arithmetic is
  /// unchanged from the row-major version, so off/omp builds reproduce the
  /// historical bits.
  void solve(double* x) const {
    const int n = n_;
    for (int k = 0; k < n; ++k) {
      if (piv_[k] != k) std::swap(x[k], x[piv_[k]]);
      const double* col = cm_.data() + static_cast<std::size_t>(k) * n;
      const double xk = x[k];
      GEOFEM_PRAGMA_SIMD
      for (int i = k + 1; i < n; ++i) x[i] -= col[i] * xk;
    }
    for (int k = n - 1; k >= 0; --k) {
      const double* col = cm_.data() + static_cast<std::size_t>(k) * n;
      const double xk = (x[k] /= col[k]);
      GEOFEM_PRAGMA_SIMD
      for (int i = 0; i < k; ++i) x[i] -= col[i] * xk;
    }
  }

  [[nodiscard]] int size() const { return n_; }

  /// Row-major factor of PA (L unit-lower below the diagonal, U on/above)
  /// and the pivot rows — exposed for the lane-batched 3x3 solve packs
  /// (simd/lu3.hpp), which replay this exact pivoted solve across lanes.
  [[nodiscard]] const double* factor() const { return lu_.data(); }
  [[nodiscard]] const std::vector<int>& pivots() const { return piv_; }

  /// Algorithmic FLOPs for one solve() call (2n^2).
  [[nodiscard]] std::uint64_t solve_flops() const {
    return 2ULL * static_cast<std::uint64_t>(n_) * static_cast<std::uint64_t>(n_);
  }

  /// Bytes held by the factorization (row-major factor + column mirror).
  [[nodiscard]] std::size_t memory_bytes() const {
    return (lu_.size() + cm_.size()) * sizeof(double) + piv_.size() * sizeof(int);
  }

 private:
  [[nodiscard]] std::size_t idx(int i, int j) const {
    return static_cast<std::size_t>(i) * n_ + j;
  }

  int n_ = 0;
  simd::aligned_vector<double> lu_;
  simd::aligned_vector<double> cm_;  ///< column-major mirror of lu_ for solve()
  std::vector<int> piv_;
};

/// Read-only solve mirror of a DenseLU at stored precision T (DESIGN.md §5i).
/// Factorization always happens in fp64 (DenseLU); this narrows the
/// column-major factor once so repeated solves stream half the bytes when
/// T = float. solve() replays the exact pivoted substitution of
/// DenseLU::solve with the arithmetic carried in the staging scalar U —
/// float for the fp32 DJDS staging path, double when an fp32-stored factor
/// is applied against fp64 vectors on the CSR path.
///
/// Narrowing a factor whose magnitudes exceed the float range produces inf
/// coefficients; the constructor records that (`overflowed()`) instead of
/// throwing so callers in the precond layer can surface it as their own
/// kFactorizationFailed — the deterministic fp32 breakdown trigger.
template <class T>
class DenseSolveT {
 public:
  DenseSolveT() = default;

  explicit DenseSolveT(const DenseLU& lu) : n_(lu.size()) {
    const int n = n_;
    cm_.resize(static_cast<std::size_t>(n) * n);
    piv_ = lu.pivots();
    const double* f = lu.factor();
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i) {
        const double v = f[static_cast<std::size_t>(i) * n + j];
        const T t = static_cast<T>(v);
        if (!std::isfinite(static_cast<double>(t)) && std::isfinite(v)) overflowed_ = true;
        cm_[static_cast<std::size_t>(j) * n + i] = t;
      }
  }

  /// x := A^-1 x, substitution arithmetic in U.
  template <class U>
  void solve(U* x) const {
    const int n = n_;
    for (int k = 0; k < n; ++k) {
      if (piv_[k] != k) std::swap(x[k], x[piv_[k]]);
      const T* col = cm_.data() + static_cast<std::size_t>(k) * n;
      const U xk = x[k];
      GEOFEM_PRAGMA_SIMD
      for (int i = k + 1; i < n; ++i) x[i] -= col[i] * xk;
    }
    for (int k = n - 1; k >= 0; --k) {
      const T* col = cm_.data() + static_cast<std::size_t>(k) * n;
      const U xk = (x[k] /= col[k]);
      GEOFEM_PRAGMA_SIMD
      for (int i = 0; i < k; ++i) x[i] -= col[i] * xk;
    }
  }

  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] bool overflowed() const { return overflowed_; }
  [[nodiscard]] std::uint64_t solve_flops() const {
    return 2ULL * static_cast<std::uint64_t>(n_) * static_cast<std::uint64_t>(n_);
  }
  [[nodiscard]] std::size_t memory_bytes() const {
    return cm_.size() * sizeof(T) + piv_.size() * sizeof(int);
  }

 private:
  int n_ = 0;
  simd::aligned_vector<T> cm_;  ///< column-major narrowed factor
  std::vector<int> piv_;
  bool overflowed_ = false;
};

}  // namespace geofem::sparse
