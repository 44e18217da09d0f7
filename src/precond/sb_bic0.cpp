#include "precond/sb_bic0.hpp"

#include <algorithm>
#include <map>

#include "core/status.hpp"
#include "obs/span.hpp"
#include "simd/block3.hpp"
#include "simd/multirhs.hpp"
#include "simd/simd.hpp"
#include "util/check.hpp"

// GCC 12 emits a false-positive -Waggressive-loop-optimizations here: after
// inlining DenseLU into the factorization it reasons about the (impossible)
// case of a selective block with ~2^31 rows. Block dimensions are 3 * group
// size (single digits in practice, bounded by the node count regardless).
#pragma GCC diagnostic ignored "-Waggressive-loop-optimizations"

namespace geofem::precond {

using sparse::kB;
using sparse::kBB;

std::size_t SBSymbolic::memory_bytes() const {
  return (dims.size() + intra_entry.size() + coup_ptr.size() + coup_k.size() +
          gather_entry.size()) *
             sizeof(int) +
         (intra_ptr.size() + intra_off.size() + gather_ptr.size() + gather_off.size()) *
             sizeof(std::int64_t);
}

std::shared_ptr<const SBSymbolic> sb_symbolic(const sparse::BlockCSR& a,
                                              const contact::Supernodes& sn, bool modified) {
  GEOFEM_CHECK(static_cast<int>(sn.node_to_super.size()) == a.n, "supernode map size mismatch");
  obs::ScopedSpan span("precond.symbolic.SB-BIC(0)");
  const int ns = sn.count();
  auto out = std::make_shared<SBSymbolic>();
  SBSymbolic& sym = *out;
  sym.n = a.n;
  sym.modified = modified;
  sym.dims.resize(static_cast<std::size_t>(ns));
  for (int s = 0; s < ns; ++s)
    sym.dims[static_cast<std::size_t>(s)] = kB * static_cast<int>(sn.members[static_cast<std::size_t>(s)].size());

  // position of each node inside its supernode
  std::vector<int> pos_in_super(static_cast<std::size_t>(a.n), 0);
  for (int s = 0; s < ns; ++s) {
    const auto& mem = sn.members[static_cast<std::size_t>(s)];
    for (std::size_t t = 0; t < mem.size(); ++t)
      pos_in_super[static_cast<std::size_t>(mem[static_cast<std::size_t>(t)])] = static_cast<int>(t);
  }

  sym.intra_ptr.assign(static_cast<std::size_t>(ns) + 1, 0);
  sym.coup_ptr.assign(static_cast<std::size_t>(ns) + 1, 0);
  sym.gather_ptr.assign(1, 0);
  for (int s = 0; s < ns; ++s) {
    const auto& mem = sn.members[static_cast<std::size_t>(s)];
    const int m = static_cast<int>(mem.size());
    const int dim = sym.dims[static_cast<std::size_t>(s)];
    // Map matrix entries to their dense positions; group coupling entries per
    // earlier neighbour K (ascending — the elimination order of corrections).
    std::map<int, std::vector<std::pair<int, int>>> earlier;  // K -> [(entry, row-pos)]
    for (int t = 0; t < m; ++t) {
      const int i = mem[static_cast<std::size_t>(t)];
      for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e) {
        const int j = a.colind[e];
        const int sj = sn.node_to_super[static_cast<std::size_t>(j)];
        if (!modified && sj != s) continue;
        if (sj == s) {
          const int tj = pos_in_super[static_cast<std::size_t>(j)];
          sym.intra_entry.push_back(e);
          sym.intra_off.push_back(static_cast<std::int64_t>(kB * t) * dim + kB * tj);
        } else if (sj < s) {
          earlier[sj].emplace_back(e, t);
        }
      }
    }
    sym.intra_ptr[static_cast<std::size_t>(s) + 1] = static_cast<std::int64_t>(sym.intra_entry.size());
    for (const auto& [k, entries] : earlier) {
      const int dimk = sym.dims[static_cast<std::size_t>(k)];
      sym.coup_k.push_back(k);
      for (const auto& [e, t] : entries) {
        const int tj = pos_in_super[static_cast<std::size_t>(a.colind[e])];
        sym.gather_entry.push_back(e);
        sym.gather_off.push_back(static_cast<std::int64_t>(kB * t) * dimk + kB * tj);
      }
      sym.gather_ptr.push_back(static_cast<std::int64_t>(sym.gather_entry.size()));
    }
    sym.coup_ptr[static_cast<std::size_t>(s) + 1] = static_cast<int>(sym.coup_k.size());
  }
  return out;
}

std::vector<sparse::DenseLU> sb_factor_numeric(const sparse::BlockCSR& a, const SBSymbolic& sym) {
  GEOFEM_CHECK(sym.n == a.n, "SB-BIC(0): symbolic/matrix size mismatch");
  obs::ScopedSpan span("precond.numeric.SB-BIC(0)");
  const int ns = static_cast<int>(sym.dims.size());
  std::vector<sparse::DenseLU> lu_(static_cast<std::size_t>(ns));

  // Factor supernodes in ascending id order with BIC(0)-style diagonal
  // corrections restricted to the original inter-supernode pattern. The
  // scatter order and correction order follow the schedule, which preserves
  // the cold factorization's arithmetic exactly.
  std::vector<double> dwork, awork, twork, col;
  for (int s = 0; s < ns; ++s) {
    const int dim = sym.dims[static_cast<std::size_t>(s)];
    dwork.assign(static_cast<std::size_t>(dim) * dim, 0.0);

    // Gather A_SS.
    for (std::int64_t q = sym.intra_ptr[static_cast<std::size_t>(s)];
         q < sym.intra_ptr[static_cast<std::size_t>(s) + 1]; ++q) {
      const double* blk = a.block(sym.intra_entry[static_cast<std::size_t>(q)]);
      double* dst = dwork.data() + sym.intra_off[static_cast<std::size_t>(q)];
      for (int r = 0; r < kB; ++r)
        for (int c = 0; c < kB; ++c)
          dst[static_cast<std::size_t>(r) * dim + static_cast<std::size_t>(c)] = blk[kB * r + c];
    }

    // D~_S -= A_SK * D~_K^-1 * A_SK^T for each earlier neighbour K.
    for (int ci = sym.coup_ptr[static_cast<std::size_t>(s)];
         ci < sym.coup_ptr[static_cast<std::size_t>(s) + 1]; ++ci) {
      const int k = sym.coup_k[static_cast<std::size_t>(ci)];
      const int dimk = sym.dims[static_cast<std::size_t>(k)];
      // dense A_SK (dim x dimk)
      awork.assign(static_cast<std::size_t>(dim) * dimk, 0.0);
      for (std::int64_t q = sym.gather_ptr[static_cast<std::size_t>(ci)];
           q < sym.gather_ptr[static_cast<std::size_t>(ci) + 1]; ++q) {
        const double* blk = a.block(sym.gather_entry[static_cast<std::size_t>(q)]);
        double* dst = awork.data() + sym.gather_off[static_cast<std::size_t>(q)];
        for (int r = 0; r < kB; ++r)
          for (int c = 0; c < kB; ++c)
            dst[static_cast<std::size_t>(r) * dimk + static_cast<std::size_t>(c)] = blk[kB * r + c];
      }
      // T = D~_K^-1 * A_SK^T, column by column of A_SK^T (i.e. row of A_SK)
      twork.assign(static_cast<std::size_t>(dimk) * dim, 0.0);
      col.resize(static_cast<std::size_t>(dimk));
      for (int r = 0; r < dim; ++r) {
        for (int c = 0; c < dimk; ++c)
          col[static_cast<std::size_t>(c)] = awork[static_cast<std::size_t>(r) * dimk + static_cast<std::size_t>(c)];
        lu_[static_cast<std::size_t>(k)].solve(col.data());
        for (int c = 0; c < dimk; ++c)
          twork[static_cast<std::size_t>(c) * dim + static_cast<std::size_t>(r)] = col[static_cast<std::size_t>(c)];
      }
      // D~_S -= A_SK * T
      for (int r = 0; r < dim; ++r)
        for (int c = 0; c < dim; ++c) {
          double acc = 0.0;
          for (int q = 0; q < dimk; ++q)
            acc += awork[static_cast<std::size_t>(r) * dimk + static_cast<std::size_t>(q)] *
                   twork[static_cast<std::size_t>(q) * dim + static_cast<std::size_t>(c)];
          dwork[static_cast<std::size_t>(r) * dim + static_cast<std::size_t>(c)] -= acc;
        }
    }

    // Over-subtraction / breakdown remedy: if the corrected block is no
    // longer SPD (which would make M indefinite and break CG) or fails to
    // factor, retry with the uncorrected diagonal block A_SS.
    if (!sparse::is_spd(dwork.data(), dim) ||
        !lu_[static_cast<std::size_t>(s)].factor(dwork.data(), dim)) {
      dwork.assign(static_cast<std::size_t>(dim) * dim, 0.0);
      for (std::int64_t q = sym.intra_ptr[static_cast<std::size_t>(s)];
           q < sym.intra_ptr[static_cast<std::size_t>(s) + 1]; ++q) {
        const double* blk = a.block(sym.intra_entry[static_cast<std::size_t>(q)]);
        double* dst = dwork.data() + sym.intra_off[static_cast<std::size_t>(q)];
        for (int r = 0; r < kB; ++r)
          for (int c = 0; c < kB; ++c)
            dst[static_cast<std::size_t>(r) * dim + static_cast<std::size_t>(c)] = blk[kB * r + c];
      }
      if (!lu_[static_cast<std::size_t>(s)].factor(dwork.data(), dim))
        throw Error(StatusCode::kFactorizationFailed, "SB-BIC(0): singular selective block");
    }
  }
  return lu_;
}

std::vector<sparse::DenseLU> sb_factor_diagonals(const sparse::BlockCSR& a,
                                                 const contact::Supernodes& sn, bool modified) {
  return sb_factor_numeric(a, *sb_symbolic(a, sn, modified));
}

SBBIC0::SBBIC0(const sparse::BlockCSR& a, contact::Supernodes sn, bool modified,
               Precision precision)
    : a_(a), sn_(std::move(sn)), precision_(precision) {
  obs::ScopedSpan span("precond.factor.SB-BIC(0)");
  for (const auto& mem : sn_.members)
    max_block_ = std::max(max_block_, static_cast<int>(mem.size()));
  lu_ = sb_factor_diagonals(a, sn_, modified);
  build_schedules();
  narrow_storage();
}

SBBIC0::SBBIC0(const sparse::BlockCSR& a, contact::Supernodes sn,
               std::shared_ptr<const SBSymbolic> sym, Precision precision)
    : a_(a), sn_(std::move(sn)), precision_(precision) {
  GEOFEM_CHECK(sym && sym->n == a.n, "SBBIC0: symbolic/matrix size mismatch");
  obs::ScopedSpan span("precond.factor.SB-BIC(0)");
  for (const auto& mem : sn_.members)
    max_block_ = std::max(max_block_, static_cast<int>(mem.size()));
  lu_ = sb_factor_numeric(a, *sym);
  build_schedules();
  narrow_storage();
}

void SBBIC0::narrow_storage() {
  lu_solve_flops_ = 0.0;
  for (const auto& lu : lu_) lu_solve_flops_ += lu.solve_flops();
  if (precision_ != Precision::kSingle) return;
  // Narrow the per-supernode dense factors and the matrix value mirror the
  // sweeps stream; the fp64 factors are dropped — an fp32 build that cannot
  // represent them is a breakdown, not a silent fallback.
  lu32_.reserve(lu_.size());
  for (const auto& lu : lu_) {
    lu32_.emplace_back(lu);
    if (lu32_.back().overflowed())
      throw Error(StatusCode::kFactorizationFailed,
                  "fp32 narrowing overflow in selective-block factors");
  }
  narrow_or_throw(std::span<const double>(a_.val.data(), a_.val.size()), aval32_);
  lu_.clear();
  lu_.shrink_to_fit();
}

void SBBIC0::build_schedules() {
  // Supernode dependency levels for the hybrid apply, plus the structural
  // per-supernode coupling counts the apply reports as loop/FLOP stats.
  const int ns = sn_.count();
  fwd_len_.assign(static_cast<std::size_t>(ns), 0);
  bwd_len_.assign(static_cast<std::size_t>(ns), 0);
  std::vector<int> lev(static_cast<std::size_t>(ns), 0);
  for (int s = 0; s < ns; ++s) {
    int l = 0, len = 0;
    for (int i : sn_.members[static_cast<std::size_t>(s)]) {
      for (int e = a_.rowptr[i]; e < a_.rowptr[i + 1]; ++e) {
        const int sj = sn_.node_to_super[static_cast<std::size_t>(a_.colind[e])];
        if (sj >= s) continue;
        l = std::max(l, lev[static_cast<std::size_t>(sj)] + 1);
        ++len;
      }
    }
    lev[static_cast<std::size_t>(s)] = l;
    fwd_len_[static_cast<std::size_t>(s)] = len;
  }
  fwd_ = par::schedule_from_levels(lev);
  for (int s = ns - 1; s >= 0; --s) {
    int l = 0, len = 0;
    for (int i : sn_.members[static_cast<std::size_t>(s)]) {
      for (int e = a_.rowptr[i]; e < a_.rowptr[i + 1]; ++e) {
        const int sj = sn_.node_to_super[static_cast<std::size_t>(a_.colind[e])];
        if (sj <= s) continue;
        l = std::max(l, lev[static_cast<std::size_t>(sj)] + 1);
        ++len;
      }
    }
    lev[static_cast<std::size_t>(s)] = l;
    bwd_len_[static_cast<std::size_t>(s)] = len;
  }
  bwd_ = par::schedule_from_levels(lev);
  coupled_ = 0;
  for (int s = 0; s < ns; ++s)
    coupled_ += static_cast<std::uint64_t>(fwd_len_[static_cast<std::size_t>(s)]) +
                static_cast<std::uint64_t>(bwd_len_[static_cast<std::size_t>(s)]);
}

std::size_t SBBIC0::staging_stride(int columns) const {
  // Rounded up to a whole 64-byte line: in the line-aligned staging buffer,
  // neighbouring slots never share one.
  constexpr std::size_t kLine = 64 / sizeof(double);
  const std::size_t n =
      static_cast<std::size_t>(columns) * kB * static_cast<std::size_t>(max_block_);
  return (n + kLine - 1) / kLine * kLine;
}

template <class Acc, class T, class LuVec>
void SBBIC0::apply_impl(const T* aval, const LuVec& lus, const double* r, double* z,
                        int team) const {
  const auto& a = a_;
  const auto& sn = sn_;
  // Staging owned by this call: one slot per team thread, padded to a cache
  // line, each fully rewritten per supernode. DenseLU::solve is const and
  // safe to call concurrently.
  const std::size_t stride = staging_stride(1);
  simd::aligned_vector<double> staging(stride * static_cast<std::size_t>(std::max(team, 1)));
  // forward: z_S = D~_S^-1 (r_S - sum_{K<S} A_SK z_K). Supernodes of one
  // dependency level are independent; per-supernode arithmetic is the serial
  // sweep's (for the accumulator in use), so the result is bit-identical for
  // any team size.
  par::for_levels(fwd_, team, [&](int s, int slot) {
    const auto& mem = sn.members[static_cast<std::size_t>(s)];
    double* acc = staging.data() + static_cast<std::size_t>(slot) * stride;
    for (std::size_t t = 0; t < mem.size(); ++t) {
      const int i = mem[t];
      Acc ai;
      ai.init(r + static_cast<std::size_t>(i) * kB);
      for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e) {
        const int j = a.colind[e];
        if (sn.node_to_super[static_cast<std::size_t>(j)] >= s) continue;
        ai.msub(aval + static_cast<std::size_t>(e) * kBB, z + static_cast<std::size_t>(j) * kB);
      }
      ai.reduce(acc + t * kB);
    }
    lus[static_cast<std::size_t>(s)].solve(acc);
    for (std::size_t t = 0; t < mem.size(); ++t) {
      double* zi = z + static_cast<std::size_t>(mem[t]) * kB;
      zi[0] = acc[t * kB];
      zi[1] = acc[t * kB + 1];
      zi[2] = acc[t * kB + 2];
    }
  });
  // backward: z_S -= D~_S^-1 sum_{K>S} A_SK z_K
  par::for_levels(bwd_, team, [&](int s, int slot) {
    const auto& mem = sn.members[static_cast<std::size_t>(s)];
    double* acc = staging.data() + static_cast<std::size_t>(slot) * stride;
    for (std::size_t t = 0; t < mem.size(); ++t) {
      const int i = mem[t];
      Acc ai;
      ai.init_zero();
      for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e) {
        const int j = a.colind[e];
        if (sn.node_to_super[static_cast<std::size_t>(j)] <= s) continue;
        ai.madd(aval + static_cast<std::size_t>(e) * kBB, z + static_cast<std::size_t>(j) * kB);
      }
      ai.reduce(acc + t * kB);
    }
    lus[static_cast<std::size_t>(s)].solve(acc);
    for (std::size_t t = 0; t < mem.size(); ++t) {
      double* zi = z + static_cast<std::size_t>(mem[t]) * kB;
      zi[0] -= acc[t * kB];
      zi[1] -= acc[t * kB + 1];
      zi[2] -= acc[t * kB + 2];
    }
  });
}

void SBBIC0::apply(std::span<const double> r, std::span<double> z, util::FlopCounter* flops,
                   util::LoopStats* loops) const {
  const auto& a = a_;
  const auto& sn = sn_;
  GEOFEM_CHECK(r.size() == a.ndof() && z.size() == a.ndof(), "SB-BIC0 apply size mismatch");

  const int team = par::threads();
  if (precision_ == Precision::kSingle) {
#if GEOFEM_SIMD_HAS_AVX2
    if (simd::active() == simd::Isa::kAvx2) {
      apply_impl<simd::AvxAcc3T<float>>(aval32_.data(), lu32_, r.data(), z.data(), team);
    } else
#endif
    {
      apply_impl<simd::ScalarAcc3T<float>>(aval32_.data(), lu32_, r.data(), z.data(), team);
    }
  } else {
#if GEOFEM_SIMD_HAS_AVX2
    if (simd::active() == simd::Isa::kAvx2) {
      apply_impl<simd::AvxAcc3>(a.val.data(), lu_, r.data(), z.data(), team);
    } else
#endif
    {
      apply_impl<simd::ScalarAcc3>(a.val.data(), lu_, r.data(), z.data(), team);
    }
  }
  // Stats are pattern-derived; record serially in the serial order.
  if (loops) {
    for (int s = 0; s < sn.count(); ++s)
      loops->record(fwd_len_[static_cast<std::size_t>(s)] + 1);
    for (int s = sn.count() - 1; s >= 0; --s)
      loops->record(bwd_len_[static_cast<std::size_t>(s)] + 1);
  }
  if (flops) {
    flops->precond += 2ULL * kBB * coupled_;
    flops->precond += static_cast<std::uint64_t>(2.0 * lu_solve_flops_);
  }
}

template <bool UseAvx, class T, class LuVec>
void SBBIC0::apply_multi_impl(const T* aval, const LuVec& lus, const double* r, double* z,
                              int k, int team) const {
  const auto& a = a_;
  const auto& sn = sn_;
  const std::size_t rk = static_cast<std::size_t>(kB) * static_cast<std::size_t>(k);
  // Staging owned by this call, one slot per team thread: the supernode
  // accumulator `accm` holds dim rows of k columns interleaved
  // ([dof-in-super][col]); `colm` is the contiguous single-column copy each
  // dense solve runs on.
  const std::size_t stride = staging_stride(k + 1);
  simd::aligned_vector<double> staging(stride * static_cast<std::size_t>(std::max(team, 1)));
  const std::size_t col_offset = stride - static_cast<std::size_t>(kB * max_block_);
  par::for_levels(fwd_, team, [&](int s, int slot) {
    const auto& mem = sn.members[static_cast<std::size_t>(s)];
    const int dim = kB * static_cast<int>(mem.size());
    double* accm = staging.data() + static_cast<std::size_t>(slot) * stride;
    double* colm = accm + col_offset;
    for (std::size_t t = 0; t < mem.size(); ++t) {
      const int i = mem[t];
      double* at = accm + t * rk;
      const double* ri = r + static_cast<std::size_t>(i) * rk;
      for (std::size_t c = 0; c < rk; ++c) at[c] = ri[c];
      for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e) {
        const int j = a.colind[e];
        if (sn.node_to_super[static_cast<std::size_t>(j)] >= s) continue;
        simd::b3k_msub<T, UseAvx>(aval + static_cast<std::size_t>(e) * kBB,
                                  z + static_cast<std::size_t>(j) * rk, at, k);
      }
    }
    for (int c = 0; c < k; ++c) {
      for (int d = 0; d < dim; ++d)
        colm[static_cast<std::size_t>(d)] = accm[static_cast<std::size_t>(d) * k + c];
      lus[static_cast<std::size_t>(s)].solve(colm);
      for (int d = 0; d < dim; ++d)
        accm[static_cast<std::size_t>(d) * k + c] = colm[static_cast<std::size_t>(d)];
    }
    for (std::size_t t = 0; t < mem.size(); ++t) {
      double* zi = z + static_cast<std::size_t>(mem[t]) * rk;
      const double* at = accm + t * rk;
      for (std::size_t c = 0; c < rk; ++c) zi[c] = at[c];
    }
  });
  par::for_levels(bwd_, team, [&](int s, int slot) {
    const auto& mem = sn.members[static_cast<std::size_t>(s)];
    const int dim = kB * static_cast<int>(mem.size());
    const std::size_t dk = static_cast<std::size_t>(dim) * static_cast<std::size_t>(k);
    double* accm = staging.data() + static_cast<std::size_t>(slot) * stride;
    double* colm = accm + col_offset;
    for (std::size_t c = 0; c < dk; ++c) accm[c] = 0.0;
    for (std::size_t t = 0; t < mem.size(); ++t) {
      const int i = mem[t];
      double* at = accm + t * rk;
      for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e) {
        const int j = a.colind[e];
        if (sn.node_to_super[static_cast<std::size_t>(j)] <= s) continue;
        simd::b3k_madd<T, UseAvx>(aval + static_cast<std::size_t>(e) * kBB,
                                  z + static_cast<std::size_t>(j) * rk, at, k);
      }
    }
    for (int c = 0; c < k; ++c) {
      for (int d = 0; d < dim; ++d)
        colm[static_cast<std::size_t>(d)] = accm[static_cast<std::size_t>(d) * k + c];
      lus[static_cast<std::size_t>(s)].solve(colm);
      for (int d = 0; d < dim; ++d)
        accm[static_cast<std::size_t>(d) * k + c] = colm[static_cast<std::size_t>(d)];
    }
    for (std::size_t t = 0; t < mem.size(); ++t) {
      double* zi = z + static_cast<std::size_t>(mem[t]) * rk;
      const double* at = accm + t * rk;
      for (std::size_t c = 0; c < rk; ++c) zi[c] -= at[c];
    }
  });
}

void SBBIC0::apply_multi(std::span<const double> r, std::span<double> z, int k,
                         util::FlopCounter* flops, util::LoopStats* loops) const {
  GEOFEM_CHECK(k >= 1 && k <= simd::kMaxMultiRhs, "SB-BIC0 apply_multi: bad column count");
  GEOFEM_CHECK(r.size() == a_.ndof() * static_cast<std::size_t>(k) && r.size() == z.size(),
               "SB-BIC0 apply_multi size mismatch");
  const int team = par::threads();
  const bool avx2 = simd::active() == simd::Isa::kAvx2;
  (void)avx2;
  if (precision_ == Precision::kSingle) {
#if GEOFEM_SIMD_HAS_AVX2
    if (avx2) {
      apply_multi_impl<true>(aval32_.data(), lu32_, r.data(), z.data(), k, team);
    } else
#endif
    {
      apply_multi_impl<false>(aval32_.data(), lu32_, r.data(), z.data(), k, team);
    }
  } else {
#if GEOFEM_SIMD_HAS_AVX2
    if (avx2) {
      apply_multi_impl<true>(a_.val.data(), lu_, r.data(), z.data(), k, team);
    } else
#endif
    {
      apply_multi_impl<false>(a_.val.data(), lu_, r.data(), z.data(), k, team);
    }
  }
  // One schedule walk: loop stats match the single apply; FLOPs scale by k.
  if (loops) {
    for (int s = 0; s < sn_.count(); ++s)
      loops->record(fwd_len_[static_cast<std::size_t>(s)] + 1);
    for (int s = sn_.count() - 1; s >= 0; --s)
      loops->record(bwd_len_[static_cast<std::size_t>(s)] + 1);
  }
  if (flops) {
    flops->precond += 2ULL * kBB * coupled_ * static_cast<std::uint64_t>(k);
    flops->precond +=
        static_cast<std::uint64_t>(2.0 * lu_solve_flops_) * static_cast<std::uint64_t>(k);
  }
}

std::size_t SBBIC0::memory_bytes() const {
  std::size_t bytes = aval32_.size() * sizeof(float);
  for (const auto& lu : lu_) bytes += lu.memory_bytes();
  for (const auto& lu : lu32_) bytes += lu.memory_bytes();
  return bytes;
}

}  // namespace geofem::precond
