#include "precond/djds_bic.hpp"

#include <algorithm>

#include "core/status.hpp"
#include "obs/span.hpp"
#include "par/par.hpp"
#include "reorder/coloring.hpp"
#include "util/check.hpp"

namespace geofem::precond {

using sparse::kB;
using sparse::kBB;

namespace {

/// Fig 22 singleton batching at lane width `lanes`: runs of consecutive 3x3
/// units of one chunk split into groups of at most `lanes`.
std::vector<DJDSSymbolic::Group> singleton_groups(std::span<const DJDSSymbolic::Unit> units,
                                                  int lanes) {
  std::vector<DJDSSymbolic::Group> out;
  for (std::size_t t = 0; t < units.size();) {
    if (units[t].size != 1) {
      ++t;
      continue;
    }
    std::size_t end = t;
    while (end < units.size() && units[end].size == 1) ++end;
    for (std::size_t g = t; g < end; g += static_cast<std::size_t>(lanes))
      out.push_back({units[g].id,
                     static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(lanes),
                                                            end - g))});
    t = end;
  }
  return out;
}

/// Pack the singleton groups of one chunk lane-wise from the unit factors.
template <class Pack>
void pack_groups(const std::vector<DJDSSymbolic::Group>& groups,
                 const std::vector<DJDSSymbolic::Unit>& units,
                 const std::vector<sparse::DenseLU>& lu, Pack& pack) {
  for (const auto& g : groups) {
    const sparse::DenseLU* lus[Pack::kLanes] = {};
    for (int l = 0; l < g.count; ++l) lus[l] = &lu[static_cast<std::size_t>(g.first + l)];
    simd::pack_lu3_group(pack, lus, g.count, units[static_cast<std::size_t>(g.first)].start);
  }
}

}  // namespace

std::size_t DJDSSymbolic::memory_bytes() const {
  std::size_t bytes = units.size() * sizeof(Unit) + chunk_ptr.size() * sizeof(int);
  for (const auto& g : groups4) bytes += g.size() * sizeof(Group);
  for (const auto& g : groups8) bytes += g.size() * sizeof(Group);
  for (const auto& r : rest) bytes += r.size() * sizeof(Unit);
  return bytes;
}

std::shared_ptr<const DJDSSymbolic> djds_symbolic(const reorder::DJDSMatrix& dj) {
  auto out = std::make_shared<DJDSSymbolic>();
  DJDSSymbolic& sym = *out;
  sym.n = dj.n();

  // Units per chunk in new-row order (supernode ranges or singletons); unit
  // id == elimination order.
  const int nchunks = dj.num_colors() * dj.npe();
  sym.chunk_ptr.assign(static_cast<std::size_t>(nchunks) + 1, 0);
  for (int ch = 0; ch < nchunks; ++ch) {
    const int b = dj.chunk_begin()[static_cast<std::size_t>(ch)];
    const int e = dj.chunk_begin()[static_cast<std::size_t>(ch) + 1];
    for (int i = b; i < e;) {
      const int r = dj.range_of_row(i);
      const int size = r >= 0 ? dj.super_ranges()[static_cast<std::size_t>(r)].size : 1;
      if (size > 1) sym.has_blocks = true;
      sym.units.push_back({i, size, static_cast<int>(sym.units.size())});
      i += size;
    }
    sym.chunk_ptr[static_cast<std::size_t>(ch) + 1] = static_cast<int>(sym.units.size());
  }

  sym.groups4.resize(static_cast<std::size_t>(nchunks));
  sym.groups8.resize(static_cast<std::size_t>(nchunks));
  sym.rest.resize(static_cast<std::size_t>(nchunks));
  for (int ch = 0; ch < nchunks; ++ch) {
    const auto units = sym.chunk_units(ch);
    sym.groups4[static_cast<std::size_t>(ch)] =
        singleton_groups(units, simd::PackedLU3T<double>::kLanes);
    sym.groups8[static_cast<std::size_t>(ch)] =
        singleton_groups(units, simd::PackedLU3T<float>::kLanes);
    for (const auto& u : units)
      if (u.size != 1) sym.rest[static_cast<std::size_t>(ch)].push_back(u);
  }

  // Structural loop statistics + FLOPs of one apply() sweep: every jagged
  // diagonal loop (forward + backward) and the same-size selective-block
  // solve batches (Fig 22 vectorization across equal-size dense blocks).
  for (int ch = 0; ch < nchunks; ++ch) {
    for (const auto* part : {&dj.lower(ch), &dj.upper(ch)}) {
      for (int j = 0; j < part->num_jd(); ++j) {
        const int len = part->jd_ptr[static_cast<std::size_t>(j) + 1] -
                        part->jd_ptr[static_cast<std::size_t>(j)];
        if (len > 0) sym.jagged_loops.record(len);
        sym.apply_flops += 2ULL * kBB * static_cast<std::uint64_t>(len);
      }
    }
    const auto units = sym.chunk_units(ch);
    for (std::size_t t = 0; t < units.size();) {
      std::size_t end = t;
      while (end < units.size() && units[end].size == units[t].size) ++end;
      sym.batch_loops.record(static_cast<std::int64_t>(end - t), 2);  // fwd + bwd
      t = end;
    }
  }
  for (const auto& u : sym.units) {
    // One dense solve of dimension 3*size costs 2*dim^2 FLOPs (DenseLU).
    const std::uint64_t dim = static_cast<std::uint64_t>(kB) * static_cast<std::uint64_t>(u.size);
    sym.apply_flops += 2 * (2ULL * dim * dim);
    sym.block_solve_flops += 2.0 * static_cast<double>(2ULL * dim * dim);
  }
  sym.struct_loops.merge(sym.jagged_loops);
  sym.struct_loops.merge(sym.batch_loops);
  return out;
}

DJDSBIC::DJDSBIC(const reorder::DJDSMatrix& dj, std::shared_ptr<const DJDSSymbolic> sym,
                 Precision precision)
    : dj_(dj), sym_(std::move(sym)), precision_(precision) {
  GEOFEM_CHECK(sym_ != nullptr && sym_->n == dj.n(), "DJDSBIC: symbolic/layout size mismatch");
  obs::ScopedSpan span("precond.factor.DJDS-BIC");
  const int team = par::threads();
  const auto& units = sym_->units;
  const auto nu = static_cast<std::ptrdiff_t>(units.size());
  const int nchunks = static_cast<int>(sym_->chunk_ptr.size()) - 1;

  // Unmodified SB-BIC(0): D~_S = A_SS, so every unit is factored from its own
  // diagonal block as DJDSMatrix::refill left it — no permuted matrix copy.
  // The calling thread sizes every factor first, so the workers only
  // compute and all long-lived storage comes from one allocator arena.
  lu_.resize(units.size());
  for (const Unit& u : units) lu_[static_cast<std::size_t>(u.id)].reserve(kB * u.size);
  int singular = 0;
#pragma omp parallel for schedule(static) num_threads(team) if (team > 1) \
    reduction(+ : singular)
  for (std::ptrdiff_t t = 0; t < nu; ++t) {
    const Unit& u = units[static_cast<std::size_t>(t)];
    const double* a_ss =
        u.size == 1 ? dj.diag(u.start) : dj.super_dense(dj.range_of_row(u.start)).data();
    if (!lu_[static_cast<std::size_t>(t)].factor(a_ss, kB * u.size)) ++singular;
  }
  if (singular > 0)
    throw Error(StatusCode::kFactorizationFailed, "SB-BIC(0): singular selective block");

  // fp32 storage: narrow the unit LU factors and the jagged values once at
  // set-up (factorization itself ran in fp64 above). Overflow while
  // narrowing is this precision's "breakdown" — surfaced exactly like a
  // failed pivot so the precision-fallback layer re-sets-up at fp64.
  if (precision_ == Precision::kSingle) {
    lu32_.reserve(lu_.size());
    for (const auto& lu : lu_) {
      lu32_.emplace_back(lu);
      if (lu32_.back().overflowed())
        throw Error(StatusCode::kFactorizationFailed,
                    "fp32 narrowing overflow in selective-block factors");
    }
    f32_.resize(static_cast<std::size_t>(nchunks));
    for (int ch = 0; ch < nchunks; ++ch) {
      auto& f = f32_[static_cast<std::size_t>(ch)];
      const auto& lo = dj.lower(ch);
      const auto& up = dj.upper(ch);
      narrow_or_throw(lo.val, f.lower_val);
      narrow_or_throw(up.val, f.upper_val);
      simd::pack_jagged(lo.jd_ptr, lo.item, f.lower_val.data(), f.lower_packed);
      simd::pack_jagged(up.jd_ptr, up.item, f.upper_val.data(), f.upper_packed);
    }
  }

#if GEOFEM_SIMD_HAS_AVX2
  // Pack the singleton batches one SIMD register wide (4 lanes for fp64, 8
  // for fp32) from the fresh factors; chunks are independent, and each
  // pack is sized here so the workers only fill it.
  const auto pack_all = [&](const std::vector<std::vector<DJDSSymbolic::Group>>& groups,
                            auto& packs) {
    packs.resize(static_cast<std::size_t>(nchunks));
    for (int ch = 0; ch < nchunks; ++ch) {
      auto& pk = packs[static_cast<std::size_t>(ch)];
      const std::size_t ng = groups[static_cast<std::size_t>(ch)].size();
      pk.coef.reserve(ng * static_cast<std::size_t>(pk.kGroupCoefs));
      pk.start.reserve(ng);
      pk.cnt.reserve(ng);
    }
#pragma omp parallel for schedule(dynamic) num_threads(team) if (team > 1)
    for (int ch = 0; ch < nchunks; ++ch)
      pack_groups(groups[static_cast<std::size_t>(ch)], units, lu_,
                  packs[static_cast<std::size_t>(ch)]);
  };
  if (precision_ == Precision::kSingle)
    pack_all(sym_->groups8, chunk_lu3f_);
  else
    pack_all(sym_->groups4, chunk_lu3_);
#endif
}

void DJDSBIC::apply(std::span<const double> r, std::span<double> z, util::FlopCounter* flops,
                    util::LoopStats* loops) const {
  const int n = dj_.n();
  GEOFEM_CHECK(static_cast<int>(r.size()) == n * kB && static_cast<int>(z.size()) == n * kB,
               "DJDSBIC apply size mismatch");
  if (precision_ == Precision::kSingle) {
    apply_f32(r, z);
    if (flops) flops->precond += sym_->apply_flops;
    if (loops) loops->merge(sym_->struct_loops);
    return;
  }
  const int npe = dj_.npe();
  const int team = par::threads();
  // Kernel tier read once, outside the parallel regions.
  const bool avx2 = simd::active() == simd::Isa::kAvx2;
  (void)avx2;

  // forward: per color (sequential), per PE chunk (parallel):
  //   z_chunk = r_chunk - L_chunk * z(earlier colors); unit solves in place.
  // The jagged gathers only read rows of earlier colors (colors are
  // independent sets), never the chunk being written, so the lower sweep can
  // run whole diagonals at a time.
  for (int c = 0; c < dj_.num_colors(); ++c) {
#pragma omp parallel for schedule(static) num_threads(team) if (team > 1)
    for (int p = 0; p < npe; ++p) {
      const int ch = dj_.chunk_index(c, p);
      const int b = dj_.chunk_begin()[static_cast<std::size_t>(ch)];
      const int e = dj_.chunk_begin()[static_cast<std::size_t>(ch) + 1];
      for (int i = b * kB; i < e * kB; ++i) z[static_cast<std::size_t>(i)] = r[static_cast<std::size_t>(i)];
      const auto& part = dj_.lower(ch);
#if GEOFEM_SIMD_HAS_AVX2
      if (avx2) {
        simd::sweep_avx2<simd::Mode::kSub>(part.packed, z.data(),
                                           z.data() + static_cast<std::size_t>(b) * kB);
      } else
#endif
      for (int j = 0; j < part.num_jd(); ++j) {
        const int s = part.jd_ptr[static_cast<std::size_t>(j)];
        const int t1 = part.jd_ptr[static_cast<std::size_t>(j) + 1];
        GEOFEM_PRAGMA_SIMD
        for (int t = s; t < t1; ++t) {
          sparse::b3_gemv_sub(
              part.val.data() + static_cast<std::size_t>(t) * kBB,
              z.data() + static_cast<std::size_t>(part.item[static_cast<std::size_t>(t)]) * kB,
              z.data() + static_cast<std::size_t>(b + (t - s)) * kB);
        }
      }
#if GEOFEM_SIMD_HAS_AVX2
      if (avx2) {
        simd::solve_lu3_avx2(chunk_lu3_[static_cast<std::size_t>(ch)], z.data());
        for (const Unit& u : sym_->rest[static_cast<std::size_t>(ch)])
          lu_[static_cast<std::size_t>(u.id)].solve(z.data() +
                                                    static_cast<std::size_t>(u.start) * kB);
      } else
#endif
      for (const Unit& u : sym_->chunk_units(ch))
        lu_[static_cast<std::size_t>(u.id)].solve(z.data() + static_cast<std::size_t>(u.start) * kB);
    }
  }

  // backward: z_chunk -= D~^-1 (U_chunk * z(later colors))
  simd::aligned_vector<double> w(static_cast<std::size_t>(n) * kB);
  for (int c = dj_.num_colors() - 1; c >= 0; --c) {
#pragma omp parallel for schedule(static) num_threads(team) if (team > 1)
    for (int p = 0; p < npe; ++p) {
      const int ch = dj_.chunk_index(c, p);
      const int b = dj_.chunk_begin()[static_cast<std::size_t>(ch)];
      const int e = dj_.chunk_begin()[static_cast<std::size_t>(ch) + 1];
      for (int i = b * kB; i < e * kB; ++i) w[static_cast<std::size_t>(i)] = 0.0;
      const auto& part = dj_.upper(ch);
#if GEOFEM_SIMD_HAS_AVX2
      if (avx2) {
        simd::sweep_avx2<simd::Mode::kAdd>(part.packed, z.data(),
                                           w.data() + static_cast<std::size_t>(b) * kB);
      } else
#endif
      for (int j = 0; j < part.num_jd(); ++j) {
        const int s = part.jd_ptr[static_cast<std::size_t>(j)];
        const int t1 = part.jd_ptr[static_cast<std::size_t>(j) + 1];
        GEOFEM_PRAGMA_SIMD
        for (int t = s; t < t1; ++t) {
          sparse::b3_gemv(
              part.val.data() + static_cast<std::size_t>(t) * kBB,
              z.data() + static_cast<std::size_t>(part.item[static_cast<std::size_t>(t)]) * kB,
              w.data() + static_cast<std::size_t>(b + (t - s)) * kB);
        }
      }
#if GEOFEM_SIMD_HAS_AVX2
      if (avx2) {
        // Batched variant solves out of w and subtracts straight into z;
        // w keeps the raw U*z values (nothing reads them back).
        simd::solve_lu3_sub_avx2(chunk_lu3_[static_cast<std::size_t>(ch)], w.data(), z.data());
        for (const Unit& u : sym_->rest[static_cast<std::size_t>(ch)]) {
          double* wu = w.data() + static_cast<std::size_t>(u.start) * kB;
          lu_[static_cast<std::size_t>(u.id)].solve(wu);
          double* zu = z.data() + static_cast<std::size_t>(u.start) * kB;
          for (int t = 0; t < u.size * kB; ++t) zu[t] -= wu[t];
        }
      } else
#endif
      for (const Unit& u : sym_->chunk_units(ch)) {
        double* wu = w.data() + static_cast<std::size_t>(u.start) * kB;
        lu_[static_cast<std::size_t>(u.id)].solve(wu);
        double* zu = z.data() + static_cast<std::size_t>(u.start) * kB;
        for (int t = 0; t < u.size * kB; ++t) zu[t] -= wu[t];
      }
    }
  }

  if (flops) flops->precond += sym_->apply_flops;
  if (loops) loops->merge(sym_->struct_loops);
}

/// fp32 substitution: the same two color sweeps as apply(), staged entirely
/// in fp32 (narrowed values, fp32 staging vectors, 8-lane AVX2 sweeps). The
/// fp64 r is narrowed chunk by chunk on the way in and the finished z is
/// widened once at the end — the only places the precisions meet.
void DJDSBIC::apply_f32(std::span<const double> r, std::span<double> z) const {
  const int n = dj_.n();
  const int npe = dj_.npe();
  const int team = par::threads();
  const bool avx2 = simd::active() == simd::Isa::kAvx2;
  (void)avx2;

  simd::aligned_vector<float> zf(static_cast<std::size_t>(n) * kB);
  for (int c = 0; c < dj_.num_colors(); ++c) {
#pragma omp parallel for schedule(static) num_threads(team) if (team > 1)
    for (int p = 0; p < npe; ++p) {
      const int ch = dj_.chunk_index(c, p);
      const int b = dj_.chunk_begin()[static_cast<std::size_t>(ch)];
      const int e = dj_.chunk_begin()[static_cast<std::size_t>(ch) + 1];
      for (int i = b * kB; i < e * kB; ++i)
        zf[static_cast<std::size_t>(i)] = static_cast<float>(r[static_cast<std::size_t>(i)]);
      const auto& fc = f32_[static_cast<std::size_t>(ch)];
      const auto& part = dj_.lower(ch);
#if GEOFEM_SIMD_HAS_AVX2
      if (avx2) {
        simd::sweep_avx2<simd::Mode::kSub>(fc.lower_packed, zf.data(),
                                           zf.data() + static_cast<std::size_t>(b) * kB);
      } else
#endif
      for (int j = 0; j < part.num_jd(); ++j) {
        const int s = part.jd_ptr[static_cast<std::size_t>(j)];
        const int t1 = part.jd_ptr[static_cast<std::size_t>(j) + 1];
        GEOFEM_PRAGMA_SIMD
        for (int t = s; t < t1; ++t) {
          sparse::b3_gemv_sub(
              fc.lower_val.data() + static_cast<std::size_t>(t) * kBB,
              zf.data() + static_cast<std::size_t>(part.item[static_cast<std::size_t>(t)]) * kB,
              zf.data() + static_cast<std::size_t>(b + (t - s)) * kB);
        }
      }
#if GEOFEM_SIMD_HAS_AVX2
      if (avx2) {
        simd::solve_lu3_avx2(chunk_lu3f_[static_cast<std::size_t>(ch)], zf.data());
        for (const Unit& u : sym_->rest[static_cast<std::size_t>(ch)])
          lu32_[static_cast<std::size_t>(u.id)].solve(zf.data() +
                                                      static_cast<std::size_t>(u.start) * kB);
      } else
#endif
      for (const Unit& u : sym_->chunk_units(ch))
        lu32_[static_cast<std::size_t>(u.id)].solve(zf.data() +
                                                    static_cast<std::size_t>(u.start) * kB);
    }
  }

  simd::aligned_vector<float> wf(static_cast<std::size_t>(n) * kB);
  for (int c = dj_.num_colors() - 1; c >= 0; --c) {
#pragma omp parallel for schedule(static) num_threads(team) if (team > 1)
    for (int p = 0; p < npe; ++p) {
      const int ch = dj_.chunk_index(c, p);
      const int b = dj_.chunk_begin()[static_cast<std::size_t>(ch)];
      const int e = dj_.chunk_begin()[static_cast<std::size_t>(ch) + 1];
      for (int i = b * kB; i < e * kB; ++i) wf[static_cast<std::size_t>(i)] = 0.0f;
      const auto& fc = f32_[static_cast<std::size_t>(ch)];
      const auto& part = dj_.upper(ch);
#if GEOFEM_SIMD_HAS_AVX2
      if (avx2) {
        simd::sweep_avx2<simd::Mode::kAdd>(fc.upper_packed, zf.data(),
                                           wf.data() + static_cast<std::size_t>(b) * kB);
      } else
#endif
      for (int j = 0; j < part.num_jd(); ++j) {
        const int s = part.jd_ptr[static_cast<std::size_t>(j)];
        const int t1 = part.jd_ptr[static_cast<std::size_t>(j) + 1];
        GEOFEM_PRAGMA_SIMD
        for (int t = s; t < t1; ++t) {
          sparse::b3_gemv(
              fc.upper_val.data() + static_cast<std::size_t>(t) * kBB,
              zf.data() + static_cast<std::size_t>(part.item[static_cast<std::size_t>(t)]) * kB,
              wf.data() + static_cast<std::size_t>(b + (t - s)) * kB);
        }
      }
#if GEOFEM_SIMD_HAS_AVX2
      if (avx2) {
        simd::solve_lu3_sub_avx2(chunk_lu3f_[static_cast<std::size_t>(ch)], wf.data(),
                                 zf.data());
        for (const Unit& u : sym_->rest[static_cast<std::size_t>(ch)]) {
          float* wu = wf.data() + static_cast<std::size_t>(u.start) * kB;
          lu32_[static_cast<std::size_t>(u.id)].solve(wu);
          float* zu = zf.data() + static_cast<std::size_t>(u.start) * kB;
          for (int t = 0; t < u.size * kB; ++t) zu[t] -= wu[t];
        }
      } else
#endif
      for (const Unit& u : sym_->chunk_units(ch)) {
        float* wu = wf.data() + static_cast<std::size_t>(u.start) * kB;
        lu32_[static_cast<std::size_t>(u.id)].solve(wu);
        float* zu = zf.data() + static_cast<std::size_t>(u.start) * kB;
        for (int t = 0; t < u.size * kB; ++t) zu[t] -= wu[t];
      }
    }
  }

  for (int i = 0; i < n * kB; ++i)
    z[static_cast<std::size_t>(i)] = static_cast<double>(zf[static_cast<std::size_t>(i)]);
}

std::size_t DJDSBIC::memory_bytes() const {
  // The unit schedule the sweeps walk (the generic-LU remainder on AVX2).
  std::size_t bytes = sym_->units.size() * sizeof(Unit);
#if GEOFEM_SIMD_HAS_AVX2
  for (const auto& cu : sym_->rest) bytes += cu.size() * sizeof(Unit);
#endif
  if (precision_ == Precision::kSingle) {
    // Report the fp32 structures the sweeps actually stream — the halved
    // footprint IS the optimization (the fp64 factors are retained only as
    // the narrowing source).
    for (const auto& lu : lu32_) bytes += lu.memory_bytes();
    for (const auto& f : f32_) {
      bytes += (f.lower_val.size() + f.upper_val.size()) * sizeof(float);
      bytes += (f.lower_packed.val.size() + f.upper_packed.val.size()) * sizeof(float);
      bytes += (f.lower_packed.item3.size() + f.upper_packed.item3.size()) * sizeof(int32_t);
    }
    for (const auto& p : chunk_lu3f_) bytes += p.memory_bytes();
    return bytes;
  }
  for (const auto& lu : lu_) bytes += lu.memory_bytes();
  for (const auto& p : chunk_lu3_) bytes += p.memory_bytes();
  return bytes;
}

// ---------------------------------------------------------------------------
// OwnedDJDSBIC
// ---------------------------------------------------------------------------

namespace {

/// MC coloring of `a`, at supernode granularity when any supernode has more
/// than one member.
reorder::Coloring color_for(const sparse::BlockCSR& a, const contact::Supernodes& sn,
                            int colors) {
  const sparse::Graph g = sparse::graph_of(a);
  bool has_blocks = false;
  for (const auto& m : sn.members) has_blocks |= m.size() > 1;
  if (!has_blocks) return reorder::multicolor(g, colors);
  const sparse::Graph q = reorder::quotient_graph(g, sn.node_to_super, sn.count());
  return reorder::lift_coloring(reorder::multicolor(q, colors), sn.node_to_super, a.n);
}

}  // namespace

OwnedDJDSBIC::OwnedDJDSBIC(const sparse::BlockCSR& a, const contact::Supernodes& sn, int colors,
                           int npe, bool sort_supernodes, Precision precision) {
  obs::ScopedSpan span("precond.setup.DJDS-reorder");
  const reorder::Coloring coloring = color_for(a, sn, colors);
  reorder::DJDSOptions opt;
  opt.npe = npe;
  opt.sort_supernodes_by_size = sort_supernodes;
  bool has_blocks = false;
  for (const auto& m : sn.members) has_blocks |= m.size() > 1;
  dj_ = std::make_unique<reorder::DJDSMatrix>(a, coloring, has_blocks ? &sn : nullptr, opt);
  inner_ = std::make_unique<DJDSBIC>(*dj_, precision);
  pr_.resize(a.ndof());
  pz_.resize(a.ndof());
}

void OwnedDJDSBIC::apply(std::span<const double> r, std::span<double> z,
                         util::FlopCounter* flops, util::LoopStats* loops) const {
  const int n = dj_->n();
  const std::size_t ndof = static_cast<std::size_t>(n) * kB;
  GEOFEM_CHECK(r.size() == ndof && z.size() == ndof, "OwnedDJDSBIC apply size mismatch");
  const auto& perm = dj_->perm();
  for (int i = 0; i < n; ++i)
    for (int c = 0; c < kB; ++c)
      pr_[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)]) * kB +
          static_cast<std::size_t>(c)] =
          r[static_cast<std::size_t>(i) * kB + static_cast<std::size_t>(c)];
  inner_->apply(pr_, pz_, flops, loops);
  for (int i = 0; i < n; ++i)
    for (int c = 0; c < kB; ++c)
      z[static_cast<std::size_t>(i) * kB + static_cast<std::size_t>(c)] =
          pz_[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)]) * kB +
              static_cast<std::size_t>(c)];
}

std::size_t OwnedDJDSBIC::memory_bytes() const {
  return inner_->memory_bytes() + dj_->memory_bytes();
}

}  // namespace geofem::precond
