#pragma once

#include <memory>

#include "contact/penalty.hpp"
#include "precond/preconditioner.hpp"
#include "reorder/djds.hpp"
#include "simd/lu3.hpp"
#include "sparse/block_csr.hpp"

namespace geofem::precond {

/// Structure-only half of the PDJDS factorization, derived once from a
/// DJDSMatrix layout and shared by every numeric phase on it (the solve plan
/// holds one per PDJDS layout): the ordering units per (color, PE) chunk,
/// the AVX2 batching of singleton runs, and the per-sweep loop statistics
/// and FLOP counts — all functions of the layout alone.
struct DJDSSymbolic {
  /// One ordering unit: a supernode range or a singleton row, `size` nodes
  /// from new row `start`; `id` = index into `units` = elimination order.
  struct Unit {
    int start;
    int size;
    int id;
  };
  /// A run of up to kLanes consecutive singleton units solved one SIMD
  /// register wide (Fig 22's same-size batch at lane width): units
  /// [first, first + count) of `units`.
  struct Group {
    int first;
    int count;
  };
  int n = 0;                    ///< block rows of the layout
  bool has_blocks = false;      ///< any unit spans more than one node
  std::vector<Unit> units;      ///< ascending new-row order
  std::vector<int> chunk_ptr;   ///< units of chunk ch: [chunk_ptr[ch], chunk_ptr[ch+1])
  /// Per chunk, the singleton batches for the 4-lane fp64 and 8-lane fp32
  /// packed solves, and the units left to the generic dense LU.
  std::vector<std::vector<Group>> groups4, groups8;
  std::vector<std::vector<Unit>> rest;
  util::LoopStats struct_loops, jagged_loops, batch_loops;
  double block_solve_flops = 0.0;
  std::uint64_t apply_flops = 0;

  [[nodiscard]] std::span<const Unit> chunk_units(int ch) const {
    return std::span<const Unit>(units).subspan(
        static_cast<std::size_t>(chunk_ptr[static_cast<std::size_t>(ch)]),
        static_cast<std::size_t>(chunk_ptr[static_cast<std::size_t>(ch) + 1] -
                                 chunk_ptr[static_cast<std::size_t>(ch)]));
  }
  [[nodiscard]] std::size_t memory_bytes() const;
};

/// Symbolic phase of the PDJDS factorization for layout `dj`.
[[nodiscard]] std::shared_ptr<const DJDSSymbolic> djds_symbolic(const reorder::DJDSMatrix& dj);

/// PDJDS/MC vectorized form of BIC(0) / SB-BIC(0) (paper Fig 13 + §4.7):
/// forward/backward substitution sweeps colors sequentially, distributes the
/// (color, PE) chunks over OpenMP threads, and runs the long jagged-diagonal
/// loops innermost. Selective-block diagonals are solved by dense LU, batched
/// by block size (Fig 22). Works entirely in the DJDS (new) ordering: the
/// r/z vectors passed to apply() must be permuted with DJDSMatrix::perm().
///
/// Whether this is "BIC(0)" or "SB-BIC(0)" is decided by the supernodes the
/// DJDSMatrix was built with: singleton supernodes give plain BIC(0).
class DJDSBIC final : public Preconditioner {
 public:
  /// Numeric phase on the values `dj` currently holds (DJDSMatrix::refill):
  /// the factorization is unmodified SB-BIC(0)/BIC(0), so each unit's factor
  /// is the dense LU of its own diagonal block — dj.diag() for a singleton,
  /// dj.super_dense() for a supernode range — read in place, always in fp64.
  /// Units are independent, so they are factored (and packed) over the
  /// caller's team with results independent of its size. `sym` must be
  /// djds_symbolic(dj). `precision` selects the STORED form the sweeps
  /// stream: kSingle narrows the jagged values, the packed SIMD mirrors and
  /// the unit LU factors to fp32 (8-lane AVX2 sweeps, half the factor
  /// bandwidth) and throws Error(kFactorizationFailed) if any factor
  /// overflows fp32 range. A singular unit throws kFactorizationFailed.
  DJDSBIC(const reorder::DJDSMatrix& dj, std::shared_ptr<const DJDSSymbolic> sym,
          Precision precision = Precision::kDouble);

  /// Cold form: derives djds_symbolic(dj) first, then the same numeric phase.
  explicit DJDSBIC(const reorder::DJDSMatrix& dj, Precision precision = Precision::kDouble)
      : DJDSBIC(dj, djds_symbolic(dj), precision) {}

  void apply(std::span<const double> r, std::span<double> z, util::FlopCounter* flops,
             util::LoopStats* loops) const override;

  [[nodiscard]] std::size_t memory_bytes() const override;
  [[nodiscard]] std::string name() const override { return desc().display_name(); }
  [[nodiscard]] Desc desc() const override {
    Desc d;
    d.kind = sym_->has_blocks ? PrecondKind::kSBBIC0 : PrecondKind::kBIC0;
    d.pdjds = true;
    d.precision = precision_;
    return d;
  }

  [[nodiscard]] Precision precision() const { return precision_; }

  /// fp64 dense LU factor of every ordering unit, indexed by unit id.
  [[nodiscard]] const std::vector<sparse::DenseLU>& unit_factors() const { return lu_; }

  /// Innermost vector-loop lengths of one apply() sweep (jagged loops plus
  /// same-size selective-block solve batches); structural, data-independent.
  [[nodiscard]] const util::LoopStats& structural_loops() const { return sym_->struct_loops; }

  /// Jagged-diagonal loops only (one apply sweep).
  [[nodiscard]] const util::LoopStats& jagged_loops() const { return sym_->jagged_loops; }
  /// Same-size selective-block solve batches only (one apply sweep). On the
  /// Earth Simulator these are the loops the Fig 22 size sort exists for:
  /// a batch of equal-size dense solves vectorizes across the batch; ragged
  /// batches fall back to scalar execution.
  [[nodiscard]] const util::LoopStats& batch_loops() const { return sym_->batch_loops; }
  /// FLOPs of all selective-block dense solves in one apply sweep.
  [[nodiscard]] double block_solve_flops() const { return sym_->block_solve_flops; }

 private:
  using Unit = DJDSSymbolic::Unit;
  void apply_f32(std::span<const double> r, std::span<double> z) const;

  const reorder::DJDSMatrix& dj_;
  std::shared_ptr<const DJDSSymbolic> sym_;
  Precision precision_ = Precision::kDouble;
  std::vector<sparse::DenseLU> lu_;  ///< per ordering unit, in new-row order
  /// AVX2 path: the singleton batches of sym_ packed lane-wise from lu_
  /// (multi-node supernodes keep their generic LU, sym_->rest).
  std::vector<simd::PackedLU3> chunk_lu3_;
  /// fp32 storage (kSingle only): narrowed jagged values per chunk with
  /// their 8-lane packed mirrors, narrowed unit LU factors, and the 8-wide
  /// singleton solve batches. The substitution runs entirely in fp32 staging
  /// and widens back into the fp64 z at the end of apply().
  struct ChunkF32 {
    simd::aligned_vector<float> lower_val, upper_val;
    simd::PackedJaggedT<float> lower_packed, upper_packed;
  };
  std::vector<ChunkF32> f32_;
  std::vector<sparse::DenseSolveT<float>> lu32_;
  std::vector<simd::PackedLU3T<float>> chunk_lu3f_;
};

/// Self-contained PDJDS/MC preconditioner that presents the ORIGINAL row
/// ordering at its interface (permuting r/z internally), so it can drop into
/// any solver — in particular as the per-domain localized preconditioner of
/// the distributed hybrid runs. Owns the ordering (DJDSMatrix, a full
/// permuted copy of the matrix) and the factorization.
class OwnedDJDSBIC final : public Preconditioner {
 public:
  /// Builds MC coloring (quotient-graph based when `sn` has multi-node
  /// supernodes), the DJDS ordering, and the factorization from `a`; keeps
  /// no reference to `a` or `sn`.
  OwnedDJDSBIC(const sparse::BlockCSR& a, const contact::Supernodes& sn, int colors, int npe,
               bool sort_supernodes = true, Precision precision = Precision::kDouble);

  void apply(std::span<const double> r, std::span<double> z, util::FlopCounter* flops,
             util::LoopStats* loops) const override;

  [[nodiscard]] std::size_t memory_bytes() const override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] Desc desc() const override { return inner_->desc(); }

  [[nodiscard]] const reorder::DJDSMatrix& djds() const { return *dj_; }
  [[nodiscard]] const DJDSBIC& inner() const { return *inner_; }

 private:
  std::unique_ptr<reorder::DJDSMatrix> dj_;
  std::unique_ptr<DJDSBIC> inner_;
  mutable simd::aligned_vector<double> pr_, pz_;
};

}  // namespace geofem::precond
