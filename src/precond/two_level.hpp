#pragma once

#include <memory>

#include "coarse/coarse.hpp"
#include "precond/preconditioner.hpp"
#include "sparse/block_csr.hpp"

namespace geofem::precond {

/// Two-level wrapper around any one-level preconditioner M. The fine
/// operator and the coarse-vector sum are hooks, so the same apply serves the
/// serial solve (BlockCSR::spmv, identity sum) and the distributed one (halo
/// matvec, coarse residual allreduced across ranks).
///
/// With Q = P A_c^-1 R the apply is
///   kAdditive:  z = M^-1 r + Q r
///   kDeflated:  z = Q r + (I - QA) M^-1 (I - AQ) r
/// Both are symmetric when A and M are, so CG stays valid. The deflated form
/// costs two extra fine matvecs and two coarse solves per apply, but removes
/// the low-energy modes the localized preconditioners cannot see — which is
/// what flattens iteration growth with the domain count.
class TwoLevel final : public Preconditioner {
 public:
  /// Sums a restricted coarse vector in place over everything that holds a
  /// share of the fine vector. Distributed, every rank calls it the same
  /// number of times per apply, so collectives stay in lockstep.
  using CoarseSum = std::function<void(std::span<double>)>;

  /// `inner` is the wrapped M, `op` the factored coarse level, `a` the fine
  /// operator over the op's restrict_nodes() nodes; an empty `sum` is the
  /// identity (serial).
  TwoLevel(PreconditionerPtr inner, std::shared_ptr<const coarse::CoarseOperator> op, MatVec a,
           coarse::Mode mode, CoarseSum sum = {});

  void apply(std::span<const double> r, std::span<double> z, util::FlopCounter* flops,
             util::LoopStats* loops) const override;

  [[nodiscard]] std::size_t memory_bytes() const override {
    return inner_->memory_bytes() + op_->memory_bytes();
  }
  [[nodiscard]] std::string name() const override;
  /// The wrapped preconditioner's identity with the coarse level stacked on
  /// (mode + coarse DOFs).
  [[nodiscard]] Desc desc() const override;

  [[nodiscard]] const Preconditioner& inner() const { return *inner_; }
  [[nodiscard]] const coarse::CoarseOperator& coarse_op() const { return *op_; }

 private:
  /// yc_ = A_c^-1 sum(R fine)
  void coarse_solve(std::span<const double> fine, util::FlopCounter* flops) const;

  PreconditionerPtr inner_;
  std::shared_ptr<const coarse::CoarseOperator> op_;
  MatVec a_;
  coarse::Mode mode_;
  CoarseSum sum_;
  // scratch, sized in the constructor so apply() never allocates
  mutable std::vector<double> yc_;           ///< coarse residual / solution
  mutable std::vector<double> q_, t_, mt_;   ///< fine-size work (deflated)
};

/// The serial fine-operator hook: y = A x via BlockCSR::spmv. `a` must
/// outlive the hook (same contract as the one-level preconditioners).
[[nodiscard]] MatVec matvec_of(const sparse::BlockCSR& a);

}  // namespace geofem::precond
