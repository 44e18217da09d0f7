#include "precond/two_level.hpp"

#include "util/check.hpp"

namespace geofem::precond {

TwoLevel::TwoLevel(PreconditionerPtr inner, std::shared_ptr<const coarse::CoarseOperator> op,
                   MatVec a, coarse::Mode mode, CoarseSum sum)
    : inner_(std::move(inner)), op_(std::move(op)), a_(std::move(a)), mode_(mode),
      sum_(std::move(sum)) {
  GEOFEM_CHECK(inner_ != nullptr, "TwoLevel: null inner preconditioner");
  GEOFEM_CHECK(op_ != nullptr, "TwoLevel: null coarse operator");
  GEOFEM_CHECK(a_ != nullptr, "TwoLevel: null fine operator");
  yc_.resize(static_cast<std::size_t>(op_->dim()));
  if (mode_ == coarse::Mode::kDeflated) {
    const auto ndof = static_cast<std::size_t>(op_->symbolic().restrict_nodes()) * 3;
    q_.resize(ndof);
    t_.resize(ndof);
    mt_.resize(ndof);
  }
}

MatVec matvec_of(const sparse::BlockCSR& a) {
  return [&a](std::span<const double> in, std::span<double> out, util::FlopCounter* fc,
              util::LoopStats* ls) { a.spmv(in, out, fc, ls); };
}

std::string TwoLevel::name() const { return desc().display_name(); }

Desc TwoLevel::desc() const {
  Desc d = inner_->desc();
  d.coarse =
      mode_ == coarse::Mode::kDeflated ? CoarseKind::kDeflated : CoarseKind::kAdditive;
  d.coarse_dim = op_->dim();
  return d;
}

void TwoLevel::coarse_solve(std::span<const double> fine, util::FlopCounter* flops) const {
  op_->restrict_residual(fine, yc_, flops);
  if (sum_) sum_(yc_);
  op_->solve(yc_, flops);
}

void TwoLevel::apply(std::span<const double> r, std::span<double> z, util::FlopCounter* flops,
                     util::LoopStats* loops) const {
  GEOFEM_CHECK(r.size() == static_cast<std::size_t>(op_->symbolic().restrict_nodes()) * 3 &&
                   z.size() == r.size(),
               "TwoLevel: coarse space does not cover the vector");
  if (mode_ == coarse::Mode::kAdditive) {
    // z = M^-1 r + P A_c^-1 R r
    inner_->apply(r, z, flops, loops);
    coarse_solve(r, flops);
    op_->prolongate_add(yc_, z, flops);
    return;
  }
  // Deflated (BNN): z = q + (I - QA) M^-1 (r - A q), q = Q r.
  coarse_solve(r, flops);
  std::fill(q_.begin(), q_.end(), 0.0);
  op_->prolongate_add(yc_, q_, flops);
  a_(q_, t_, flops, loops);  // t = A q
  for (std::size_t i = 0; i < t_.size(); ++i) t_[i] = r[i] - t_[i];
  inner_->apply(t_, mt_, flops, loops);  // mt = M^-1 (r - A q)
  a_(mt_, t_, flops, loops);             // t = A mt
  coarse_solve(t_, flops);
  for (std::size_t i = 0; i < mt_.size(); ++i) z[i] = q_[i] + mt_[i];
  // z -= P A_c^-1 R (A mt): reuse prolongate_add on the negated coarse vector
  for (double& v : yc_) v = -v;
  op_->prolongate_add(yc_, z, flops);
  if (flops) flops->blas1 += 3 * static_cast<std::uint64_t>(mt_.size());
}

}  // namespace geofem::precond
