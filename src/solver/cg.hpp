#pragma once

#include <span>
#include <string>

#include "core/status.hpp"
#include "precond/preconditioner.hpp"
#include "sparse/block_csr.hpp"
#include "util/flops.hpp"
#include "util/loop_stats.hpp"

namespace geofem::solver {

/// Arithmetic variant of preconditioned CG (DESIGN.md §5j). All three solve
/// the same system with the same preconditioner; they differ in how many
/// global dot-product reductions each iteration needs and what computation
/// those reductions can hide behind:
///   kClassic   — textbook PCG: 3 blocking reductions/iteration (rho, p.Ap,
///                ||r||), none overlapped. Bit-identical to the pre-variant
///                solver; the reference for equivalence tests.
///   kGropp     — Gropp's two-overlap CG: 2 reductions/iteration, one hidden
///                behind the preconditioner application, one behind the SpMV.
///   kPipelined — Ghysels–Vanroose pipelined CG: 1 fused reduction/iteration
///                (rho, w.u, ||r||² in one payload) hidden behind *both* the
///                preconditioner application and the SpMV, at the cost of 4
///                extra recurrence vectors and slightly reduced attainable
///                accuracy.
/// Reordered arithmetic means Gropp/pipelined residual histories are NOT
/// bit-identical to classic (iteration parity is tested instead), but each
/// variant is itself deterministic across thread counts and overlap settings.
enum class CGVariant { kClassic = 0, kGropp = 1, kPipelined = 2 };

[[nodiscard]] std::string to_string(CGVariant v);

struct CGOptions {
  double tolerance = 1e-8;  ///< on ||r||_2 / ||b||_2, the paper's epsilon
  int max_iterations = 20000;
  bool record_residuals = false;
  /// Stagnation detector: declare kStagnated when the relative residual at
  /// iteration `it` is > 0.99x its value `stagnation_window` iterations ago.
  /// 0 disables the check (default), leaving iteration counts untouched.
  int stagnation_window = 0;
  /// Communication-hiding variant. kClassic (default) keeps today's exact
  /// arithmetic; a non-classic variant that hits breakdown or stagnation
  /// falls back to kClassic on the same preconditioner (warm restart, shared
  /// iteration budget) before any preconditioner-level fallback is consulted,
  /// and reports SolveStatus::kFellBack when the classic retry converges.
  CGVariant variant = CGVariant::kClassic;
  /// kPipelined only: every this-many iterations, recompute the recurrence
  /// vectors from their definitions (r = b - Ax, u = M^-1 r, w = Au, s = Ap,
  /// q = M^-1 s, z = Aq — Ghysels–Vanroose residual replacement). The extra
  /// recurrences drift from their true values and plateau the recurrence
  /// residual ~2 digits above classic's attainable accuracy; replacement
  /// resets the drift for ~20% extra SpMV work at the default (4 SpMV +
  /// 2 preconditioner applies per replacement vs 1+1 per iteration). No
  /// global reductions are involved, so the overlap structure is unchanged.
  /// 0 disables (plateaus then falls back to kClassic at tight tolerances).
  int pipeline_replace_interval = 20;
};

struct CGResult {
  SolveStatus status = SolveStatus::kMaxIterations;
  int iterations = 0;
  double relative_residual = 0.0;
  double solve_seconds = 0.0;
  util::FlopCounter flops;
  util::LoopStats loops;
  std::vector<double> residual_history;  ///< if record_residuals
  /// 1 when a Gropp/pipelined attempt broke down or stagnated and the
  /// automatic kClassic retry ran (whether or not it then converged).
  int variant_fallbacks = 0;

  [[nodiscard]] bool converged() const { return ok(status); }
};

/// y = A x hook; implementations forward to BlockCSR::spmv, DJDSMatrix::spmv
/// (with permuted vectors), or a distributed halo-exchange matvec.
using MatVec = precond::MatVec;

/// Global-reduction hook of pcg (DESIGN.md §5j). Every dot product pcg takes
/// is a local partial sum that passes through this hook before it is used.
/// The base class is the identity (one address space); the distributed solver
/// overrides it with Comm allreduces, which is all that turns pcg into the
/// paper's parallel CG. Sums are in place. post/wait is the split-phase form
/// the Gropp and pipelined variants hide behind the preconditioner and SpMV:
/// at most one is in flight, and `v` must stay alive and untouched until
/// wait() returns with the global values in it.
class Reduction {
 public:
  virtual ~Reduction() = default;
  virtual void sum(std::span<double> /*v*/) {}
  virtual void post(std::span<double> /*v*/) {}
  virtual void wait() {}
};

/// Preconditioned conjugate gradients. `x` holds the initial guess on entry
/// and the solution on return.
CGResult pcg(const MatVec& amul, const precond::Preconditioner& m, std::span<const double> b,
             std::span<double> x, const CGOptions& opt = {});

/// As above with every dot product reduced through `red` — the distributed
/// solver's entry (halo-exchanging `amul`, allreducing `red`). `res` is reset
/// on entry and filled while the solve runs: iterations, residual history,
/// flops, loops, and relative_residual after every residual norm (NaN before
/// the first). A hook that throws therefore leaves the progress so far in
/// `res`.
void pcg(const MatVec& amul, const precond::Preconditioner& m, std::span<const double> b,
         std::span<double> x, const CGOptions& opt, Reduction& red, CGResult& res);

/// Convenience overload for a serial BlockCSR system.
CGResult pcg(const sparse::BlockCSR& a, const precond::Preconditioner& m,
             std::span<const double> b, std::span<double> x, const CGOptions& opt = {});

}  // namespace geofem::solver
