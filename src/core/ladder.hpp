#pragma once

#include <functional>
#include <string_view>

#include "core/options.hpp"
#include "core/status.hpp"
#include "precond/preconditioner.hpp"
#include "solver/cg.hpp"

/// The fallback ladder (DESIGN.md §5d): the one implementation of rung order,
/// retry budget and fallback bookkeeping behind core::solve_system and
/// dist::solve_distributed. Callers supply their preconditioners as rungs
/// (0 = the primary, 1.. = the fallbacks) and three hooks; the ladder decides
/// which rung to build at which precision, with which CG options, and whether
/// CG restarts cold or warm.
namespace geofem::core {

struct LadderHooks {
  /// Builds rung `rung`'s preconditioner at `precision`. Throws
  /// Error(kFactorizationFailed) when the factorization hits an unusable
  /// pivot or an fp32 factor overflows.
  std::function<precond::PreconditionerPtr(int rung, precond::Precision precision)> build;
  /// Runs one CG attempt against `m` with options `cg`: from a zero initial
  /// guess when `cold`, else from the iterate the previous attempt left.
  /// Returns that attempt's result.
  std::function<const solver::CGResult&(const precond::Preconditioner& m,
                                        const solver::CGOptions& cg, bool cold)>
      attempt;
  /// Lockstep agreement on a local flag: true when it is true anywhere. The
  /// identity serially, an allreduce_max across ranks.
  std::function<bool(bool)> agree;
};

struct LadderResult {
  /// kConverged (or the primary's own CG status, e.g. a variant retry's
  /// kFellBack) when the first attempt converged; kFellBack when a later one
  /// did; otherwise the last rung's failure (kFactorizationFailed if its build
  /// failed).
  SolveStatus status = SolveStatus::kFactorizationFailed;
  int rung = -1;  ///< last rung entered; rungs 0..rung were tried
  /// The first build failed everywhere, so no attempt ran at the zero guess.
  bool primary_build_failed = false;
  /// CG iterations / build seconds of every attempt that ran except the last.
  int fallback_iterations = 0;
  double fallback_setup_seconds = 0.0;
  double setup_seconds = 0.0;  ///< build seconds of the last attempt that ran
  int precision_fallbacks = 0;  ///< fp32 primary rebuilt at fp64 (0 or 1)
};

/// Walks the ladder until an attempt converges:
///   1. rung 0 at opt.precision, cold;
///   2. if that was fp32 and failed: rung 0 at fp64, cold — the precision
///      re-set-up, armed whatever resilience.enabled says;
///   3. with resilience.enabled: rungs 1..min(fallback_rungs,
///      resilience.max_fallbacks) at fp64, each warm from the last iterate.
/// Every attempt gets the full opt.cg.max_iterations. Under resilience, or
/// for an fp32 attempt, a zero stagnation window is armed from
/// resilience.stagnation_window. A build that throws kFactorizationFailed is
/// skipped (agreed across ranks) when resilience or fp32 arms the ladder; a
/// direct fp64 solve lets it propagate. Counts
/// `<layer>.fallback.precision` for the re-set-up and, under resilience,
/// `.attempts` / `.factorization_failed` per failed fp64 attempt or build,
/// `.recovered` when a fallback rung converges and `.exhausted` when none
/// does, on the attached obs registry. `out` is filled as the ladder runs, so
/// a hook that throws leaves the progress so far readable.
void run_ladder(const SolveOptionsBase& opt, int fallback_rungs, std::string_view layer,
                const LadderHooks& hooks, LadderResult& out);

}  // namespace geofem::core
