#pragma once

#include <vector>

#include "plan/fingerprint.hpp"

namespace geofem {

/// Automatic preconditioner fallback with a retry budget (DESIGN.md §5d).
///
/// Off by default: with enabled = false a solve behaves exactly as before the
/// resilience layer existed — bit-identical residual histories, failures
/// surface as their raw SolveStatus. With enabled = true, a failed attempt
/// (stagnation, breakdown, exhausted iterations, factorization failure)
/// rebuilds the preconditioner with the next rung — serially the next kind
/// in the chain, through the plan cache, so a fallback to a kind whose plan
/// is already resident pays only the numeric phase — and restarts CG warm
/// from the last iterate of the failed attempt, with a full iteration budget
/// (core/ladder.hpp). A solve that converges this way reports
/// SolveStatus::kFellBack.
struct ResilienceOptions {
  bool enabled = false;

  /// Maximum preconditioner rebuilds after the primary attempt.
  int max_fallbacks = 2;

  /// Stagnation window handed to the inner CG when the caller's CGOptions
  /// leave stagnation detection off (stagnation_window == 0). Without a
  /// window a stalled BIC(0) at high lambda burns the whole iteration budget
  /// before the chain can react. Healthy contact CG can plateau — even rise —
  /// for ~100 iterations before recovering, so the default window is well
  /// above that; a genuinely stagnant solve (Table 2's "did not converge"
  /// regime) makes no progress over any window.
  int stagnation_window = 200;

  /// Preconditioners tried in order after the primary kind fails (serial
  /// solves; the distributed solver takes factories instead). Empty selects
  /// default_fallback_chain(primary). Entries equal to the primary kind are
  /// skipped.
  std::vector<plan::PrecondKind> chain;
};

/// Default chain for a failing primary kind, ordered strongest-first:
/// everything falls back to SB-BIC(0) (robust for any penalty number, the
/// paper's Table 2), then to the unconditionally-applicable block diagonal;
/// SB-BIC(0) itself falls back straight to the block diagonal; the diagonal
/// kinds have nowhere further to go.
[[nodiscard]] std::vector<plan::PrecondKind> default_fallback_chain(plan::PrecondKind primary);

}  // namespace geofem
