#include "core/ladder.hpp"

#include <algorithm>
#include <string>

#include "obs/registry.hpp"
#include "util/timer.hpp"

namespace geofem::core {

void run_ladder(const SolveOptionsBase& opt, int fallback_rungs, std::string_view layer,
                const LadderHooks& hooks, LadderResult& out) {
  using precond::Precision;
  out = {};
  obs::Registry* reg = obs::current();
  const auto count = [&](std::string_view event) {
    if (reg) reg->counter(std::string(layer) + ".fallback." + std::string(event))->add(1);
  };
  const bool resilient = opt.resilience.enabled;
  const bool fp32 = opt.precision == Precision::kSingle;

  // A stalled attempt must fail fast enough to leave the next rung work to
  // do, so resilience arms a stagnation window when the caller left detection
  // off; an fp32 attempt always gets one, since the fp64 re-set-up is armed
  // even without resilience.
  solver::CGOptions cg = opt.cg;
  if (resilient && cg.stagnation_window == 0)
    cg.stagnation_window = opt.resilience.stagnation_window;
  solver::CGOptions cg32 = cg;
  if (cg32.stagnation_window == 0) cg32.stagnation_window = opt.resilience.stagnation_window;

  bool ran = false;   // some attempt has run CG
  bool warm = false;  // ... since the last cold point
  int last_iterations = 0;

  // One rung at one precision; true when its attempt converged.
  const auto step = [&](int rung, Precision precision, const solver::CGOptions& cgo) {
    const bool first = out.rung < 0;
    // The fp32 attempt's failure is counted once, as `precision`.
    const bool counted = resilient && precision == Precision::kDouble;
    out.rung = rung;
    util::Timer setup;
    precond::PreconditionerPtr m;
    if (resilient || fp32) {
      bool failed = false;
      try {
        m = hooks.build(rung, precision);
      } catch (const Error& e) {
        if (e.code() != StatusCode::kFactorizationFailed) throw;
        failed = true;
      }
      // A rank-local failure is a global decision: every rank skips together.
      if (hooks.agree(failed)) {
        out.status = SolveStatus::kFactorizationFailed;
        out.primary_build_failed = out.primary_build_failed || first;
        if (counted) count("factorization_failed");
        return false;
      }
    } else {
      m = hooks.build(rung, precision);
    }
    const double setup_seconds = setup.seconds();
    const solver::CGResult& r = hooks.attempt(*m, cgo, !warm);
    if (ran) {
      out.fallback_iterations += last_iterations;
      out.fallback_setup_seconds += out.setup_seconds;
    }
    ran = warm = true;
    last_iterations = r.iterations;
    out.setup_seconds = setup_seconds;
    if (ok(r.status)) {
      out.status = first ? r.status : SolveStatus::kFellBack;
      if (rung > 0) count("recovered");
      return true;
    }
    out.status = r.status;
    if (counted) count("attempts");
    return false;
  };

  bool done = step(0, opt.precision, fp32 ? cg32 : cg);
  if (!done && fp32) {
    // fp32-induced stagnation/breakdown or narrowing overflow: one fp64
    // re-set-up with a cold restart, so the recovery replays a direct fp64
    // solve of the same system residual for residual.
    out.precision_fallbacks = 1;
    count("precision");
    warm = false;
    done = step(0, Precision::kDouble, cg);
  }
  if (!resilient) return;
  const int rungs = std::min(fallback_rungs, std::max(opt.resilience.max_fallbacks, 0));
  for (int rung = 1; !done && rung <= rungs; ++rung) done = step(rung, Precision::kDouble, cg);
  if (!done) count("exhausted");
}

}  // namespace geofem::core
