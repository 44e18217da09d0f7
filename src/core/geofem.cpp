#include "core/geofem.hpp"

#include "core/ladder.hpp"
#include "obs/span.hpp"
#include "par/par.hpp"
#include "plan/plan.hpp"
#include "simd/simd.hpp"
#include "precond/bic.hpp"
#include "precond/diagonal.hpp"
#include "precond/djds_bic.hpp"
#include "precond/sb_bic0.hpp"
#include "precond/scalar_ic0.hpp"
#include "precond/two_level.hpp"
#include "simd/multirhs.hpp"
#include "solver/batch.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace geofem::core {

std::string to_string(PrecondKind k) { return plan::to_string(k); }

precond::PreconditionerPtr make_preconditioner(PrecondKind kind, const sparse::BlockCSR& a,
                                               const contact::Supernodes& sn,
                                               precond::Precision precision) {
  switch (kind) {
    case PrecondKind::kDiagonal:
      return std::make_unique<precond::DiagonalScaling>(a, precision);
    case PrecondKind::kScalarIC0: return std::make_unique<precond::ScalarIC0>(a, precision);
    case PrecondKind::kBIC0: return std::make_unique<precond::BIC0>(a, precision);
    case PrecondKind::kBIC1: return std::make_unique<precond::BlockILUk>(a, 1, precision);
    case PrecondKind::kBIC2: return std::make_unique<precond::BlockILUk>(a, 2, precision);
    case PrecondKind::kSBBIC0:
      return std::make_unique<precond::SBBIC0>(a, sn, /*modified=*/false, precision);
    case PrecondKind::kBlockDiagonal:
      return std::make_unique<precond::BlockDiagonal>(a, precision);
  }
  GEOFEM_CHECK(false, "unknown preconditioner kind");
}

SolveReport solve(const mesh::HexMesh& m, const std::vector<fem::Material>& materials,
                  const fem::BoundaryConditions& bc, const SolveConfig& cfg) {
  // The whole solve — assembly and boundary conditions included — runs on
  // the session's registry and team; solve_system re-enters both (nested
  // scopes restore on return).
  std::optional<obs::Attach> session_attach;
  if (cfg.registry) session_attach.emplace(cfg.registry);
  par::TeamScope team_scope(cfg.threads);
  fem::System sys;
  {
    obs::ScopedSpan span("fem.assemble");
    sys = fem::assemble_elasticity(m, materials);
  }
  contact::add_penalty(sys.a, m.contact_groups, cfg.penalty);
  {
    obs::ScopedSpan span("fem.bc");
    fem::apply_boundary_conditions(sys, bc);
  }
  return solve_system(sys, contact::build_supernodes(sys.a.n, m.contact_groups), cfg);
}

namespace {

/// Outcome of the structure + numeric set-up phase of one ladder rung: the
/// (possibly cached) plan and the ready preconditioner.
struct Setup {
  std::shared_ptr<const plan::SolvePlan> plan;
  precond::PreconditionerPtr prec;
};

/// Set-up phase of one solve: plan lookup (or build), numeric factorization,
/// optional coarse level — everything before the Krylov loop, with all the
/// associated SolveReport bookkeeping (bytes, plan reuse, timings, PDJDS
/// statistics) filled into `rep`. Throws Error(kFactorizationFailed) if the
/// factorization hits an unusable pivot. One set-up serves all k columns.
Setup setup_solve(const sparse::BlockCSR& a, const contact::Supernodes& sn,
                  const SolveConfig& cfg, PrecondKind kind, precond::Precision precision,
                  SolveReport& rep) {
  rep.matrix_bytes = a.memory_bytes();
  obs::Registry* reg = obs::current();
  // setup span closed (span_end) where setup_seconds is read
  const std::size_t setup_idx = reg ? reg->span_begin("core.setup") : 0;
  util::Timer setup;

  // Plan: everything structure-dependent (symbolic pattern, coloring, DJDS
  // layout), cached across solves on the same graph; then the per-solve
  // numeric factorization.
  plan::PlanConfig pcfg;
  pcfg.precond = kind;
  pcfg.precision = precision;
  pcfg.ordering = cfg.ordering;
  pcfg.colors = cfg.colors;
  pcfg.npe = cfg.npe;
  pcfg.sort_supernodes = cfg.sort_supernodes;
  pcfg.coarse = cfg.coarse.enabled;
  coarse::AggregateMap agg;
  if (cfg.coarse.enabled) {
    GEOFEM_CHECK(cfg.ordering == OrderingKind::kNatural,
                 "coarse correction requires the natural ordering");
    agg = coarse::single_aggregate(a.n);
    if (cfg.coarse.aggregates == coarse::Aggregates::kPerContactGroup)
      agg = coarse::refine_by_groups(std::move(agg), sn.members);
  }
  const coarse::AggregateMap* aggp = cfg.coarse.enabled ? &agg : nullptr;
  std::shared_ptr<const plan::SolvePlan> p;
  if (cfg.use_plan_cache) {
    plan::PlanCache& cache = cfg.plan_cache ? *cfg.plan_cache : plan::default_cache();
    // get() reports the hit directly: under concurrent sessions a stats()
    // delta would attribute other callers' hits to this solve.
    bool hit = false;
    p = cache.get(a, sn, pcfg, &hit, aggp);
    rep.plan_cache = cache.stats();
    rep.plan_reused = hit;
  } else {
    p = std::make_shared<plan::SolvePlan>(a, sn, pcfg, aggp);
  }
  rep.symbolic_seconds = p->symbolic_seconds();
  util::Timer numeric_timer;
  precond::PreconditionerPtr prec = p->numeric(a);
  rep.numeric_seconds = numeric_timer.seconds();
  if (cfg.coarse.enabled) {
    // Second level: assemble (value-memoized in the plan) and factor A_c,
    // then wrap the one-level factorization. A singular A_c is a typed,
    // non-fatal outcome — the solve continues one-level.
    util::Timer coarse_timer;
    rep.coarse_status = coarse::SetupStatus::kActive;
    try {
      auto op = p->coarse_numeric(a);
      rep.coarse_dim = op->dim();
      prec = std::make_unique<precond::TwoLevel>(std::move(prec), std::move(op),
                                                 precond::matvec_of(a), cfg.coarse.mode);
    } catch (const Error& e) {
      if (e.code() != StatusCode::kFactorizationFailed) throw;
      rep.coarse_status = coarse::SetupStatus::kDegraded;
      if (reg) reg->counter("coarse.degraded")->add(1);
    }
    rep.coarse_setup_seconds = coarse_timer.seconds();
    if (reg) reg->gauge("coarse.dim")->set(static_cast<double>(rep.coarse_dim));
  }
  rep.setup_seconds = setup.seconds();
  if (reg) reg->span_end(setup_idx);
  if (reg) reg->gauge("core.setup_seconds")->set(rep.setup_seconds);
  rep.precond_bytes = prec->memory_bytes();
  rep.precond = prec->desc();
  rep.precond_name = rep.precond.display_name();

  if (cfg.ordering != OrderingKind::kNatural) {
    const reorder::DJDSMatrix& dj = *p->djds();
    rep.avg_vector_length = dj.average_vector_length();
    rep.load_imbalance_percent = dj.load_imbalance_percent();
    rep.dummy_percent = dj.dummy_percent();
    rep.colors_used = dj.num_colors();
    if (reg) {
      reg->gauge("core.avg_vector_length")->set(rep.avg_vector_length);
      reg->gauge("core.load_imbalance_percent")->set(rep.load_imbalance_percent);
      reg->gauge("core.colors_used")->set(rep.colors_used);
    }
  }
  return Setup{std::move(p), std::move(prec)};
}

/// Visits every DOF of column `c` as f(mesh index, multivector index). The
/// mesh ordering holds 3 values per node contiguously; the plan's interleaved
/// multivector holds value(dof, column) at dof * k + c, with node i at plan
/// position dj->perm()[i] (the identity for the natural ordering, dj null).
template <class F>
void for_each_dof(const reorder::DJDSMatrix* dj, int nodes, std::size_t k, std::size_t c, F&& f) {
  for (int i = 0; i < nodes; ++i) {
    const auto p = static_cast<std::size_t>(dj ? dj->perm()[static_cast<std::size_t>(i)] : i);
    for (std::size_t d = 0; d < 3; ++d)
      f(static_cast<std::size_t>(i) * 3 + d, (p * 3 + d) * k + c);
  }
}

/// The one solve pipeline behind solve_system and solve_system_batched:
/// A x_c = b_c for the k columns of `rhs` with one session entry, one set-up
/// per ladder rung and one batched CG per attempt (pcg_batched, which is
/// pcg itself at k = 1). The ladder sees the batch as one solve: an attempt
/// fails when any column fails, the fp32 -> fp64 re-set-up restarts every
/// column cold, and a fallback rung restarts every column warm from its
/// last iterate (a converged column freezes at 0 iterations).
std::vector<SolveReport> solve_columns(const sparse::BlockCSR& a, const contact::Supernodes& sn,
                                       const SolveConfig& cfg,
                                       const std::vector<std::span<const double>>& rhs,
                                       const std::vector<double>& tolerances) {
  const std::size_t k = rhs.size();
  GEOFEM_CHECK(k >= 1 && k <= static_cast<std::size_t>(simd::kMaxMultiRhs),
               "core solve: bad column count");
  GEOFEM_CHECK(tolerances.empty() || tolerances.size() == k,
               "core solve: tolerances must be empty or one per column");
  const std::size_t nd = a.ndof();
  for (const auto& col : rhs)
    GEOFEM_CHECK(col.size() == nd, "core solve: rhs column size mismatch");
  GEOFEM_CHECK(k == 1 || cfg.cg.variant == solver::CGVariant::kClassic,
               "core solve: k > 1 supports CGVariant::kClassic only");

  // Re-entrant session entry: attach the caller-provided registry for the
  // duration of this call only (restored on return), so concurrent service
  // workers record into their service's registry without global state.
  std::optional<obs::Attach> session_attach;
  if (cfg.registry) session_attach.emplace(cfg.registry);
  // Hybrid execution: every kernel below (SpMV, BLAS-1, substitution sweeps)
  // runs on a team of cfg.threads OpenMP threads.
  par::TeamScope team_scope(cfg.threads);
  if (obs::Registry* r0 = obs::current()) {
    r0->gauge("core.threads")->set(static_cast<double>(par::threads()));
    r0->gauge("core.simd_lane_width")->set(static_cast<double>(simd::lane_width()));
    r0->set_meta("simd.isa", simd::active_isa());
  }

  // Rungs of the fallback ladder: the primary kind, then (resilience only)
  // the chain without it.
  std::vector<PrecondKind> kinds{cfg.precond};
  if (cfg.resilience.enabled) {
    const auto chain = cfg.resilience.chain.empty() ? default_fallback_chain(cfg.precond)
                                                    : cfg.resilience.chain;
    for (PrecondKind kind : chain)
      if (kind != cfg.precond) kinds.push_back(kind);
  }

  std::vector<SolveReport> out(k);  // per column: the last attempt that ran CG
  std::vector<int> burnt(k, 0);     // per column: iterations of earlier attempts
  SolveReport next;  // set-up bookkeeping of the attempt being set up
  std::shared_ptr<const plan::SolvePlan> next_plan;
  // The attempt's outcome as the ladder sees it: the first failing column's
  // status (else kConverged) after the shared outer iterations.
  solver::CGResult batch;
  LadderHooks hooks;
  hooks.build = [&](int rung, precond::Precision precision) {
    const PrecondKind kind = kinds[static_cast<std::size_t>(rung)];
    // The PDJDS orderings only vectorize the no-fill kinds; a fallback rung
    // of any other kind (notably the last-resort block diagonal, which needs
    // no reordering) runs in the natural ordering instead of tripping the
    // plan's check.
    SolveConfig acfg = cfg;
    if (rung > 0 && !plan::ordering_supports(acfg.ordering, kind))
      acfg.ordering = OrderingKind::kNatural;
    next = SolveReport{};
    Setup s = setup_solve(a, sn, acfg, kind, precision, next);
    next_plan = std::move(s.plan);
    return std::move(s.prec);
  };
  hooks.attempt = [&](const precond::Preconditioner& m, const solver::CGOptions& cgopt,
                      bool cold) -> const solver::CGResult& {
    // Solve in the plan's ordering: the PDJDS paths permute b, the warm
    // start and the solution; the natural ordering (no DJDS matrix) only
    // interleaves.
    const reorder::DJDSMatrix* dj = next_plan->djds();
    std::vector<double> bi(nd * k), xi(nd * k, 0.0);
    for (std::size_t c = 0; c < k; ++c) {
      const double* b = rhs[c].data();
      const double* x0 = cold ? nullptr : out[c].solution.data();
      for_each_dof(dj, a.n, k, c, [&](std::size_t m, std::size_t q) {
        bi[q] = b[m];
        if (x0) xi[q] = x0[m];
      });
    }
    solver::BatchedCGOptions bopt;
    bopt.cg = cgopt;
    bopt.tolerances = tolerances;
    solver::BatchedCGResult bres =
        dj ? solver::pcg_batched(
                 [dj](std::span<const double> in, std::span<double> o, util::FlopCounter* fc,
                      util::LoopStats* ls) { dj->spmv(in, o, fc, ls); },
                 [dj](std::span<const double> in, std::span<double> o, int kb,
                      util::FlopCounter* fc, util::LoopStats* ls) { dj->spmm(in, o, kb, fc, ls); },
                 m, bi, xi, static_cast<int>(k), bopt)
           : solver::pcg_batched(a, m, bi, xi, static_cast<int>(k), bopt);

    batch = {};
    batch.iterations = bres.iterations;
    batch.status = SolveStatus::kConverged;
    for (std::size_t c = 0; c < k; ++c) {
      burnt[c] += out[c].cg.iterations;  // 0 before the first attempt
      SolveReport rep = c + 1 == k ? std::move(next) : next;
      rep.cg = std::move(bres.columns[c]);
      // Shared work is carried once: every column reports the batch wall
      // time, column 0 the batch's flops and loop statistics.
      rep.cg.solve_seconds = bres.solve_seconds;
      if (c == 0) {
        rep.cg.flops = bres.flops;
        rep.cg.loops = bres.loops;
      }
      rep.solution.resize(nd);
      for_each_dof(dj, a.n, k, c,
                   [&](std::size_t m, std::size_t q) { rep.solution[m] = xi[q]; });
      if (!ok(rep.cg.status) && ok(batch.status)) batch.status = rep.cg.status;
      out[c] = std::move(rep);
    }
    return batch;
  };
  hooks.agree = [](bool failed) { return failed; };
  LadderResult lr;
  run_ladder(cfg, static_cast<int>(kinds.size()) - 1, "core", hooks, lr);

  for (std::size_t c = 0; c < k; ++c) {
    SolveReport& rep = out[c];
    // A converged batch reports the ladder's outcome for every column (e.g.
    // kFellBack); a failed one reports each column's own CG status, except
    // that a failed column behind a failed last build reports that failure.
    rep.status = ok(lr.status) ||
                         (lr.status == SolveStatus::kFactorizationFailed && !ok(rep.cg.status))
                     ? lr.status
                     : rep.cg.status;
    rep.attempts.assign(kinds.begin(), kinds.begin() + lr.rung + 1);
    rep.fallback_iterations = burnt[c];
    rep.fallback_setup_seconds = lr.fallback_setup_seconds;
    rep.precision_fallbacks = lr.precision_fallbacks;
  }
  return out;
}

}  // namespace

SolveReport solve_system(const fem::System& sys, const contact::Supernodes& sn,
                         const SolveConfig& cfg) {
  return std::move(solve_columns(sys.a, sn, cfg, {sys.b}, {}).front());
}

std::vector<SolveReport> solve_system_batched(const fem::System& sys,
                                              const contact::Supernodes& sn,
                                              const SolveConfig& cfg,
                                              const std::vector<std::vector<double>>& rhs,
                                              const std::vector<double>& tolerances) {
  return solve_columns(sys.a, sn, cfg, {rhs.begin(), rhs.end()}, tolerances);
}

}  // namespace geofem::core
