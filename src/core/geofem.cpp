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

/// Outcome of the structure + numeric set-up phase shared by the ladder's
/// build hook and the batched entry: the (possibly cached) plan and the ready
/// preconditioner.
struct Setup {
  std::shared_ptr<const plan::SolvePlan> plan;
  precond::PreconditionerPtr prec;
};

/// Set-up phase of one solve: plan lookup (or build), numeric factorization,
/// optional coarse level — everything before the Krylov loop, with all the
/// associated SolveReport bookkeeping (bytes, plan reuse, timings, PDJDS
/// statistics) filled into `rep`. Throws Error(kFactorizationFailed) if the
/// factorization hits an unusable pivot. solve_system_batched shares it
/// verbatim (one set-up, k right-hand sides).
Setup setup_solve(const fem::System& sys, const contact::Supernodes& sn, const SolveConfig& cfg,
                  PrecondKind kind, precond::Precision precision, SolveReport& rep) {
  rep.matrix_bytes = sys.a.memory_bytes();
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
    agg = coarse::single_aggregate(sys.a.n);
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
    p = cache.get(sys.a, sn, pcfg, &hit, aggp);
    rep.plan_cache = cache.stats();
    rep.plan_reused = hit;
  } else {
    p = std::make_shared<plan::SolvePlan>(sys.a, sn, pcfg, aggp);
  }
  rep.symbolic_seconds = p->symbolic_seconds();
  util::Timer numeric_timer;
  precond::PreconditionerPtr prec = p->numeric(sys.a);
  rep.numeric_seconds = numeric_timer.seconds();
  if (cfg.coarse.enabled) {
    // Second level: assemble (value-memoized in the plan) and factor A_c,
    // then wrap the one-level factorization. A singular A_c is a typed,
    // non-fatal outcome — the solve continues one-level.
    util::Timer coarse_timer;
    rep.coarse_status = coarse::SetupStatus::kActive;
    try {
      auto op = p->coarse_numeric(sys.a);
      rep.coarse_dim = op->dim();
      prec = std::make_unique<precond::TwoLevel>(std::move(prec), std::move(op),
                                                 precond::matvec_of(sys.a), cfg.coarse.mode);
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

/// One CG attempt against `m`, set up on `plan`: solves in the plan's
/// ordering (permuting b, the warm start and the solution for the PDJDS
/// paths). `x0` (mesh ordering) warm-starts CG; null starts from zero. Fills
/// rep.cg and rep.solution.
void run_cg(const fem::System& sys, const plan::SolvePlan& plan, const precond::Preconditioner& m,
            const solver::CGOptions& cgopt, const std::vector<double>* x0, SolveReport& rep) {
  if (plan.config().ordering == OrderingKind::kNatural) {
    if (x0) {
      rep.solution = *x0;
    } else {
      rep.solution.assign(sys.a.ndof(), 0.0);
    }
    rep.cg = solver::pcg(sys.a, m, sys.b, rep.solution, cgopt);
    return;
  }

  // PDJDS/MC path: the plan owns the ordering; solve in the new ordering and
  // permute back.
  const reorder::DJDSMatrix& dj = *plan.djds();

  std::vector<double> pb(sys.a.ndof()), px(sys.a.ndof(), 0.0);
  for (int i = 0; i < sys.a.n; ++i)
    for (int c = 0; c < 3; ++c)
      pb[static_cast<std::size_t>(dj.perm()[static_cast<std::size_t>(i)]) * 3 +
         static_cast<std::size_t>(c)] =
          sys.b[static_cast<std::size_t>(i) * 3 + static_cast<std::size_t>(c)];
  if (x0)
    for (int i = 0; i < sys.a.n; ++i)
      for (int c = 0; c < 3; ++c)
        px[static_cast<std::size_t>(dj.perm()[static_cast<std::size_t>(i)]) * 3 +
           static_cast<std::size_t>(c)] =
            (*x0)[static_cast<std::size_t>(i) * 3 + static_cast<std::size_t>(c)];
  rep.cg = solver::pcg(
      [&dj](std::span<const double> in, std::span<double> out, util::FlopCounter* fc,
            util::LoopStats* ls) { dj.spmv(in, out, fc, ls); },
      m, pb, px, cgopt);
  rep.solution.assign(sys.a.ndof(), 0.0);
  for (int i = 0; i < sys.a.n; ++i)
    for (int c = 0; c < 3; ++c)
      rep.solution[static_cast<std::size_t>(i) * 3 + static_cast<std::size_t>(c)] =
          px[static_cast<std::size_t>(dj.perm()[static_cast<std::size_t>(i)]) * 3 +
             static_cast<std::size_t>(c)];
}

}  // namespace

SolveReport solve_system(const fem::System& sys, const contact::Supernodes& sn,
                         const SolveConfig& cfg) {
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
    for (PrecondKind k : chain)
      if (k != cfg.precond) kinds.push_back(k);
  }

  SolveReport out;   // the last attempt that ran CG
  SolveReport next;  // the attempt being set up
  std::shared_ptr<const plan::SolvePlan> next_plan;
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
    Setup s = setup_solve(sys, sn, acfg, kind, precision, next);
    next_plan = std::move(s.plan);
    return std::move(s.prec);
  };
  hooks.attempt = [&](const precond::Preconditioner& m, const solver::CGOptions& cgopt,
                      bool cold) -> const solver::CGResult& {
    run_cg(sys, *next_plan, m, cgopt, cold ? nullptr : &out.solution, next);
    out = std::move(next);
    return out.cg;
  };
  hooks.agree = [](bool failed) { return failed; };
  LadderResult lr;
  run_ladder(cfg, static_cast<int>(kinds.size()) - 1, "core", hooks, lr);

  out.status = lr.status;
  out.attempts.assign(kinds.begin(), kinds.begin() + lr.rung + 1);
  out.fallback_iterations = lr.fallback_iterations;
  out.fallback_setup_seconds = lr.fallback_setup_seconds;
  out.precision_fallbacks = lr.precision_fallbacks;
  return out;
}

std::vector<SolveReport> solve_system_batched(const fem::System& sys,
                                              const contact::Supernodes& sn,
                                              const SolveConfig& cfg,
                                              const std::vector<std::vector<double>>& rhs,
                                              const std::vector<double>& tolerances,
                                              double compact_threshold) {
  const int k = static_cast<int>(rhs.size());
  GEOFEM_CHECK(k >= 1 && k <= simd::kMaxMultiRhs, "solve_system_batched: bad column count");
  GEOFEM_CHECK(tolerances.empty() || tolerances.size() == rhs.size(),
               "solve_system_batched: tolerances must be empty or one per column");
  const std::size_t nd = sys.a.ndof();
  for (const auto& col : rhs)
    GEOFEM_CHECK(col.size() == nd, "solve_system_batched: rhs column size mismatch");

  // Batch-of-1 is the single-RHS pipeline, verbatim: same resilience chain,
  // same precision rung, bit-identical report.
  if (k == 1) {
    fem::System one;
    one.a = sys.a;
    one.b = rhs[0];
    SolveConfig c1 = cfg;
    if (!tolerances.empty()) c1.cg.tolerance = tolerances[0];
    std::vector<SolveReport> out;
    out.push_back(solve_system(one, sn, c1));
    return out;
  }

  GEOFEM_CHECK(cfg.cg.variant == solver::CGVariant::kClassic,
               "solve_system_batched: k > 1 supports CGVariant::kClassic only");
  GEOFEM_CHECK(!cfg.resilience.enabled,
               "solve_system_batched: k > 1 is a direct solve (no resilience chain)");

  std::optional<obs::Attach> session_attach;
  if (cfg.registry) session_attach.emplace(cfg.registry);
  par::TeamScope team_scope(cfg.threads);
  if (obs::Registry* r0 = obs::current()) {
    r0->gauge("core.threads")->set(static_cast<double>(par::threads()));
    r0->gauge("core.simd_lane_width")->set(static_cast<double>(simd::lane_width()));
    r0->set_meta("simd.isa", simd::active_isa());
  }

  SolveReport base;
  Setup s = setup_solve(sys, sn, cfg, cfg.precond, cfg.precision, base);
  base.attempts = {cfg.precond};

  solver::BatchedCGOptions bopt;
  bopt.cg = cfg.cg;
  bopt.tolerances = tolerances;
  bopt.compact_threshold = compact_threshold;

  const auto kk = static_cast<std::size_t>(k);
  std::vector<double> bi(nd * kk), xi(nd * kk, 0.0);
  solver::BatchedCGResult bres;
  const bool natural = cfg.ordering == OrderingKind::kNatural;
  if (natural) {
    for (std::size_t c = 0; c < kk; ++c)
      for (std::size_t d = 0; d < nd; ++d) bi[d * kk + c] = rhs[c][d];
    bres = solver::pcg_batched(sys.a, *s.prec, bi, xi, k, bopt);
  } else {
    // PDJDS/MC path: permute every column into the plan's ordering, solve,
    // permute back below.
    const reorder::DJDSMatrix& dj = *s.plan->djds();
    for (std::size_t c = 0; c < kk; ++c)
      for (int i = 0; i < sys.a.n; ++i)
        for (int d = 0; d < 3; ++d)
          bi[(static_cast<std::size_t>(dj.perm()[static_cast<std::size_t>(i)]) * 3 +
              static_cast<std::size_t>(d)) *
                 kk +
             c] = rhs[c][static_cast<std::size_t>(i) * 3 + static_cast<std::size_t>(d)];
    bres = solver::pcg_batched(
        [&dj](std::span<const double> in, std::span<double> out, util::FlopCounter* fc,
              util::LoopStats* ls) { dj.spmv(in, out, fc, ls); },
        [&dj](std::span<const double> in, std::span<double> out, int kb, util::FlopCounter* fc,
              util::LoopStats* ls) { dj.spmm(in, out, kb, fc, ls); },
        *s.prec, bi, xi, k, bopt);
  }

  std::vector<SolveReport> out;
  out.reserve(kk);
  for (std::size_t c = 0; c < kk; ++c) {
    SolveReport rep = base;
    rep.cg = bres.columns[c];
    rep.cg.solve_seconds = bres.solve_seconds;
    if (c == 0) {
      rep.cg.flops = bres.flops;
      rep.cg.loops = bres.loops;
    }
    rep.status = rep.cg.status;
    rep.solution.assign(nd, 0.0);
    if (natural) {
      for (std::size_t d = 0; d < nd; ++d) rep.solution[d] = xi[d * kk + c];
    } else {
      const reorder::DJDSMatrix& dj = *s.plan->djds();
      for (int i = 0; i < sys.a.n; ++i)
        for (int d = 0; d < 3; ++d)
          rep.solution[static_cast<std::size_t>(i) * 3 + static_cast<std::size_t>(d)] =
              xi[(static_cast<std::size_t>(dj.perm()[static_cast<std::size_t>(i)]) * 3 +
                  static_cast<std::size_t>(d)) *
                     kk +
                 c];
    }
    out.push_back(std::move(rep));
  }
  return out;
}

}  // namespace geofem::core
