#include "dist/dist_solver.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "core/ladder.hpp"
#include "obs/span.hpp"
#include "par/par.hpp"
#include "plan/plan.hpp"
#include "precond/diagonal.hpp"
#include "precond/two_level.hpp"
#include "simd/block3.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace geofem::dist {

namespace {

constexpr int kHaloTag = 7;

/// First half of the halo exchange: post this rank's boundary values to every
/// neighbour. Sends complete on return (buffered), so computation can proceed
/// while the messages are delivered.
void halo_post_sends(Comm& comm, const part::LocalSystem& ls, const std::vector<double>& v,
                     std::vector<double>& sendbuf) {
  for (const auto& link : ls.links) {
    sendbuf.clear();
    for (int l : link.send_local)
      for (int c = 0; c < 3; ++c)
        sendbuf.push_back(v[static_cast<std::size_t>(l) * 3 + static_cast<std::size_t>(c)]);
    comm.send(link.domain, kHaloTag, sendbuf);
  }
}

/// Second half: receive every neighbour's boundary values into the external
/// slots of `v` (paper Fig 4 communication tables).
void halo_complete(Comm& comm, const part::LocalSystem& ls, std::vector<double>& v) {
  for (const auto& link : ls.links) {
    const std::vector<double> msg = comm.recv(link.domain, kHaloTag);
    GEOFEM_CHECK(msg.size() == link.recv_local.size() * 3, "halo message size mismatch");
    for (std::size_t t = 0; t < link.recv_local.size(); ++t)
      for (int c = 0; c < 3; ++c)
        v[static_cast<std::size_t>(link.recv_local[t]) * 3 + static_cast<std::size_t>(c)] =
            msg[t * 3 + static_cast<std::size_t>(c)];
  }
}

/// y[rows] = A_local[rows] * v with accumulator kernel `Acc`. Rows write
/// disjoint y blocks and keep the serial per-row accumulation order
/// (bit-identical for any team size). Using the same micro-kernel family as
/// BlockCSR::spmv keeps the per-row arithmetic identical to the serial
/// solver's, so the 1-domain distributed run stays bit-identical to it in
/// every SIMD configuration.
template <class Acc>
void spmv_rows_impl(const part::LocalSystem& ls, const std::vector<int>& rows,
                    const std::vector<double>& v, std::span<double> y) {
  const auto& a = ls.a;
  const int team = par::threads();
  const std::ptrdiff_t m = static_cast<std::ptrdiff_t>(rows.size());
#pragma omp parallel for schedule(static) num_threads(team) if (team > 1)
  for (std::ptrdiff_t t = 0; t < m; ++t) {
    const int i = rows[static_cast<std::size_t>(t)];
    Acc acc;
    acc.init_zero();
    for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e)
      acc.madd(a.block(e), v.data() + static_cast<std::size_t>(a.colind[e]) * 3);
    acc.reduce(&y[static_cast<std::size_t>(i) * 3]);
  }
}

void spmv_rows(const part::LocalSystem& ls, const std::vector<int>& rows,
               const std::vector<double>& v, std::span<double> y) {
#if GEOFEM_SIMD_HAS_AVX2
  if (simd::active() == simd::Isa::kAvx2) {
    spmv_rows_impl<simd::AvxAcc3>(ls, rows, v, y);
    return;
  }
#endif
  spmv_rows_impl<simd::ScalarAcc3>(ls, rows, v, y);
}

/// pcg's reduction hook on a Comm: blocking sums are allreduces, and the
/// split-phase post/wait is Comm::iallreduce_sum / Comm::wait. Single values
/// take the scalar allreduce (the rendezvous path; no messages).
class CommReduction final : public solver::Reduction {
 public:
  explicit CommReduction(Comm& comm) : comm_(comm) {}

  void sum(std::span<double> v) override {
    if (v.size() == 1) {
      v[0] = comm_.allreduce_sum(v[0]);
      return;
    }
    const std::vector<double> g = comm_.allreduce_sum(std::span<const double>(v));
    std::copy(g.begin(), g.end(), v.begin());
  }
  void post(std::span<double> v) override {
    pending_ = comm_.iallreduce_sum(v);
    posted_ = v;
  }
  void wait() override {
    const std::vector<double> g = comm_.wait(pending_);
    std::copy(g.begin(), g.end(), posted_.begin());
  }

 private:
  Comm& comm_;
  PendingReduce pending_;
  std::span<double> posted_;
};

}  // namespace

DistResult solve_distributed(const std::vector<part::LocalSystem>& systems,
                             const PrecondFactory& factory, const DistOptions& opt,
                             std::vector<double>* x_global) {
  const int ndom = static_cast<int>(systems.size());
  GEOFEM_CHECK(ndom >= 1, "no local systems");

  DistResult res;
  res.flops_per_rank.resize(static_cast<std::size_t>(ndom));
  res.precond_bytes_per_rank.assign(static_cast<std::size_t>(ndom), 0);
  std::vector<double> setup_seconds(static_cast<std::size_t>(ndom), 0.0);
  std::vector<int> iters(static_cast<std::size_t>(ndom), 0);
  std::vector<int> burnt_iters(static_cast<std::size_t>(ndom), 0);
  std::vector<double> relres(static_cast<std::size_t>(ndom), 0.0);
  std::vector<SolveStatus> statuses(static_cast<std::size_t>(ndom), SolveStatus::kMaxIterations);
  std::vector<int> pfell(static_cast<std::size_t>(ndom), 0);
  std::vector<int> vfell(static_cast<std::size_t>(ndom), 0);
  std::vector<coarse::SetupStatus> cstats(static_cast<std::size_t>(ndom),
                                          coarse::SetupStatus::kOff);
  std::vector<int> cdims(static_cast<std::size_t>(ndom), 0);

  // Two-level set-up, structural half: the aggregate map is global (one
  // aggregate per domain = the owner of each global node, optionally refined
  // per contact group), built once here and restricted to each rank's local
  // numbering — halo columns then resolve to the neighbour's aggregate.
  std::vector<coarse::AggregateMap> rank_agg;
  if (opt.coarse.enabled) {
    int gnodes = 0;
    for (const auto& ls : systems)
      for (int g : ls.global_of_local) gnodes = std::max(gnodes, g + 1);
    coarse::AggregateMap global_agg;
    global_agg.count = ndom;
    global_agg.node_to_agg.assign(static_cast<std::size_t>(gnodes), -1);
    for (int d = 0; d < ndom; ++d) {
      const auto& ls = systems[static_cast<std::size_t>(d)];
      for (int l = 0; l < ls.num_internal; ++l)
        global_agg.node_to_agg[static_cast<std::size_t>(
            ls.global_of_local[static_cast<std::size_t>(l)])] = d;
    }
    for (int g : global_agg.node_to_agg)
      GEOFEM_CHECK(g >= 0, "coarse set-up: global node internal to no domain");
    if (opt.coarse.aggregates == coarse::Aggregates::kPerContactGroup)
      global_agg = coarse::refine_by_groups(std::move(global_agg), opt.coarse_groups);
    rank_agg.reserve(static_cast<std::size_t>(ndom));
    for (int d = 0; d < ndom; ++d)
      rank_agg.push_back(coarse::from_global(
          global_agg, systems[static_cast<std::size_t>(d)].global_of_local));
  }

  if (x_global) {
    std::size_t total = 0;
    for (const auto& ls : systems) total += static_cast<std::size_t>(ls.num_internal) * 3;
    x_global->assign(total, 0.0);
  }

  util::Timer wall;
  res.traffic_per_rank = Runtime::run(ndom, opt.faults, [&](Comm& comm) {
    const std::size_t rank = static_cast<std::size_t>(comm.rank());
    const part::LocalSystem& ls = systems[rank];
    auto* fc = &res.flops_per_rank[rank];
    const std::size_t ni = static_cast<std::size_t>(ls.num_internal) * 3;
    const std::size_t nl = static_cast<std::size_t>(ls.num_local()) * 3;

    // Hybrid execution: every kernel this rank thread calls (SpMV, BLAS-1,
    // preconditioner sweeps) runs on opt.threads (0: a 1/ndom share of the host).
    par::TeamScope team_scope(par::resolve_threads(opt.threads, ndom));
    const part::LocalSystem::RowSplit split = ls.row_split();

    // Per-rank telemetry: each rank owns a registry for the duration of the
    // solve; snapshots are gathered to rank 0 below. Attaching it also routes
    // the factory's preconditioner set-up spans here.
    obs::Registry rank_reg;
    obs::Attach attach(opt.telemetry ? &rank_reg : nullptr);
    if (opt.telemetry) {
      rank_reg.set_meta("rank", static_cast<double>(comm.rank()));
      rank_reg.set_meta("internal_dof", static_cast<double>(ni));
      rank_reg.set_meta("local_dof", static_cast<double>(nl));
      rank_reg.set_meta("threads", static_cast<double>(par::threads()));
      rank_reg.set_meta("overlap", opt.overlap ? 1.0 : 0.0);
      rank_reg.set_meta("simd.isa", simd::active_isa());
      rank_reg.gauge("dist.variant")->set(static_cast<double>(opt.cg.variant));
      if (opt.overlap)
        rank_reg.gauge("dist.boundary_rows")->set(static_cast<double>(split.boundary.size()));
    }

    // Progress across CG attempts, hoisted above the try so a timeout can
    // still report how far the rank got. `cg` is the attempt in flight: pcg
    // fills it in place, so a hook that throws leaves its progress readable;
    // run_ladder fills `ladder` the same way.
    solver::CGResult cg;
    core::LadderResult ladder;
    bool in_flight = false;
    int total_iters = 0;
    double last_rel = std::numeric_limits<double>::quiet_NaN();  // NaN: no norm yet
    std::vector<double> history;
    util::LoopStats loops;  // across attempts, for the rank's telemetry
    // Folds the attempt in `cg` into the rank totals.
    auto absorb = [&] {
      in_flight = false;
      total_iters += cg.iterations;
      if (!std::isnan(cg.relative_residual)) last_rel = cg.relative_residual;
      history.insert(history.end(), cg.residual_history.begin(), cg.residual_history.end());
      *fc += cg.flops;
      loops.merge(cg.loops);
    };
    auto report = [&](SolveStatus st) {
      // A primary build that failed everywhere still counts as an attempt at
      // the zero initial guess: residual b, relative residual 1. Recording it
      // keeps the history of later attempts aligned with a run whose build
      // succeeded.
      if (ladder.primary_build_failed) {
        if (std::isnan(last_rel)) last_rel = 1.0;
        if (opt.cg.record_residuals) history.insert(history.begin(), 1.0);
      }
      statuses[rank] = st;
      iters[rank] = total_iters;
      relres[rank] = last_rel;
      if (comm.rank() == 0) res.residual_history = std::move(history);
    };

    // Everything that communicates runs under this try: once a blocking
    // operation times out (injected fault, dead neighbour), the rank records
    // kCommTimeout and stops communicating — which in turn times out every
    // peer still waiting on it, so the whole run terminates within a few
    // deadlines instead of hanging.
    try {
      // localized preconditioners on the internal submatrix (aii must
      // outlive them: preconditioners keep a reference to their matrix)
      util::Timer setup;
      const sparse::BlockCSR aii = ls.internal_matrix();

      // Two-level set-up, numeric half: each rank assembles its Galerkin
      // contribution from ls.a (internal rows, ALL local columns — that is
      // exactly the coupling the localized preconditioner drops), the dense
      // contributions are summed in rank order, and every rank factors the
      // identical replicated A_c. Degrading on a singular A_c is a global
      // decision (allreduced), so lockstep collectives stay aligned.
      std::shared_ptr<const coarse::CoarseOperator> cop;
      if (opt.coarse.enabled) {
        obs::ScopedSpan coarse_span("dist.coarse.setup");
        util::Timer coarse_timer;
        std::shared_ptr<const coarse::CoarseSymbolic> csym;
        std::shared_ptr<const std::vector<double>> contrib;
        const contact::Supernodes no_sn;
        if (opt.plan_cache) {
          // Keyed on the full local matrix ls.a (not aii: its graph drops the
          // halo columns the assembly needs). kDiagonal+natural carries no
          // symbolic state, so the plan is purely the coarse schedule + the
          // value-hash memo that makes warm λ-cycles skip the assembly.
          plan::PlanConfig ccfg;
          ccfg.precond = plan::PrecondKind::kDiagonal;
          ccfg.coarse = true;
          auto cplan = opt.plan_cache->get(ls.a, no_sn, ccfg, nullptr, &rank_agg[rank],
                                           ls.num_internal);
          csym = cplan->coarse_symbolic();
          contrib = cplan->coarse_contribution(ls.a);
        } else {
          csym = std::make_shared<coarse::CoarseSymbolic>(rank_agg[rank], ls.num_internal);
          contrib =
              std::make_shared<const std::vector<double>>(coarse::accumulate(ls.a, *csym));
        }
        const std::vector<double> ac = comm.allreduce_sum(std::span<const double>(*contrib));
        bool coarse_failed = false;
        try {
          cop = std::make_shared<const coarse::CoarseOperator>(std::move(csym), ac);
        } catch (const Error& e) {
          if (e.code() != StatusCode::kFactorizationFailed) throw;
          coarse_failed = true;
        }
        if (comm.allreduce_max(coarse_failed ? 1.0 : 0.0) > 0.0) {
          cop.reset();
          cstats[rank] = coarse::SetupStatus::kDegraded;
          if (opt.telemetry) rank_reg.counter("coarse.degraded")->add(1);
        } else {
          cstats[rank] = coarse::SetupStatus::kActive;
          cdims[rank] = cop->dim();
          if (opt.telemetry) rank_reg.gauge("dist.coarse.dim")->set(cop->dim());
        }
        if (opt.telemetry)
          rank_reg.gauge("dist.coarse.setup_seconds")->set(coarse_timer.seconds());
      }
      setup_seconds[rank] = setup.seconds();
      const std::size_t solve_span =
          opt.telemetry ? rank_reg.span_begin("dist.solve") : std::size_t{0};
      util::Timer solve_timer;

      // The halo-exchanging matvec over the internal rows: `in` is copied
      // into the local-size scratch whose external slots receive the
      // neighbours' boundary values (paper Fig 4). With overlap, the interior
      // rows — which read only internal columns, untouched by the receives —
      // run while the messages are in flight. Per-row arithmetic and the
      // per-link message sequence are the same either way, hence
      // bit-identical residual histories.
      std::vector<double> halo(nl, 0.0), sendbuf;
      const solver::MatVec matvec = [&](std::span<const double> in, std::span<double> out,
                                        util::FlopCounter* f, util::LoopStats*) {
        std::copy(in.begin(), in.end(), halo.begin());
        halo_post_sends(comm, ls, halo, sendbuf);
        if (!opt.overlap) halo_complete(comm, ls, halo);
        spmv_rows(ls, split.interior, halo, out);
        if (opt.overlap) halo_complete(comm, ls, halo);
        spmv_rows(ls, split.boundary, halo, out);
        if (f)
          f->spmv +=
              2ULL * sparse::kBB * static_cast<std::uint64_t>(ls.a.rowptr[ls.num_internal]);
      };
      CommReduction red(comm);

      // The coarse level wraps whichever one-level preconditioner an attempt
      // uses. Its restricted residual is a global quantity, summed through
      // the same Comm (rank-ascending, bit-identical everywhere) before the
      // replicated A_c is solved redundantly; every rank runs the same
      // collective sequence per apply, so CG's lockstep is preserved.
      const precond::TwoLevel::CoarseSum coarse_sum = [&red](std::span<double> v) {
        red.sum(v);
      };
      auto with_coarse = [&](precond::PreconditionerPtr m) -> precond::PreconditionerPtr {
        if (!cop) return m;
        return std::make_unique<precond::TwoLevel>(std::move(m), cop, matvec, opt.coarse.mode,
                                                   coarse_sum);
      };

      // Rungs of the fallback ladder: the caller's factory, then the
      // fallback factory (when set), then the localized block diagonal,
      // which always builds. The ladder's only cross-rank decision is a
      // failed build (agreed through allreduce_max); every CG exit derives
      // from allreduced scalars, so all ranks walk the same rungs in
      // lockstep.
      const PrecondFactory block_diag = [](const part::LocalSystem&, const sparse::BlockCSR& m,
                                           precond::Precision) {
        return std::make_unique<precond::BlockDiagonal>(m);
      };
      std::vector<const PrecondFactory*> rungs{&factory};
      if (opt.fallback_factory) rungs.push_back(&opt.fallback_factory);
      rungs.push_back(&block_diag);

      std::vector<double> x(ni, 0.0);
      core::LadderHooks hooks;
      hooks.build = [&](int rung, precond::Precision precision) {
        obs::ScopedSpan setup_span("dist.setup");
        precond::PreconditionerPtr m =
            (*rungs[static_cast<std::size_t>(rung)])(ls, aii, precision);
        res.precond_bytes_per_rank[rank] = m->memory_bytes();
        return with_coarse(std::move(m));
      };
      hooks.attempt = [&](const precond::Preconditioner& m, const solver::CGOptions& cgopt,
                          bool cold) -> const solver::CGResult& {
        if (cold) std::fill(x.begin(), x.end(), 0.0);
        in_flight = true;
        solver::pcg(matvec, m, ls.b, x, cgopt, red, cg);
        absorb();
        if (cg.variant_fallbacks > 0) {
          vfell[rank] = 1;
          if (opt.telemetry) rank_reg.counter("dist.fallback.variant")->add(1);
        }
        return cg;
      };
      hooks.agree = [&comm](bool failed) {
        return comm.allreduce_max(failed ? 1.0 : 0.0) > 0.0;
      };
      core::run_ladder(opt, static_cast<int>(rungs.size()) - 1, "dist", hooks, ladder);
      setup_seconds[rank] += ladder.setup_seconds;
      burnt_iters[rank] = ladder.fallback_iterations;
      pfell[rank] = ladder.precision_fallbacks;
      report(ladder.status);

      if (opt.telemetry) {
        rank_reg.span_end(solve_span);
        rank_reg.counter("dist.iterations")->add(static_cast<std::uint64_t>(total_iters));
        rank_reg.gauge("dist.setup_seconds")->set(setup_seconds[rank]);
        rank_reg.gauge("dist.solve_seconds")->set(solve_timer.seconds());
        rank_reg.gauge("dist.precond_bytes")
            ->set(static_cast<double>(res.precond_bytes_per_rank[rank]));
        rank_reg.absorb("dist", *fc);
        rank_reg.absorb("dist", loops);
        // traffic up to this point; the telemetry gather itself is not counted
        export_traffic(comm.traffic(), rank_reg);
        const std::vector<double> blob = encode(rank_reg.snapshot());
        const std::vector<double> gathered = comm.gather(0, blob);
        if (comm.rank() == 0) {
          res.obs_per_rank = obs::decode_all(gathered);
          res.obs_merged = obs::aggregate(res.obs_per_rank);
        }
      }

      if (x_global) {
        for (int l = 0; l < ls.num_internal; ++l) {
          const int g = ls.global_of_local[static_cast<std::size_t>(l)];
          for (int c = 0; c < 3; ++c)
            (*x_global)[static_cast<std::size_t>(g) * 3 + static_cast<std::size_t>(c)] =
                x[static_cast<std::size_t>(l) * 3 + static_cast<std::size_t>(c)];
        }
      }
    } catch (const Error& e) {
      if (e.code() != StatusCode::kCommTimeout) throw;
      // Keep whatever progress was made before the deadline hit so a timed-out
      // run is not misread as "zero iterations, residual 0.0": NaN marks a
      // timeout that struck before the first residual norm.
      if (in_flight) absorb();
      report(SolveStatus::kCommTimeout);
    }
  });
  res.solve_seconds = wall.seconds();
  if (opt.plan_cache) res.plan_cache = opt.plan_cache->stats();

  res.status_per_rank = statuses;
  res.status = statuses[0];
  for (SolveStatus s : statuses)
    if (s == SolveStatus::kCommTimeout) res.status = SolveStatus::kCommTimeout;
  res.iterations = iters[0];
  res.fallback_iterations = burnt_iters[0];
  res.precision_fallbacks = pfell[0];
  res.variant_fallbacks = vfell[0];
  res.relative_residual = relres[0];
  res.coarse_status = cstats[0];
  res.coarse_dim = cdims[0];
  for (double s : setup_seconds) res.setup_seconds_max = std::max(res.setup_seconds_max, s);
  return res;
}

PrecondFactory make_plan_factory(plan::PlanCache& cache, plan::PlanConfig cfg,
                                 std::vector<std::vector<int>> global_groups) {
  GEOFEM_CHECK(cfg.ordering == plan::OrderingKind::kNatural,
               "make_plan_factory supports the natural ordering only");
  return [&cache, cfg, groups = std::move(global_groups)](
             const part::LocalSystem& ls, const sparse::BlockCSR& aii,
             precond::Precision precision) {
    const auto sn = contact::build_supernodes(aii.n, ls.local_contact_groups(groups));
    // The requested precision perturbs the plan key (only when kSingle), so
    // an fp64 re-setup after an fp32 failure builds — and caches — a second,
    // full-precision plan instead of refilling the fp32 one.
    plan::PlanConfig c = cfg;
    c.precision = precision;
    return std::make_unique<plan::PlannedPreconditioner>(cache.get(aii, sn, c), aii);
  };
}

}  // namespace geofem::dist
