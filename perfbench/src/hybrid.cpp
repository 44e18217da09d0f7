// swjapan_hybrid: the paper's hybrid single-node configuration. One caller
// repeatedly calls core::solve (SB-BIC(0), PDJDS/MC ordering, an OpenMP team)
// on the Southwest-Japan-like model while lambda cycles; the graph never
// changes, so the plan stays warm while every solve re-assembles and
// re-factors.
//
// The traced run makes the calls core::solve makes, one step at a time, with
// a span around each, and checks that this pipeline reproduces core::solve's
// iteration count and solution bit for bit.

#include <cstring>
#include <stdexcept>
#include <thread>

#include "contact/penalty.hpp"
#include "core/geofem.hpp"
#include "par/par.hpp"
#include "plan/cache.hpp"
#include "plan/plan.hpp"
#include "reorder/djds.hpp"
#include "solver/cg.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = geofem::core;
namespace plan = geofem::plan;

namespace {

struct Solved {
  int iterations = 0;
  std::vector<double> solution;
  geofem::util::FlopCounter flops;
};

/// Bytes one kernel call streams, computed from the layout (not measured):
/// every stored block (dummies included) at 72 B of values + 4 B of index,
/// the dense supernode blocks, plus the vectors read and written once.
struct KernelBytes {
  double spmv = 0.0;
  double apply = 0.0;
};

KernelBytes computed_bytes(const geofem::reorder::DJDSMatrix& dj, std::size_t factor_bytes) {
  const double block = 9.0 * sizeof(double) + sizeof(int);
  double offdiag = 0.0;
  const int chunks = static_cast<int>(dj.chunk_begin().size()) - 1;
  for (int c = 0; c < chunks; ++c)
    offdiag += block * (dj.lower(c).entries() + dj.upper(c).entries());
  double dense = 0.0;
  for (std::size_t r = 0; r < dj.super_ranges().size(); ++r)
    dense += static_cast<double>(dj.super_dense(static_cast<int>(r)).size() * sizeof(double));
  const double vec = 3.0 * dj.n() * sizeof(double);
  KernelBytes kb;
  // y = A x: diagonal + dense supernode blocks + jagged parts, read x, write y
  kb.spmv = dj.n() * 9.0 * sizeof(double) + dense + offdiag + 2.0 * vec;
  // forward + backward sweep: jagged lower/upper once, the factor storage the
  // preconditioner reports, and r / intermediate / z traffic
  kb.apply = offdiag + static_cast<double>(factor_bytes) + 4.0 * vec;
  return kb;
}

core::SolveConfig hybrid_config(const Args& a) {
  core::SolveConfig cfg;
  cfg.precond = core::PrecondKind::kSBBIC0;
  cfg.ordering = core::OrderingKind::kPDJDSMC;
  cfg.threads = a.integer("threads");
  cfg.cg.tolerance = a.num("tol");
  return cfg;
}

/// The steps of core::solve, one call at a time, each inside a span. Spans of
/// one solve share `id`; kernel spans are children of the pcg span.
Solved traced_solve(const Model& m, const core::SolveConfig& cfg, plan::PlanCache& cache,
                    Tracer& tr, std::uint64_t id, KernelBytes* kb) {
  Scope root(tr, "core.solve", id);
  const std::int64_t r = root.index();
  geofem::fem::System sys;
  {
    Scope s(tr, "fem.assemble", id, r);
    sys = geofem::fem::assemble_elasticity(m.mesh, m.materials);
  }
  {
    Scope s(tr, "contact.penalty", id, r);
    geofem::contact::add_penalty(sys.a, m.mesh.contact_groups, cfg.penalty);
  }
  {
    Scope s(tr, "fem.bc", id, r);
    geofem::fem::apply_boundary_conditions(sys, m.bc);
  }
  geofem::contact::Supernodes sn;
  {
    Scope s(tr, "contact.supernodes", id, r);
    sn = geofem::contact::build_supernodes(sys.a.n, m.mesh.contact_groups);
  }
  geofem::par::TeamScope team(cfg.threads);
  plan::PlanConfig pcfg;
  pcfg.precond = cfg.precond;
  pcfg.precision = geofem::precond::Precision::kDouble;
  pcfg.ordering = cfg.ordering;
  pcfg.colors = cfg.colors;
  pcfg.npe = cfg.npe;
  pcfg.sort_supernodes = cfg.sort_supernodes;
  std::shared_ptr<const plan::SolvePlan> p;
  {
    Scope s(tr, "plan.lookup", id, r);
    p = cache.get(sys.a, sn, pcfg);
  }
  geofem::precond::PreconditionerPtr prec;
  {
    Scope s(tr, "precond.numeric", id, r);
    prec = p->numeric(sys.a);
  }
  const geofem::reorder::DJDSMatrix& dj = *p->djds();
  if (kb) *kb = computed_bytes(dj, prec->memory_bytes());
  const auto n = static_cast<std::size_t>(sys.a.n);
  const std::vector<int>& perm = dj.perm();
  std::vector<double> pb(sys.a.ndof()), px(sys.a.ndof(), 0.0);
  {
    Scope s(tr, "core.permute", id, r);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t c = 0; c < 3; ++c)
        pb[static_cast<std::size_t>(perm[i]) * 3 + c] = sys.b[i * 3 + c];
  }
  Solved out;
  {
    Scope pcg(tr, "solver.pcg", id, r);
    const std::int64_t ps = pcg.index();
    const TimedPreconditioner timed(std::move(prec), tr, id, ps, 0);
    const geofem::solver::MatVec mv = [&dj, &tr, id, ps](std::span<const double> in,
                                                          std::span<double> o,
                                                          geofem::util::FlopCounter* fc,
                                                          geofem::util::LoopStats* ls) {
      Scope s(tr, "reorder.spmv", id, ps);
      dj.spmv(in, o, fc, ls);
    };
    const geofem::solver::CGResult cg = geofem::solver::pcg(mv, timed, pb, px, cfg.cg);
    out.iterations = cg.iterations;
    out.flops = cg.flops;
  }
  {
    Scope s(tr, "core.permute", id, r);
    out.solution.assign(sys.a.ndof(), 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t c = 0; c < 3; ++c)
        out.solution[i * 3 + c] = px[static_cast<std::size_t>(perm[i]) * 3 + c];
  }
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

void run_swjapan_hybrid(const Args& a, Result& res, Tracer& tr) {
  const bool trace = tr.enabled();
  const std::uint64_t seed = a.u64("seed");
  const double seconds = a.num("seconds");
  const std::vector<double> lambdas = a.nums("lambdas");
  const std::size_t nl = lambdas.size();
  const auto jitter = static_cast<unsigned>(mix_seed(seed, 1) & 0x7fffffffU);
  const std::size_t start = mix_seed(seed, 2) % nl;
  core::SolveConfig cfg = hybrid_config(a);
  note("swjapan_hybrid: nx=" + a.str("nx") + " ny=" + a.str("ny") + " jitter seed " +
       std::to_string(jitter) + ", SB-BIC(0) PDJDS/MC, threads=" + std::to_string(cfg.threads) +
       ", tol " + fmt(cfg.cg.tolerance));

  // --- set-up: mesh generation + the warm-up solve on a cold plan
  auto t0 = Clock::now();
  const Model model = swjapan_model(a.integer("nx"), a.integer("ny"), jitter);
  const double gen_s = seconds_since(t0);
  require_valid_mesh(model.mesh, "Southwest-Japan-like mesh");
  auto cache = std::make_unique<plan::PlanCache>(8);
  cfg.plan_cache = cache.get();
  cfg.penalty = lambdas[start];
  t0 = Clock::now();
  const core::SolveReport warm = core::solve(model.mesh, model.materials, model.bc, cfg);
  const double setup_s = gen_s + seconds_since(t0);
  ++res.attempted;
  if (!warm.converged()) res.fail_op("warm-up solve did not converge");
  note("setup: " + fmt(setup_s) + " s (mesh generation " + fmt(gen_s) + " s)");
  res.set("setup_s", setup_s);
  if (setup_only(a)) return;

  // --- timed closed loop; in the traced run every untraced solve is followed
  // by a traced one at the same lambda
  std::vector<double> times, traced_times;
  std::vector<std::size_t> lambda_of;  // per timed untraced solve
  std::vector<Solved> first(nl);
  std::vector<bool> have(nl, false);
  std::vector<std::pair<std::size_t, std::vector<double>>> differing;  // checked after the loop
  std::vector<Solved> traced;
  KernelBytes kb;
  std::uint64_t id = 0;
  const auto loop0 = Clock::now();
  for (std::size_t i = 0; seconds_since(loop0) < seconds; ++i) {
    const std::size_t l = (start + 1 + i) % nl;
    cfg.penalty = lambdas[l];
    t0 = Clock::now();
    core::SolveReport rep = core::solve(model.mesh, model.materials, model.bc, cfg);
    times.push_back(seconds_since(t0));
    lambda_of.push_back(l);
    ++res.attempted;
    if (!rep.converged()) res.fail_op("solve at lambda " + fmt(lambdas[l]) + " did not converge");
    if (!have[l]) {
      first[l] = {rep.cg.iterations, std::move(rep.solution), rep.cg.flops};
      have[l] = true;
    } else {
      if (rep.cg.iterations != first[l].iterations)
        res.fail_run("iteration count at lambda " + fmt(lambdas[l]) + " changed from " +
                     std::to_string(first[l].iterations) + " to " +
                     std::to_string(rep.cg.iterations));
      if (!same_bits(rep.solution, first[l].solution))
        differing.emplace_back(l, std::move(rep.solution));
    }
    if (trace) {
      t0 = Clock::now();
      Solved s = traced_solve(model, cfg, *cache, tr, ++id, &kb);
      traced_times.push_back(seconds_since(t0));
      ++res.attempted;
      if (s.iterations != first[l].iterations || !same_bits(s.solution, first[l].solution))
        res.fail_op("traced pipeline differs from core::solve at lambda " + fmt(lambdas[l]) +
                    " (" + std::to_string(s.iterations) + " vs " +
                    std::to_string(first[l].iterations) + " iterations)");
      s.solution.clear();
      traced.push_back(std::move(s));
    }
  }
  const double rss = peak_rss_mb();
  note("timed loop: " + std::to_string(times.size()) + " solves in " + fmt(seconds_since(loop0)) +
       " s");
  std::string exact;
  for (std::size_t l = 0; l < nl; ++l)
    if (have[l])
      exact += std::string(exact.empty() ? "" : ", ") + "\"iterations@" + fmt(lambdas[l]) +
               "\": " + std::to_string(first[l].iterations);
  note("exact counts {" + exact + "}");

  // --- single-threaded baseline of the same problem (traced run)
  double t1_solve = 0.0;
  std::vector<double> t1_solution;
  if (trace) {
    core::SolveConfig c1 = cfg;
    c1.threads = 1;
    c1.penalty = lambdas[start];
    t0 = Clock::now();
    core::SolveReport r1 = core::solve(model.mesh, model.materials, model.bc, c1);
    t1_solve = seconds_since(t0);
    ++res.attempted;
    if (!r1.converged()) res.fail_op("threads=1 baseline did not converge");
    t1_solution = std::move(r1.solution);
  }

  // --- answer checks: true residual on the benchmark's own assembly, and the
  // reference from a plain single-threaded natural-ordering solve
  std::vector<geofem::fem::System> sys(nl);
  std::vector<core::SolveReport> ref(nl);
  {
    std::vector<std::string> errors(nl);
    std::vector<std::thread> pool;
    for (std::size_t l = 0; l < nl; ++l)
      pool.emplace_back([&, l] {
        try {
          sys[l] = assemble_system(model, lambdas[l], model.mesh.contact_groups);
          core::SolveConfig rc;
          rc.precond = core::PrecondKind::kSBBIC0;
          rc.ordering = core::OrderingKind::kNatural;
          rc.threads = 1;
          rc.cg.tolerance = cfg.cg.tolerance;
          rc.use_plan_cache = false;
          ref[l] = core::solve_system(
              sys[l], geofem::contact::build_supernodes(sys[l].a.n, model.mesh.contact_groups),
              rc);
        } catch (const std::exception& e) {
          errors[l] = e.what();
        }
      });
    for (auto& t : pool) t.join();
    for (std::size_t l = 0; l < nl; ++l)
      if (!errors[l].empty() || !ref[l].converged())
        throw std::runtime_error("reference solve at lambda " + fmt(lambdas[l]) +
                                 " failed: " + errors[l]);
  }
  std::vector<AnswerCheck> checks(nl);
  for (std::size_t l = 0; l < nl; ++l)
    checks[l] = {&sys[l], ref[l].solution, true_relative_residual(sys[l], ref[l].solution),
                 a.num("residual-tol"), a.num("residual-factor"), a.num("solution-tol")};
  const auto check = [&](std::size_t l, const std::vector<double>& x, const std::string& what) {
    return checks[l](x, what + " lambda " + fmt(lambdas[l]));
  };
  std::vector<bool> ok(nl, true);
  for (std::size_t l = 0; l < nl; ++l)
    if (have[l]) ok[l] = check(l, first[l].solution, "first solve at");
  for (std::size_t l = 0; l < nl; ++l)
    note("lambda " + fmt(lambdas[l]) + ": " + std::to_string(first[l].iterations) +
         " iterations (reference, natural ordering, 1 thread: " +
         std::to_string(ref[l].cg.iterations) + ")");
  for (std::size_t i = 0; i < times.size(); ++i)
    if (!ok[lambda_of[i]]) res.fail_op("wrong answer at lambda " + fmt(lambdas[lambda_of[i]]));
  for (const auto& [l, x] : differing)
    if (!check(l, x, "repeated solve (not bit-identical) at")) res.fail_op("wrong answer");
  if (trace && !check(start, t1_solution, "threads=1 baseline at"))
    res.fail_op("wrong answer from the threads=1 baseline");

  if (!trace) {
    closed_loop_metrics(res, times, a.num("tail-q"), a.num("latency-limit-s"));
    res.set("peak_rss_mb", rss);
    return;
  }

  // --- per-layer metrics from the traced solves (medians over solves)
  const auto med = [&](const std::string& name) { return median(values_of(tr.total_by_request(name))); };
  const double spmv_s = med("reorder.spmv"), apply_s = med("precond.apply");
  const double spmv_calls = median(values_of(tr.count_by_request("reorder.spmv")));
  const double apply_calls = median(values_of(tr.count_by_request("precond.apply")));
  res.set("mesh.gen_s", gen_s);
  res.set("fem.assemble_s", med("fem.assemble"));
  res.set("fem.bc_s", med("fem.bc"));
  res.set("contact.penalty_s", med("contact.penalty"));
  res.set("plan.lookup_s", med("plan.lookup"));
  res.set("precond.numeric_s", med("precond.numeric"));
  res.set("core.permute_s", med("core.permute"));
  res.set("reorder.spmv_s", spmv_s);
  res.set("reorder.spmv_calls", spmv_calls);
  res.set("reorder.spmv_gbps", spmv_s > 0 ? kb.spmv * spmv_calls / spmv_s / 1e9 : 0.0);
  res.set("precond.apply_s", apply_s);
  res.set("precond.apply_calls", apply_calls);
  res.set("precond.apply_gbps", apply_s > 0 ? kb.apply * apply_calls / apply_s / 1e9 : 0.0);
  res.set("solver.self_s", median(values_of(tr.self_by_request("solver.pcg"))));
  std::vector<double> iters, fpb;
  for (const Solved& s : traced) {
    iters.push_back(s.iterations);
    fpb.push_back(static_cast<double>(s.flops.spmv + s.flops.precond) /
                  (kb.spmv * spmv_calls + kb.apply * apply_calls));
  }
  res.set("solver.iterations", median(iters));
  res.set("solver.flops_per_byte", median(fpb));

  // structure of the warm plan, and one cold plan build timed on its own
  {
    geofem::fem::System s0 = assemble_system(model, lambdas[start], model.mesh.contact_groups);
    const auto sn = geofem::contact::build_supernodes(s0.a.n, model.mesh.contact_groups);
    geofem::par::TeamScope team(cfg.threads);
    plan::PlanConfig pcfg;
    pcfg.precond = cfg.precond;
    pcfg.ordering = cfg.ordering;
    pcfg.colors = cfg.colors;
    pcfg.npe = cfg.npe;
    pcfg.sort_supernodes = cfg.sort_supernodes;
    plan::PlanCache cold(1);
    std::shared_ptr<const plan::SolvePlan> p;
    {
      Scope sp(tr, "plan.symbolic", ++id);
      p = cold.get(s0.a, sn, pcfg);
    }
    res.set("plan.symbolic_s", med("plan.symbolic"));
    const geofem::reorder::DJDSMatrix& dj = *p->djds();
    res.set("reorder.avg_vector_length", dj.average_vector_length());
    res.set("reorder.colors", dj.num_colors());
    res.set("reorder.dummy_share", dj.dummy_percent() / 100.0);
    const double matrix_mb = static_cast<double>(s0.a.memory_bytes()) / 1048576.0;
    note("working set (computed): assembled matrix " + fmt(matrix_mb) + " MiB, one SpMV " +
         fmt(kb.spmv / 1048576.0) + " MiB, one preconditioner apply " +
         fmt(kb.apply / 1048576.0) + " MiB; compare with the LLC size reported by lscpu " +
         "(printed by run.py). GB/s figures use these computed bytes; no roofline ratio.");
  }
  const plan::CacheStats cs = cache->stats();
  res.set("plan.hit_rate", cs.hits + cs.misses ? static_cast<double>(cs.hits) /
                                                     static_cast<double>(cs.hits + cs.misses)
                                               : 0.0);
  res.set("par.speedup", t1_solve / median(times));
  res.set("trace.overhead", median(traced_times) / median(times));
  note("threads=1 baseline solve " + fmt(t1_solve) + " s vs threads=" +
       std::to_string(cfg.threads) + " p50 " + fmt(median(times)) + " s");
}

}  // namespace perfbench
