// swjapan_flat_mpi: the paper's flat-MPI counterpart on the same model. One
// caller repeatedly calls dist::solve_distributed on in-process ranks, each
// with one thread: localized SB-BIC(0) in natural ordering from a plan-cached
// factory, two-level per-domain deflation, classic CG, overlap on. The only
// workload with halo exchange, allreduce and coarse correction.
//
// The traced run wraps the PrecondFactory and the preconditioners it returns
// in timing decorators (spans per rank).

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "contact/penalty.hpp"
#include "core/geofem.hpp"
#include "dist/dist_solver.hpp"
#include "part/local_system.hpp"
#include "part/partition.hpp"
#include "plan/cache.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace dist = geofem::dist;
namespace plan = geofem::plan;

namespace {

struct Traffic {
  std::uint64_t messages = 0, bytes = 0, allreduces = 0;
  bool operator==(const Traffic&) const = default;
};

Traffic total_traffic(const dist::DistResult& r) {
  Traffic t;
  for (const auto& s : r.traffic_per_rank) {
    t.messages += s.messages_sent;
    t.bytes += s.bytes_sent;
    t.allreduces += s.allreduces;
  }
  return t;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Everything one flat-MPI deployment holds between solves.
struct Deployment {
  Model model;
  std::vector<geofem::part::LocalSystem> systems;
  std::unique_ptr<plan::PlanCache> cache;
  dist::PrecondFactory factory;
  int split_groups = 0;
};

}  // namespace

void run_swjapan_flat_mpi(const Args& a, Result& res, Tracer& tr) {
  const bool trace = tr.enabled();
  const std::uint64_t seed = a.u64("seed");
  const double seconds = a.num("seconds");
  const double lambda = a.num("lambda");
  const int ranks = a.integer("ranks");
  const auto jitter = static_cast<unsigned>(mix_seed(seed, 1) & 0x7fffffffU);

  dist::DistOptions opt;
  opt.threads = a.integer("threads");
  opt.cg.tolerance = a.num("tol");
  opt.overlap = true;
  opt.telemetry = false;
  opt.coarse.enabled = true;
  opt.coarse.aggregates = geofem::coarse::Aggregates::kPerDomain;
  opt.coarse.mode = geofem::coarse::Mode::kDeflated;
  note("swjapan_flat_mpi: nx=" + a.str("nx") + " ny=" + a.str("ny") + " jitter seed " +
       std::to_string(jitter) + ", lambda " + fmt(lambda) + ", " + std::to_string(ranks) +
       " ranks x " + std::to_string(opt.threads) +
       " thread, localized SB-BIC(0) natural + per-domain deflation, tol " +
       fmt(opt.cg.tolerance));

  // --- set-up: mesh generation, assembly, partitioning, distribution and
  // the warm-up solve on a cold plan cache
  Deployment dep;
  auto t0 = Clock::now();
  dep.model = swjapan_model(a.integer("nx"), a.integer("ny"), jitter);
  const double gen_s = seconds_since(t0);
  require_valid_mesh(dep.model.mesh, "Southwest-Japan-like mesh");
  t0 = Clock::now();
  double asm_s = 0.0, part_s = 0.0, distr_s = 0.0;
  {
    const geofem::fem::System sys =
        assemble_system(dep.model, lambda, dep.model.mesh.contact_groups);
    asm_s = seconds_since(t0);
    t0 = Clock::now();
    const geofem::part::Partition p = geofem::part::rcb_contact_aware(dep.model.mesh, ranks);
    part_s = seconds_since(t0);
    dep.split_groups = geofem::part::split_contact_groups(dep.model.mesh, p);
    t0 = Clock::now();
    dep.systems = geofem::part::distribute(sys.a, sys.b, p);
    distr_s = seconds_since(t0);
  }
  t0 = Clock::now();
  dep.cache = std::make_unique<plan::PlanCache>(4 * static_cast<std::size_t>(ranks));
  plan::PlanConfig pcfg;
  pcfg.precond = plan::PrecondKind::kSBBIC0;
  pcfg.ordering = plan::OrderingKind::kNatural;
  dep.factory = dist::make_plan_factory(*dep.cache, pcfg, dep.model.mesh.contact_groups);
  opt.plan_cache = dep.cache.get();
  const dist::DistResult warm = dist::solve_distributed(dep.systems, dep.factory, opt);
  const double setup_s = gen_s + asm_s + part_s + distr_s + seconds_since(t0);
  ++res.attempted;
  if (!warm.converged()) res.fail_op("warm-up solve did not converge");
  note("setup: " + fmt(setup_s) + " s; contact groups split by the partition: " +
       std::to_string(dep.split_groups));
  res.set("setup_s", setup_s);
  if (setup_only(a)) return;

  // --- traced factory: spans around each rank's preconditioner set-up and
  // every apply of the preconditioner it returns
  std::uint64_t id = 0;
  std::int64_t root = -1;
  const dist::PrecondFactory timed_factory =
      [&](const geofem::part::LocalSystem& ls, const geofem::sparse::BlockCSR& aii,
          geofem::precond::Precision pr) -> geofem::precond::PreconditionerPtr {
    geofem::precond::PreconditionerPtr p;
    {
      Scope s(tr, "precond.setup", id, root, ls.domain);
      p = dep.factory(ls, aii, pr);
    }
    return std::make_unique<TimedPreconditioner>(std::move(p), tr, id, root, ls.domain);
  };

  // --- timed closed loop; in the traced run every untraced solve is followed
  // by a traced one
  std::vector<double> times, traced_times;
  std::vector<double> first_x;
  int first_iters = -1;
  Traffic first_traffic;
  std::vector<std::vector<double>> differing;
  std::vector<dist::DistResult> traced;
  std::size_t solves = 0;
  const auto loop0 = Clock::now();
  while (seconds_since(loop0) < seconds) {
    std::vector<double> x;
    t0 = Clock::now();
    dist::DistResult r = dist::solve_distributed(dep.systems, dep.factory, opt, &x);
    times.push_back(seconds_since(t0));
    ++solves;
    ++res.attempted;
    if (!r.converged()) res.fail_op("distributed solve did not converge");
    if (first_iters < 0) {
      first_iters = r.iterations;
      first_traffic = total_traffic(r);
      first_x = std::move(x);
    } else {
      if (r.iterations != first_iters)
        res.fail_run("iteration count changed from " + std::to_string(first_iters) + " to " +
                     std::to_string(r.iterations));
      if (!(total_traffic(r) == first_traffic))
        res.fail_run("message / byte / allreduce counts changed between identical solves");
      if (!same_bits(x, first_x)) differing.push_back(std::move(x));
    }
    if (trace) {
      ++id;
      t0 = Clock::now();
      root = tr.begin("dist.solve", id);
      std::vector<double> xt;
      dist::DistResult rt = dist::solve_distributed(dep.systems, timed_factory, opt, &xt);
      tr.end(root);
      traced_times.push_back(seconds_since(t0));
      ++res.attempted;
      if (!rt.converged() || rt.iterations != first_iters || !same_bits(xt, first_x))
        res.fail_op("traced solve differs from the untraced one");
      traced.push_back(std::move(rt));
    }
  }
  const double rss = peak_rss_mb();
  note("timed loop: " + std::to_string(solves) + " solves in " + fmt(seconds_since(loop0)) +
       " s; per solve " + std::to_string(first_iters) + " iterations, " +
       std::to_string(first_traffic.messages) + " messages, " +
       std::to_string(first_traffic.bytes) + " bytes, " +
       std::to_string(first_traffic.allreduces) + " allreduces (summed over ranks)");
  note("exact counts {\"iterations\": " + std::to_string(first_iters) + ", \"messages\": " +
       std::to_string(first_traffic.messages) + ", \"bytes\": " +
       std::to_string(first_traffic.bytes) + ", \"allreduces\": " +
       std::to_string(first_traffic.allreduces) + "}");

  // --- answer checks on the benchmark's own global assembly
  {
    const geofem::fem::System sys =
        assemble_system(dep.model, lambda, dep.model.mesh.contact_groups);
    geofem::core::SolveConfig rc;
    rc.precond = geofem::core::PrecondKind::kSBBIC0;
    rc.ordering = geofem::core::OrderingKind::kNatural;
    rc.threads = 1;
    rc.cg.tolerance = opt.cg.tolerance;
    rc.use_plan_cache = false;
    const geofem::core::SolveReport ref = geofem::core::solve_system(
        sys, geofem::contact::build_supernodes(sys.a.n, dep.model.mesh.contact_groups), rc);
    if (!ref.converged()) throw std::runtime_error("reference solve did not converge");
    note("reference: natural ordering, 1 thread, " + std::to_string(ref.cg.iterations) +
         " iterations");
    const AnswerCheck check{&sys,
                            ref.solution,
                            true_relative_residual(sys, ref.solution),
                            a.num("residual-tol"),
                            a.num("residual-factor"),
                            a.num("solution-tol")};
    if (!check(first_x, "first solve"))
      for (std::size_t i = 0; i < solves; ++i) res.fail_op("wrong answer");
    for (const auto& x : differing)
      if (!check(x, "repeated solve (not bit-identical)")) res.fail_op("wrong answer");
  }

  if (!trace) {
    closed_loop_metrics(res, times, a.num("tail-q"), a.num("latency-limit-s"));
    res.set("peak_rss_mb", rss);
    return;
  }

  // --- per-layer metrics (medians over traced solves)
  std::vector<double> setup_max, apply_max, imbalance, calls, rest, msgs, bytes, allred, iters;
  {
    const std::vector<Span> spans = tr.spans();
    for (std::size_t k = 0; k < traced.size(); ++k) {
      const std::uint64_t rid = k + 1;
      std::vector<double> su(static_cast<std::size_t>(ranks), 0.0),
          ap(static_cast<std::size_t>(ranks), 0.0), nc(static_cast<std::size_t>(ranks), 0.0);
      double wall = 0.0;
      for (const Span& s : spans) {
        if (s.request != rid) continue;
        const auto lane = static_cast<std::size_t>(s.lane);
        if (s.name == "precond.setup") su[lane] += s.end - s.start;
        if (s.name == "precond.apply") {
          ap[lane] += s.end - s.start;
          nc[lane] += 1.0;
        }
        if (s.name == "dist.solve") wall = s.end - s.start;
      }
      const double amax = *std::max_element(ap.begin(), ap.end());
      const double smax = *std::max_element(su.begin(), su.end());
      setup_max.push_back(smax);
      apply_max.push_back(amax);
      imbalance.push_back(mean(ap) > 0 ? amax / mean(ap) : 0.0);
      calls.push_back(mean(nc));
      rest.push_back(wall - amax - smax);
      const Traffic t = total_traffic(traced[k]);
      msgs.push_back(static_cast<double>(t.messages));
      bytes.push_back(static_cast<double>(t.bytes));
      allred.push_back(static_cast<double>(t.allreduces));
      iters.push_back(traced[k].iterations);
    }
  }
  res.set("mesh.gen_s", gen_s);
  res.set("fem.assemble_s", asm_s);
  res.set("part.partition_s", part_s);
  res.set("part.distribute_s", distr_s);
  res.set("part.split_groups", dep.split_groups);
  res.set("precond.setup_s_max", median(setup_max));
  res.set("precond.apply_s_max", median(apply_max));
  res.set("precond.apply_imbalance", median(imbalance));
  res.set("precond.apply_calls", median(calls));
  res.set("dist.messages", median(msgs));
  res.set("dist.bytes", median(bytes));
  res.set("dist.allreduces", median(allred));
  res.set("dist.rest_s", median(rest));
  res.set("solver.iterations", median(iters));
  const dist::DistResult& last = traced.back();
  res.set("coarse.dim", last.coarse_status == geofem::coarse::SetupStatus::kActive
                            ? static_cast<double>(last.coarse_dim)
                            : 0.0);
  note("coarse level: " + geofem::coarse::to_string(last.coarse_status) + ", " +
       std::to_string(last.coarse_dim) + " coarse DOF");
  const plan::CacheStats cs = dep.cache->stats();
  res.set("plan.hit_rate", cs.hits + cs.misses ? static_cast<double>(cs.hits) /
                                                     static_cast<double>(cs.hits + cs.misses)
                                               : 0.0);
  res.set("trace.overhead", median(traced_times) / median(times));
}

}  // namespace perfbench
