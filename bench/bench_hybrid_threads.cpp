// Thread-scaling of the hybrid solve (DESIGN.md §5e). Per OpenMP team size:
// the set-up (assembly + penalty + boundary conditions, and the PDJDS numeric
// phase on one shared plan) and one serial SB-BIC(0) PDJDS solve. The
// assembled matrix, the unit factors and the residual histories must be
// BIT-IDENTICAL across team sizes (the par layer's determinism contract —
// the binary exits nonzero on any mismatch, which is what the CI smoke step
// checks). Measured wall-clock speed-up is reported next to the Earth
// Simulator hybrid model's prediction (vector compute divided across the
// node's PEs plus a fork/join cost per parallel region); on hosts with a
// single core the measured column is flat while the model shows what an SMP
// node would do. GEOFEM_BENCH_TINY=1 shrinks the mesh and the team sweep.

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "par/par.hpp"
#include "perf/es_model.hpp"
#include "plan/plan.hpp"
#include "precond/djds_bic.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace geofem;
  const char* tiny_env = std::getenv("GEOFEM_BENCH_TINY");
  const bool tiny = tiny_env && *tiny_env && std::string(tiny_env) != "0";
  const auto params = tiny                   ? mesh::SimpleBlockParams{4, 4, 3, 4, 4}
                      : bench::paper_scale() ? mesh::SimpleBlockParams{12, 12, 9, 12, 12}
                                             : mesh::SimpleBlockParams{6, 6, 4, 6, 6};
  const std::vector<int> teams = tiny ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
  const mesh::HexMesh m = mesh::simple_block(params);
  const auto bc = bench::simple_block_bc(m);
  const double lambda = 1e6;
  const auto sn = contact::build_supernodes(m.num_nodes(), m.contact_groups);

  obs::Registry reg;
  obs::Attach attach(&reg);
  bench::describe_problem(reg, m.num_dof(), lambda);
  reg.set_meta("hardware_threads", static_cast<double>(par::hardware_threads()));
  std::cout << "== Hybrid thread scaling, SB-BIC(0) PDJDS, " << m.num_dof() << " DOF ("
            << par::hardware_threads() << " hardware threads) ==\n\n";

  const perf::EsModel es;
  // Parallel regions per CG iteration in the ES hybrid model: three SpMV
  // phases, two substitution sweeps, and ~5 BLAS-1 kernels.
  constexpr double kRegionsPerIteration = 10.0;

  util::Table table({"threads", "iters", "assemble [s]", "numeric [s]", "time [s]", "speedup",
                     "model speedup", "bit-identical"});
  bool ok = true;
  core::SolveReport base;
  fem::System base_sys;
  std::vector<sparse::DenseLU> base_factors;
  std::unique_ptr<plan::SolvePlan> splan;
  double t1 = 0.0, model_t1 = 0.0;
  const auto same_bytes = [](const auto& a, const auto& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
  };

  for (int t : teams) {
    par::TeamScope team(t);
    util::Timer asm_timer;
    const fem::System sys = bench::assemble(m, bc, lambda);
    const double assemble_s = asm_timer.seconds();

    core::SolveConfig cfg;
    cfg.precond = core::PrecondKind::kSBBIC0;
    cfg.ordering = core::OrderingKind::kPDJDSMC;
    cfg.penalty = lambda;
    cfg.threads = t;
    cfg.cg.max_iterations = 4000;
    cfg.cg.record_residuals = true;
    cfg.use_plan_cache = false;

    // Numeric phase on one plan shared by every team size.
    if (!splan) {
      plan::PlanConfig pcfg;
      pcfg.precond = cfg.precond;
      pcfg.ordering = cfg.ordering;
      splan = std::make_unique<plan::SolvePlan>(sys.a, sn, pcfg);
    }
    util::Timer numeric_timer;
    const auto prec = splan->numeric(sys.a);
    const double numeric_s = numeric_timer.seconds();
    const auto& factors = dynamic_cast<const precond::DJDSBIC&>(*prec).unit_factors();

    util::Timer timer;
    const auto rep = core::solve_system(sys, sn, cfg);
    const double wall = timer.seconds();
    if (!rep.converged()) {
      std::cerr << "FAIL: threads=" << t << " did not converge\n";
      ok = false;
    }

    bool identical = true;
    if (t == teams.front()) {
      base = rep;
      base_sys = sys;
      base_factors = factors;
      t1 = wall;
    } else {
      const bool same_matrix = same_bytes(sys.a.rowptr, base_sys.a.rowptr) &&
                               same_bytes(sys.a.colind, base_sys.a.colind) &&
                               same_bytes(sys.a.val, base_sys.a.val) &&
                               same_bytes(sys.b, base_sys.b);
      bool same_factors = factors.size() == base_factors.size();
      for (std::size_t u = 0; same_factors && u < factors.size(); ++u) {
        const auto n = static_cast<std::size_t>(factors[u].size());
        same_factors = factors[u].size() == base_factors[u].size() &&
                       factors[u].pivots() == base_factors[u].pivots() &&
                       std::memcmp(factors[u].factor(), base_factors[u].factor(),
                                   n * n * sizeof(double)) == 0;
      }
      const bool same_solve = rep.cg.iterations == base.cg.iterations &&
                              same_bytes(rep.cg.residual_history, base.cg.residual_history) &&
                              same_bytes(rep.solution, base.solution);
      identical = same_matrix && same_factors && same_solve;
      if (!identical) {
        std::cerr << "FAIL: threads=" << t << " is not bit-identical to threads=" << teams.front()
                  << " (matrix " << (same_matrix ? "same" : "DIFFERS") << ", factors "
                  << (same_factors ? "same" : "DIFFER") << ", solve "
                  << (same_solve ? "same" : "DIFFERS") << ")\n";
        ok = false;
      }
    }

    // ES hybrid model: vector compute spread over t PEs of the node, plus a
    // fork/join per parallel region per iteration.
    const double t_vec = es.vector_seconds(rep.cg.loops, 18.0);
    const double model_t =
        t_vec / t + es.omp_seconds(static_cast<std::int64_t>(
                        kRegionsPerIteration * static_cast<double>(rep.cg.iterations)));
    if (t == teams.front()) model_t1 = model_t;

    const double speedup = wall > 0.0 ? t1 / wall : 0.0;
    const double model_speedup = model_t > 0.0 ? model_t1 / model_t : 0.0;
    table.row({std::to_string(t), std::to_string(rep.cg.iterations),
               util::Table::sci(assemble_s, 2), util::Table::sci(numeric_s, 2),
               util::Table::sci(wall, 2), util::Table::fmt(speedup, 2) + "x",
               util::Table::fmt(model_speedup, 2) + "x", identical ? "yes" : "NO"});
    reg.gauge("hybrid.speedup.threads_" + std::to_string(t))->set(speedup);
    reg.gauge("hybrid.model_speedup.threads_" + std::to_string(t))->set(model_speedup);
    reg.gauge("hybrid.assemble_seconds.threads_" + std::to_string(t))->set(assemble_s);
    reg.gauge("hybrid.numeric_seconds.threads_" + std::to_string(t))->set(numeric_s);
  }

  table.print();
  bench::emit_json(reg, "hybrid_threads", argc, argv, {&table});
  if (!ok) {
    std::cerr << "\nhybrid smoke FAILED\n";
    return 1;
  }
  std::cout << "\nhybrid smoke passed (assembled matrix, factors and residual histories "
               "bit-identical across team sizes)\n";
  return 0;
}
