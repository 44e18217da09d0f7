// Fig 15 of the paper: effect of the coefficient-matrix storage format and
// reordering on single-SMP-node performance of the 3D linear elastic problem:
//   * PDJDS/CM-RCM    — long innermost loops, performance grows with size
//                       (0.5 -> 22.7 GFLOPS on the Earth Simulator)
//   * PDCRS/CM-RCM    — same permutation but CRS storage: loops stay at the
//                       row-length (~27-80), flat ~1.5 GFLOPS
//   * CRS no reorder  — neither vectorizable nor SMP-parallel in the IC
//                       substitution: ~0.3 GFLOPS
//
// The innermost-loop counts and total lengths are measured from the real
// execution of each format on each problem size; the GFLOPS column replays
// them through the Earth Simulator vector model (8 PEs), whose per-loop cost
// (n + n_half) * fpe / rinf is linear in n, so those two sums drive it exactly. The host wall-clock columns are
// reported for reference, twice per format: once under the build's active
// SIMD tier and once under simd::IsaScope(kScalar) — the modern re-run of the
// paper's vectorized-vs-scalar comparison on the same storage formats.

#include <iostream>

#include "common.hpp"
#include "perf/es_model.hpp"
#include "reorder/coloring.hpp"
#include "reorder/djds.hpp"
#include "simd/simd.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace geofem;
  obs::Registry reg;
  obs::Attach attach(&reg);
  bench::describe_problem(reg, 0);
  const perf::EsModel es;
  std::cout << "== Fig 15: storage format / reordering vs modeled ES GFLOPS (1 SMP node) ==\n\n";

  const std::string host_col = std::string("host GFLOPS (") + simd::active_isa() + ")";
  util::Table table({"DOF", "format", "avg loop len", "modeled GFLOPS", "% of peak",
                     host_col, "host GFLOPS (scalar)", "host speedup"});
  const int sizes_small[] = {8, 12, 16, 24};
  const int sizes_paper[] = {8, 16, 24, 32, 48};
  const auto& sizes = bench::paper_scale() ? std::vector<int>(std::begin(sizes_paper), std::end(sizes_paper))
                                           : std::vector<int>(std::begin(sizes_small), std::end(sizes_small));

  for (int n : sizes) {
    const mesh::HexMesh m = mesh::unit_cube(n, n, n);
    fem::System sys = fem::assemble_elasticity(m, {{1.0, 0.3}});
    fem::BoundaryConditions bc;
    bc.fix_nodes(m.nodes_where([](double, double, double z) { return z == 0.0; }), -1);
    bc.surface_load(m, [](double, double, double z) { return z == 1.0; }, 2, -1.0);
    fem::apply_boundary_conditions(sys, bc);
    const std::size_t ndof = sys.a.ndof();

    std::vector<double> x(ndof, 1.0), y(ndof);
    const int sweeps = 10;

    // --- PDJDS/MC ---
    {
      const auto g = sparse::graph_of(sys.a);
      const auto col = reorder::cm_rcm(g, 20);
      reorder::DJDSMatrix dj(sys.a, col, nullptr, {});
      util::FlopCounter fc;
      util::LoopStats ls;
      util::Timer t;
      for (int s = 0; s < sweeps; ++s) dj.spmv(x, y, &fc, &ls);
      const double host = perf::gflops(static_cast<double>(fc.spmv), t.seconds());
      double host_scalar;
      {
        simd::IsaScope scalar(simd::Isa::kScalar);
        util::Timer ts;
        for (int s = 0; s < sweeps; ++s) dj.spmv(x, y);
        host_scalar = perf::gflops(static_cast<double>(fc.spmv), ts.seconds());
      }
      // 8 PEs share the chunks; per-PE work = total/8 in the balanced limit
      const double sec = es.vector_seconds(ls, 18.0) / es.pes_per_node;
      const double gf = perf::gflops(static_cast<double>(fc.spmv), sec);
      table.row({std::to_string(ndof), "PDJDS/CM-RCM", util::Table::fmt(ls.average(), 1),
                 util::Table::fmt(gf, 2),
                 util::Table::fmt(100.0 * gf / (es.peak_per_pe * es.pes_per_node / 1e9), 1),
                 util::Table::fmt(host, 2), util::Table::fmt(host_scalar, 2),
                 util::Table::fmt(host / host_scalar, 2) + "x"});
    }
    // --- PDCRS/MC: same permutation, row-wise CRS loops ---
    {
      util::FlopCounter fc;
      util::LoopStats ls;
      util::Timer t;
      for (int s = 0; s < sweeps; ++s) sys.a.spmv(x, y, &fc, &ls);
      const double host = perf::gflops(static_cast<double>(fc.spmv), t.seconds());
      double host_scalar;
      {
        simd::IsaScope scalar(simd::Isa::kScalar);
        util::Timer ts;
        for (int s = 0; s < sweeps; ++s) sys.a.spmv(x, y);
        host_scalar = perf::gflops(static_cast<double>(fc.spmv), ts.seconds());
      }
      const double sec = es.vector_seconds(ls, 18.0) / es.pes_per_node;
      const double gf = perf::gflops(static_cast<double>(fc.spmv), sec);
      table.row({std::to_string(ndof), "PDCRS/CM-RCM", util::Table::fmt(ls.average(), 1),
                 util::Table::fmt(gf, 2),
                 util::Table::fmt(100.0 * gf / (es.peak_per_pe * es.pes_per_node / 1e9), 1),
                 util::Table::fmt(host, 2), util::Table::fmt(host_scalar, 2),
                 util::Table::fmt(host / host_scalar, 2) + "x"});
    }
    // --- CRS without reordering: scalar, single PE (the IC substitution has
    // --- global dependencies and cannot use the other 7 PEs) ---
    {
      util::FlopCounter fc;
      sys.a.spmv(x, y, &fc, nullptr);
      const double sec = es.scalar_seconds(static_cast<double>(fc.spmv));
      const double gf = perf::gflops(static_cast<double>(fc.spmv), sec);
      table.row({std::to_string(ndof), "CRS no reorder", "-", util::Table::fmt(gf, 2),
                 util::Table::fmt(100.0 * gf / (es.peak_per_pe * es.pes_per_node / 1e9), 2),
                 "-", "-", "-"});
    }
  }
  table.print();
  bench::emit_json(reg, "fig15_storage_formats", argc, argv, {&table});
  return 0;
}
