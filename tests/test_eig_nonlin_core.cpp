#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>

#include "contact/penalty.hpp"
#include "core/geofem.hpp"
#include "eig/lanczos.hpp"
#include "fem/assembly.hpp"
#include "mesh/simple_block.hpp"
#include "nonlin/alm.hpp"
#include "perf/es_model.hpp"
#include "precond/bic.hpp"
#include "precond/sb_bic0.hpp"

namespace gc = geofem::contact;
namespace ge = geofem::eig;
namespace gf = geofem::fem;
namespace gm = geofem::mesh;
namespace gcore = geofem::core;
namespace gp = geofem::precond;

namespace {

struct Problem {
  gm::HexMesh mesh;
  gf::System sys;
  gf::BoundaryConditions bc;
  gc::Supernodes sn;

  explicit Problem(double lambda, gm::SimpleBlockParams bp = {3, 3, 2, 3, 3}) {
    mesh = gm::simple_block(bp);
    sys = gf::assemble_elasticity(mesh, {{1.0, 0.3}});
    gc::add_penalty(sys.a, mesh.contact_groups, lambda);
    bc.fix_nodes(mesh.nodes_where([](double, double, double z) { return z == 0.0; }), -1);
    const double zmax = mesh.bounding_box().hi[2];
    bc.surface_load(
        mesh, [&](double, double, double z) { return std::abs(z - zmax) < 1e-12; }, 2, -1.0);
    gf::apply_boundary_conditions(sys, bc);
    sn = gc::build_supernodes(mesh.num_nodes(), mesh.contact_groups);
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Eigenvalue analysis (Appendix A)
// ---------------------------------------------------------------------------

TEST(Tridiag, KnownEigenvalues) {
  // [[2,-1,0],[-1,2,-1],[0,-1,2]] has eigenvalues 2 - sqrt(2), 2, 2 + sqrt(2)
  auto eig = ge::tridiag_eigenvalues({2, 2, 2}, {-1, -1});
  ASSERT_EQ(eig.size(), 3u);
  EXPECT_NEAR(eig[0], 2 - std::sqrt(2.0), 1e-10);
  EXPECT_NEAR(eig[1], 2.0, 1e-10);
  EXPECT_NEAR(eig[2], 2 + std::sqrt(2.0), 1e-10);
}

TEST(Tridiag, SingleEntry) {
  auto eig = ge::tridiag_eigenvalues({5.0}, {});
  ASSERT_EQ(eig.size(), 1u);
  EXPECT_NEAR(eig[0], 5.0, 1e-10);
}

TEST(Spectrum, SBBIC0FlatInLambda) {
  // Table A.2's signature: SB-BIC(0) eigenvalues of M^-1 A are ~constant in
  // lambda (the absolute kappa depends on the elasticity mesh; what selective
  // blocking buys is independence from the penalty).
  double k_low = 0, k_high = 0;
  {
    Problem pb(1e2);
    gp::SBBIC0 m(pb.sys.a, pb.sn);
    auto est = ge::estimate_spectrum(pb.sys.a, m, pb.sys.b, 200);
    EXPECT_GT(est.emin, 0.0);
    k_low = est.condition();
  }
  {
    Problem pb(1e8);
    gp::SBBIC0 m(pb.sys.a, pb.sn);
    auto est = ge::estimate_spectrum(pb.sys.a, m, pb.sys.b, 200);
    k_high = est.condition();
  }
  EXPECT_LT(k_high, 2.0 * k_low) << k_low << " vs " << k_high;
  EXPECT_GT(k_high, 0.5 * k_low) << k_low << " vs " << k_high;
}

TEST(Spectrum, UnmodifiedDiagonalBoundsEmaxByOne) {
  // With D~ = A_ii (plain block SSOR), M - A = L D^-1 L^T >= 0, so all
  // eigenvalues of M^-1 A are <= 1 — a sharp structural property.
  Problem pb(1e4);
  gp::SBBIC0 m(pb.sys.a, pb.sn, /*modified=*/false);
  auto est = ge::estimate_spectrum(pb.sys.a, m, pb.sys.b, 200);
  EXPECT_LE(est.emax, 1.0 + 1e-6);
  EXPECT_GT(est.emin, 0.0);
}

TEST(Spectrum, BIC0ConditionGrowsWithLambda) {
  // Table A.2: BIC(0) E_min collapses like 1/lambda.
  double k_low = 0, k_high = 0;
  {
    Problem pb(1e2);
    gp::BIC0 m(pb.sys.a);
    k_low = ge::estimate_spectrum(pb.sys.a, m, pb.sys.b, 300).condition();
  }
  {
    Problem pb(1e6);
    gp::BIC0 m(pb.sys.a);
    k_high = ge::estimate_spectrum(pb.sys.a, m, pb.sys.b, 300).condition();
  }
  EXPECT_GT(k_high, 50.0 * k_low) << k_low << " vs " << k_high;
}

// ---------------------------------------------------------------------------
// ALM nonlinear driver (Fig 2)
// ---------------------------------------------------------------------------

namespace {

geofem::nonlin::ALMResult run_alm(double lambda) {
  gm::HexMesh mesh = gm::simple_block({3, 3, 2, 3, 3});
  gf::BoundaryConditions bc;
  bc.fix_nodes(mesh.nodes_where([](double, double, double z) { return z == 0.0; }), -1);
  const double zmax = mesh.bounding_box().hi[2];
  bc.surface_load(
      mesh, [&](double, double, double z) { return std::abs(z - zmax) < 1e-12; }, 2, -1.0);

  geofem::nonlin::ALMOptions opt;
  opt.lambda = lambda;
  opt.constraint_tol = 1e-7;
  auto sn = gc::build_supernodes(mesh.num_nodes(), mesh.contact_groups);
  return geofem::nonlin::solve_tied_contact_alm(
      mesh, {{1.0, 0.3}}, bc,
      [&](const geofem::sparse::BlockCSR& a) { return std::make_unique<gp::SBBIC0>(a, sn); },
      opt);
}

}  // namespace

TEST(ALM, ConvergesAndClosesGap) {
  auto res = run_alm(1e4);
  ASSERT_TRUE(res.converged());
  EXPECT_LT(res.gap_history.back(), 1e-7);
  // gap contracts monotonically
  for (std::size_t c = 1; c < res.gap_history.size(); ++c)
    EXPECT_LT(res.gap_history[c], res.gap_history[c - 1]);
}

TEST(ALM, LargerPenaltyFewerCycles) {
  // Fig 2: the Newton-Raphson (outer) cycle count falls with lambda.
  auto weak = run_alm(1e3);
  auto strong = run_alm(1e6);
  ASSERT_TRUE(weak.converged());
  ASSERT_TRUE(strong.converged());
  EXPECT_LT(strong.cycles, weak.cycles) << strong.cycles << " vs " << weak.cycles;
}

// ---------------------------------------------------------------------------
// Core facade
// ---------------------------------------------------------------------------

TEST(Core, SolveCSRPath) {
  gm::HexMesh mesh = gm::simple_block({3, 3, 2, 3, 3});
  gf::BoundaryConditions bc;
  bc.fix_nodes(mesh.nodes_where([](double, double, double z) { return z == 0.0; }), -1);
  const double zmax = mesh.bounding_box().hi[2];
  bc.surface_load(
      mesh, [&](double, double, double z) { return std::abs(z - zmax) < 1e-12; }, 2, -1.0);

  gcore::SolveConfig cfg;
  cfg.precond = gcore::PrecondKind::kSBBIC0;
  cfg.penalty = 1e6;
  auto rep = gcore::solve(mesh, {{1.0, 0.3}}, bc, cfg);
  EXPECT_TRUE(rep.cg.converged());
  EXPECT_EQ(rep.precond_name, "SB-BIC(0)");
  EXPECT_GT(rep.precond_bytes, 0u);
  EXPECT_EQ(rep.solution.size(), mesh.num_dof());
}

TEST(Core, PDJDSPathMatchesCSRSolution) {
  gm::HexMesh mesh = gm::simple_block({3, 3, 2, 3, 3});
  gf::BoundaryConditions bc;
  bc.fix_nodes(mesh.nodes_where([](double, double, double z) { return z == 0.0; }), -1);
  const double zmax = mesh.bounding_box().hi[2];
  bc.surface_load(
      mesh, [&](double, double, double z) { return std::abs(z - zmax) < 1e-12; }, 2, -1.0);

  gcore::SolveConfig csr, djds;
  csr.penalty = djds.penalty = 1e4;
  csr.cg.tolerance = djds.cg.tolerance = 1e-10;
  djds.ordering = gcore::OrderingKind::kPDJDSMC;
  djds.colors = 12;
  auto r1 = gcore::solve(mesh, {{1.0, 0.3}}, bc, csr);
  auto r2 = gcore::solve(mesh, {{1.0, 0.3}}, bc, djds);
  ASSERT_TRUE(r1.cg.converged());
  ASSERT_TRUE(r2.cg.converged());
  EXPECT_GT(r2.avg_vector_length, 1.0);
  EXPECT_GT(r2.colors_used, 1);
  double err = 0, scale = 0;
  for (std::size_t i = 0; i < r1.solution.size(); ++i) {
    err = std::max(err, std::abs(r1.solution[i] - r2.solution[i]));
    scale = std::max(scale, std::abs(r1.solution[i]));
  }
  EXPECT_LT(err, 1e-6 * scale);
}

TEST(Core, AllPrecondNamesRoundTrip) {
  using K = gcore::PrecondKind;
  for (K k : {K::kDiagonal, K::kScalarIC0, K::kBIC0, K::kBIC1, K::kBIC2, K::kSBBIC0})
    EXPECT_FALSE(gcore::to_string(k).empty());
}

// ---------------------------------------------------------------------------
// Performance model sanity
// ---------------------------------------------------------------------------

TEST(EsModel, LongerLoopsFasterRate) {
  geofem::perf::EsModel es;
  geofem::util::LoopStats short_loops, long_loops;
  short_loops.record(10, 1000);
  long_loops.record(10000, 1);
  // same total elements -> long loops strictly faster
  EXPECT_LT(es.vector_seconds(long_loops, 18.0), es.vector_seconds(short_loops, 18.0));
  // asymptotic rate approaches rinf
  const double t = es.vector_seconds(long_loops, 18.0);
  const double rate = 10000.0 * 18.0 / t;
  EXPECT_GT(rate, 0.9 * es.rinf_per_pe);
}

TEST(EsModel, VectorSecondsIsThePerLoopSum) {
  // The closed form over (count, total_length) equals charging every loop
  // (len + n_half) * fpe / rinf one by one.
  geofem::perf::EsModel es;
  const std::pair<std::int64_t, std::int64_t> recs[] = {
      {1, 1}, {7, 3}, {170, 2}, {513, 1}, {24, 40}, {100000, 2}, {0, 5}, {9, -1}};
  geofem::util::LoopStats loops;
  double expect = 0.0;
  for (const auto& [len, times] : recs) {
    loops.record(len, times);
    if (len > 0 && times > 0)
      expect += static_cast<double>(times) * (static_cast<double>(len) + es.n_half) * 18.0 /
                es.rinf_per_pe;
  }
  EXPECT_NEAR(es.vector_seconds(loops, 18.0), expect, 1e-12 * expect);
}

TEST(EsModel, CommLatencyVsBandwidth) {
  geofem::perf::EsModel es;
  geofem::dist::TrafficStats many_small{10000, 10000 * 8, 0, 0};
  geofem::dist::TrafficStats few_big{10, 10000 * 8, 0, 0};
  EXPECT_GT(es.comm_seconds(many_small, 2), es.comm_seconds(few_big, 2));
}

TEST(EsModel, WorkRatioBreakdown) {
  geofem::perf::TimeBreakdown tb;
  tb.compute = 0.9;
  tb.comm_latency = 0.05;
  tb.comm_bandwidth = 0.05;
  EXPECT_NEAR(tb.work_ratio_percent(), 90.0, 1e-9);
  EXPECT_NEAR(tb.total(), 1.0, 1e-12);
}

TEST(Core, CMRCMOrderingAlsoMatches) {
  gm::HexMesh mesh = gm::simple_block({3, 3, 2, 3, 3});
  gf::BoundaryConditions bc;
  bc.fix_nodes(mesh.nodes_where([](double, double, double z) { return z == 0.0; }), -1);
  const double zmax = mesh.bounding_box().hi[2];
  bc.surface_load(
      mesh, [&](double, double, double z) { return std::abs(z - zmax) < 1e-12; }, 2, -1.0);

  gcore::SolveConfig csr, cmrcm;
  csr.penalty = cmrcm.penalty = 1e6;
  csr.cg.tolerance = cmrcm.cg.tolerance = 1e-10;
  cmrcm.ordering = gcore::OrderingKind::kPDJDSCMRCM;
  cmrcm.colors = 10;
  auto r1 = gcore::solve(mesh, {{1.0, 0.3}}, bc, csr);
  auto r2 = gcore::solve(mesh, {{1.0, 0.3}}, bc, cmrcm);
  ASSERT_TRUE(r1.cg.converged());
  ASSERT_TRUE(r2.cg.converged());
  double err = 0, scale = 0;
  for (std::size_t i = 0; i < r1.solution.size(); ++i) {
    err = std::max(err, std::abs(r1.solution[i] - r2.solution[i]));
    scale = std::max(scale, std::abs(r1.solution[i]));
  }
  EXPECT_LT(err, 1e-6 * scale);
}
