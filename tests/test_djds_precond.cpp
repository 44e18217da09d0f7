#include <gtest/gtest.h>

#include <cmath>

#include "contact/penalty.hpp"
#include "fem/assembly.hpp"
#include "mesh/simple_block.hpp"
#include "precond/djds_bic.hpp"
#include "precond/sb_bic0.hpp"
#include "reorder/coloring.hpp"
#include "reorder/djds.hpp"
#include "solver/cg.hpp"
#include "util/rng.hpp"

namespace gc = geofem::contact;
namespace gf = geofem::fem;
namespace gm = geofem::mesh;
namespace gp = geofem::precond;
namespace gr = geofem::reorder;
namespace gs = geofem::sparse;

namespace {

struct Fixture {
  gm::HexMesh mesh;
  gf::System sys;
  gc::Supernodes sn;
  gr::Coloring coloring;

  explicit Fixture(double lambda, int colors = 8) {
    mesh = gm::simple_block({3, 3, 2, 3, 3});
    sys = gf::assemble_elasticity(mesh, {{1.0, 0.3}});
    gc::add_penalty(sys.a, mesh.contact_groups, lambda);
    gf::BoundaryConditions bc;
    bc.fix_nodes(mesh.nodes_where([](double, double, double z) { return z == 0.0; }), -1);
    const double zmax = mesh.bounding_box().hi[2];
    bc.surface_load(
        mesh, [&](double, double, double z) { return std::abs(z - zmax) < 1e-12; }, 2, -1.0);
    gf::apply_boundary_conditions(sys, bc);
    sn = gc::build_supernodes(mesh.num_nodes(), mesh.contact_groups);
    const auto g = gs::graph_of(sys.a);
    auto q = gr::quotient_graph(g, sn.node_to_super, sn.count());
    coloring = gr::lift_coloring(gr::multicolor(q, colors), sn.node_to_super, sys.a.n);
  }
};

/// Solve in DJDS ordering, return (iterations, true relative residual).
std::pair<int, double> solve_djds(const Fixture& f, const gr::DJDSMatrix& dj,
                                  const gp::DJDSBIC& m) {
  const std::size_t n = f.sys.a.ndof();
  std::vector<double> pb(n), px(n, 0.0);
  for (int i = 0; i < f.sys.a.n; ++i)
    for (int c = 0; c < 3; ++c)
      pb[static_cast<std::size_t>(dj.perm()[static_cast<std::size_t>(i)] * 3 + c)] =
          f.sys.b[static_cast<std::size_t>(i * 3 + c)];
  geofem::solver::CGOptions opt;
  auto res = geofem::solver::pcg(
      [&dj](std::span<const double> in, std::span<double> out, geofem::util::FlopCounter* fc,
            geofem::util::LoopStats* ls) { dj.spmv(in, out, fc, ls); },
      m, pb, px, opt);
  // true residual in original ordering
  std::vector<double> x(n), r(n);
  for (int i = 0; i < f.sys.a.n; ++i)
    for (int c = 0; c < 3; ++c)
      x[static_cast<std::size_t>(i * 3 + c)] =
          px[static_cast<std::size_t>(dj.perm()[static_cast<std::size_t>(i)] * 3 + c)];
  f.sys.a.spmv(x, r, nullptr, nullptr);
  double num = 0, den = 0;
  for (std::size_t i = 0; i < n; ++i) {
    num += (r[i] - f.sys.b[i]) * (r[i] - f.sys.b[i]);
    den += f.sys.b[i] * f.sys.b[i];
  }
  return {res.iterations, std::sqrt(num / den)};
}

}  // namespace

TEST(DJDSBIC, SolvesContactProblem) {
  Fixture f(1e4);
  gr::DJDSMatrix dj(f.sys.a, f.coloring, &f.sn, {});
  gp::DJDSBIC m(dj);
  EXPECT_EQ(m.name(), "SB-BIC(0) PDJDS");
  auto [iters, resid] = solve_djds(f, dj, m);
  EXPECT_LT(resid, 1e-6);
  EXPECT_LT(iters, 400);
}

TEST(DJDSBIC, RobustInLambda) {
  int it_low = 0, it_high = 0;
  {
    Fixture f(1e2);
    gr::DJDSMatrix dj(f.sys.a, f.coloring, &f.sn, {});
    gp::DJDSBIC m(dj);
    auto [iters, resid] = solve_djds(f, dj, m);
    EXPECT_LT(resid, 1e-6);
    it_low = iters;
  }
  {
    Fixture f(1e8);
    gr::DJDSMatrix dj(f.sys.a, f.coloring, &f.sn, {});
    gp::DJDSBIC m(dj);
    auto [iters, resid] = solve_djds(f, dj, m);
    EXPECT_LT(resid, 1e-4);
    it_high = iters;
  }
  EXPECT_LE(std::abs(it_high - it_low), 5) << it_low << " vs " << it_high;
}

TEST(DJDSBIC, ApplyEquivalentToCSRPathWithSameOrder) {
  // With ONE color... impossible (adjacent rows). Instead check linearity and
  // SPD-consistency: z = M^-1 r must satisfy symmetry <M^-1 r1, r2> = <r1, M^-1 r2>.
  Fixture f(1e4);
  gr::DJDSMatrix dj(f.sys.a, f.coloring, &f.sn, {});
  gp::DJDSBIC m(dj);
  const std::size_t n = f.sys.a.ndof();
  geofem::util::Rng rng(3);
  std::vector<double> r1(n), r2(n), z1(n), z2(n);
  for (std::size_t i = 0; i < n; ++i) {
    r1[i] = rng.uniform(-1, 1);
    r2[i] = rng.uniform(-1, 1);
  }
  m.apply(r1, z1, nullptr, nullptr);
  m.apply(r2, z2, nullptr, nullptr);
  double s12 = 0, s21 = 0, scale = 0;
  for (std::size_t i = 0; i < n; ++i) {
    s12 += z1[i] * r2[i];
    s21 += z2[i] * r1[i];
    scale += std::abs(z1[i] * r2[i]);
  }
  EXPECT_NEAR(s12, s21, 1e-9 * scale);
}

TEST(DJDSBIC, PlainBIC0WhenNoSupernodes) {
  Fixture f(1e2);
  const auto g = gs::graph_of(f.sys.a);
  auto col = gr::multicolor(g, 8);
  gr::DJDSMatrix dj(f.sys.a, col, nullptr, {});
  gp::DJDSBIC m(dj);
  EXPECT_EQ(m.name(), "BIC(0) PDJDS");
  auto [iters, resid] = solve_djds(f, dj, m);
  EXPECT_LT(resid, 1e-6);
  (void)iters;
}

TEST(DJDSBIC, StructuralLoopsRecorded) {
  Fixture f(1e4);
  gr::DJDSMatrix dj(f.sys.a, f.coloring, &f.sn, {});
  gp::DJDSBIC m(dj);
  EXPECT_GT(m.structural_loops().count(), 0);
  EXPECT_GT(m.structural_loops().average(), 0.0);
}

TEST(DJDSBIC, FewerColorsLongerPrecondLoops) {
  Fixture f5(1e4, 5), f40(1e4, 40);
  gr::DJDSMatrix dj5(f5.sys.a, f5.coloring, &f5.sn, {});
  gr::DJDSMatrix dj40(f40.sys.a, f40.coloring, &f40.sn, {});
  gp::DJDSBIC m5(dj5);
  gp::DJDSBIC m40(dj40);
  EXPECT_GT(m5.structural_loops().average(), m40.structural_loops().average());
}
