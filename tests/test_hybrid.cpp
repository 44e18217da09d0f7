// Determinism tier of the hybrid execution layer (DESIGN.md §5e): residual
// histories and solutions must be bit-identical for any OpenMP team size and
// with halo overlap on or off. These are strict EXPECT_EQ comparisons on
// doubles — any reduction-order change in the threaded kernels fails here.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "contact/penalty.hpp"
#include "core/geofem.hpp"
#include "dist/dist_solver.hpp"
#include "fem/assembly.hpp"
#include "mesh/simple_block.hpp"
#include "mesh/southwest_japan.hpp"
#include "obs/registry.hpp"
#include "par/par.hpp"
#include "part/local_system.hpp"
#include "part/partition.hpp"
#include "plan/plan.hpp"
#include "precond/djds_bic.hpp"
#include "precond/sb_bic0.hpp"
#include "util/rng.hpp"

namespace gc = geofem::contact;
namespace gcore = geofem::core;
namespace gd = geofem::dist;
namespace gf = geofem::fem;
namespace gm = geofem::mesh;
namespace gpar = geofem::par;
namespace gpart = geofem::part;
namespace gplan = geofem::plan;
namespace gp = geofem::precond;
namespace gs = geofem::sparse;

namespace {

struct Problem {
  gm::HexMesh mesh;
  gf::System sys;

  explicit Problem(double lambda = 1e6, gm::SimpleBlockParams bp = {3, 3, 2, 3, 3}) {
    mesh = gm::simple_block(bp);
    sys = gf::assemble_elasticity(mesh, {{1.0, 0.3}});
    gc::add_penalty(sys.a, mesh.contact_groups, lambda);
    gf::BoundaryConditions bc;
    bc.fix_nodes(mesh.nodes_where([](double, double, double z) { return z == 0.0; }), -1);
    const double zmax = mesh.bounding_box().hi[2];
    bc.surface_load(
        mesh, [&](double, double, double z) { return std::abs(z - zmax) < 1e-12; }, 2, -1.0);
    gf::apply_boundary_conditions(sys, bc);
  }
};

void expect_same_report(const gcore::SolveReport& a, const gcore::SolveReport& b,
                        const char* what) {
  EXPECT_EQ(a.cg.iterations, b.cg.iterations) << what;
  ASSERT_EQ(a.cg.residual_history.size(), b.cg.residual_history.size()) << what;
  for (std::size_t k = 0; k < a.cg.residual_history.size(); ++k)
    ASSERT_EQ(a.cg.residual_history[k], b.cg.residual_history[k])
        << what << ": residual " << k << " differs";
  ASSERT_EQ(a.solution.size(), b.solution.size()) << what;
  for (std::size_t i = 0; i < a.solution.size(); ++i)
    ASSERT_EQ(a.solution[i], b.solution[i]) << what << ": solution component " << i;
}

}  // namespace

// ---------------------------------------------------------------------------
// Serial solver: threads = 1, 2, 4 bit-identical for every preconditioner
// ---------------------------------------------------------------------------

class HybridSerial : public ::testing::TestWithParam<gcore::PrecondKind> {};

TEST_P(HybridSerial, ResidualHistoryBitIdenticalAcrossTeamSizes) {
  Problem pb;
  const auto sn = gc::build_supernodes(pb.sys.a.n, pb.mesh.contact_groups);
  gcore::SolveConfig cfg;
  cfg.precond = GetParam();
  cfg.cg.tolerance = 1e-8;
  cfg.cg.record_residuals = true;
  cfg.use_plan_cache = false;  // isolate the kernels, not the cache

  cfg.threads = 1;
  const auto base = gcore::solve_system(pb.sys, sn, cfg);
  EXPECT_TRUE(base.converged());
  for (int t : {2, 4}) {
    cfg.threads = t;
    const auto rep = gcore::solve_system(pb.sys, sn, cfg);
    expect_same_report(base, rep, t == 2 ? "threads=2" : "threads=4");
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, HybridSerial,
                         ::testing::Values(gcore::PrecondKind::kBIC0, gcore::PrecondKind::kBIC1,
                                           gcore::PrecondKind::kSBBIC0,
                                           gcore::PrecondKind::kBlockDiagonal),
                         [](const auto& info) {
                           switch (info.param) {
                             case gcore::PrecondKind::kBIC0: return "BIC0";
                             case gcore::PrecondKind::kBIC1: return "BIC1";
                             case gcore::PrecondKind::kSBBIC0: return "SBBIC0";
                             case gcore::PrecondKind::kBlockDiagonal: return "BlockDiagonal";
                             default: return "other";
                           }
                         });

TEST(HybridSerial, PDJDSOrderingBitIdenticalAcrossTeamSizes) {
  Problem pb;
  const auto sn = gc::build_supernodes(pb.sys.a.n, pb.mesh.contact_groups);
  gcore::SolveConfig cfg;
  cfg.precond = gcore::PrecondKind::kSBBIC0;
  cfg.ordering = gcore::OrderingKind::kPDJDSMC;
  cfg.colors = 4;
  cfg.npe = 2;
  cfg.cg.tolerance = 1e-8;
  cfg.cg.record_residuals = true;
  cfg.use_plan_cache = false;

  cfg.threads = 1;
  const auto base = gcore::solve_system(pb.sys, sn, cfg);
  EXPECT_TRUE(base.converged());
  for (int t : {2, 4}) {
    cfg.threads = t;
    const auto rep = gcore::solve_system(pb.sys, sn, cfg);
    expect_same_report(base, rep, "PDJDS");
  }
}

// ---------------------------------------------------------------------------
// Threaded set-up: assembly, boundary conditions and the PDJDS numeric phase
// give the same bytes for any team size and match the serial algorithms.
// ---------------------------------------------------------------------------

namespace {

template <class V>
::testing::AssertionResult same_bytes(const V& a, const V& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << "sizes " << a.size() << " vs " << b.size();
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) != 0)
    return ::testing::AssertionFailure() << "contents differ";
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_matrix(const gs::BlockCSR& a, const gs::BlockCSR& b) {
  if (a.n != b.n) return ::testing::AssertionFailure() << "block rows differ";
  if (auto r = same_bytes(a.rowptr, b.rowptr); !r) return r << " (rowptr)";
  if (auto r = same_bytes(a.colind, b.colind); !r) return r << " (colind)";
  if (auto r = same_bytes(a.val, b.val); !r) return r << " (val)";
  return ::testing::AssertionSuccess();
}

/// The serial element loop through BlockCSRBuilder: the reference the
/// threaded assembly must reproduce bit for bit.
gs::BlockCSR serial_assembly(const gm::HexMesh& m, const std::vector<gf::Material>& mats) {
  gs::BlockCSRBuilder builder(m.num_nodes());
  for (const auto& h : m.hexes)
    for (int a : h)
      for (int b : h)
        if (a != b) builder.add_pattern(a, b);
  for (const auto& g : m.contact_groups)
    for (int a : g)
      for (int b : g)
        if (a != b) builder.add_pattern(a, b);
  builder.finalize_pattern();
  double ke[24 * 24];
  for (std::size_t e = 0; e < m.hexes.size(); ++e) {
    const auto& h = m.hexes[e];
    std::array<std::array<double, 3>, 8> xyz;
    for (std::size_t v = 0; v < 8; ++v) xyz[v] = m.coords[static_cast<std::size_t>(h[v])];
    const auto zid = static_cast<std::size_t>(m.zone.empty() ? 0 : m.zone[e]);
    gf::hex_stiffness(xyz, mats[zid < mats.size() ? zid : 0], ke);
    for (int a = 0; a < 8; ++a)
      for (int b = 0; b < 8; ++b) {
        double blk[9];
        for (int r = 0; r < 3; ++r)
          for (int c = 0; c < 3; ++c) blk[3 * r + c] = ke[(3 * a + r) * 24 + (3 * b + c)];
        builder.add_block(h[static_cast<std::size_t>(a)], h[static_cast<std::size_t>(b)], blk);
      }
  }
  return builder.take();
}

const std::vector<gf::Material>& zone_materials() {
  static const std::vector<gf::Material> mats{{1.0, 0.3}, {2.0, 0.25}, {0.5, 0.35}};
  return mats;
}

gm::HexMesh small_swjapan() {
  gm::SouthwestJapanParams sp;
  sp.nx = 8;
  sp.ny = 6;
  return gm::southwest_japan_like(sp);
}

gf::BoundaryConditions swjapan_bc(const gm::HexMesh& m) {
  gf::BoundaryConditions bc;
  const double zmin = m.bounding_box().lo[2];
  bc.fix_nodes(m.nodes_where([zmin](double, double, double z) { return z < zmin + 1e-9; }), -1);
  bc.body_force(m, 2, -1.0);
  return bc;
}

gf::System swjapan_system(const gm::HexMesh& m, double lambda) {
  gf::System sys = gf::assemble_elasticity(m, zone_materials());
  gc::add_penalty(sys.a, m.contact_groups, lambda);
  gf::apply_boundary_conditions(sys, swjapan_bc(m));
  return sys;
}

/// The pre-plan-resident PDJDS factorization: permute the whole matrix into
/// the DJDS order and run the shared selective-block factorization on the
/// ordering units (supernode ranges or singletons, ascending new row).
std::vector<gs::DenseLU> permuted_reference_factors(const gs::BlockCSR& a,
                                                    const geofem::reorder::DJDSMatrix& dj) {
  const std::vector<int>& perm = dj.perm();
  gs::BlockCSRBuilder b(a.n);
  for (int i = 0; i < a.n; ++i)
    for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e)
      b.add_pattern(perm[static_cast<std::size_t>(i)],
                    perm[static_cast<std::size_t>(a.colind[e])]);
  b.finalize_pattern();
  for (int i = 0; i < a.n; ++i)
    for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e)
      b.add_block(perm[static_cast<std::size_t>(i)], perm[static_cast<std::size_t>(a.colind[e])],
                  a.block(e));
  const gs::BlockCSR ap = b.take();
  gc::Supernodes units;
  units.node_to_super.assign(static_cast<std::size_t>(a.n), -1);
  for (int i = 0; i < a.n;) {
    const int r = dj.range_of_row(i);
    const int size = r >= 0 ? dj.super_ranges()[static_cast<std::size_t>(r)].size : 1;
    std::vector<int> mem;
    for (int t = 0; t < size; ++t) {
      units.node_to_super[static_cast<std::size_t>(i + t)] = units.count();
      mem.push_back(i + t);
    }
    units.members.push_back(std::move(mem));
    i += size;
  }
  return gp::sb_factor_diagonals(ap, units);
}

::testing::AssertionResult same_factors(const std::vector<gs::DenseLU>& a,
                                        const std::vector<gs::DenseLU>& b) {
  if (a.size() != b.size()) return ::testing::AssertionFailure() << "unit counts differ";
  for (std::size_t u = 0; u < a.size(); ++u) {
    const auto n = static_cast<std::size_t>(a[u].size());
    if (a[u].size() != b[u].size() || a[u].pivots() != b[u].pivots() ||
        std::memcmp(a[u].factor(), b[u].factor(), n * n * sizeof(double)) != 0)
      return ::testing::AssertionFailure() << "unit " << u << " differs";
  }
  return ::testing::AssertionSuccess();
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  geofem::util::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

}  // namespace

TEST(HybridSetup, AssemblyAndBcBitIdenticalAcrossTeamSizes) {
  const gm::HexMesh sw = small_swjapan();
  const gm::HexMesh blk = gm::simple_block({6, 6, 4, 6, 6});
  ASSERT_FALSE(sw.contact_groups.empty());
  ASSERT_FALSE(sw.zone.empty());
  for (const gm::HexMesh* m : {&sw, &blk}) {
    SCOPED_TRACE(m == &sw ? "southwest_japan_like" : "simple_block");
    // Several stiffness chunks, the last one partial.
    ASSERT_GT(m->hexes.size(), gf::kStiffnessChunk);
    ASSERT_NE(m->hexes.size() % gf::kStiffnessChunk, 0u);
    const gs::BlockCSR reference = serial_assembly(*m, zone_materials());
    const gf::BoundaryConditions bc = m == &sw ? swjapan_bc(*m) : [&] {
      gf::BoundaryConditions b;
      b.fix_nodes(m->nodes_where([](double, double, double z) { return z == 0.0; }), -1);
      b.fix_nodes(m->nodes_where([](double x, double, double) { return x == 0.0; }), 0);
      b.body_force(*m, 2, -1.0);
      return b;
    }();
    gf::System base;
    for (int t : {1, 2, 3, 4}) {
      SCOPED_TRACE(::testing::Message() << "team " << t);
      gpar::TeamScope team(t);
      gf::System sys = gf::assemble_elasticity(*m, zone_materials());
      ASSERT_TRUE(same_matrix(sys.a, reference));
      gc::add_penalty(sys.a, m->contact_groups, 1e6);
      gf::apply_boundary_conditions(sys, bc);
      if (t == 1) {
        base = std::move(sys);
        continue;
      }
      ASSERT_TRUE(same_matrix(sys.a, base.a));
      ASSERT_TRUE(same_bytes(sys.b, base.b));
    }
  }
}

TEST(HybridSetup, PdjdsNumericMatchesPermutedFactorization) {
  const gm::HexMesh m = small_swjapan();
  const gf::System sys = swjapan_system(m, 1e6);
  const auto sn = gc::build_supernodes(sys.a.n, m.contact_groups);
  for (auto kind : {gplan::PrecondKind::kSBBIC0, gplan::PrecondKind::kBIC0})
    for (auto ordering : {gplan::OrderingKind::kPDJDSMC, gplan::OrderingKind::kPDJDSCMRCM})
      for (auto precision : {gp::Precision::kDouble, gp::Precision::kSingle}) {
        SCOPED_TRACE(::testing::Message()
                     << gplan::to_string(kind) << " ordering " << static_cast<int>(ordering)
                     << (precision == gp::Precision::kSingle ? " fp32" : " fp64"));
        gplan::PlanConfig pcfg;
        pcfg.precond = kind;
        pcfg.ordering = ordering;
        pcfg.precision = precision;
        pcfg.colors = 6;
        pcfg.npe = 4;
        const gplan::SolvePlan plan(sys.a, sn, pcfg);
        const auto& dj = *plan.djds();
        const auto reference = permuted_reference_factors(sys.a, dj);
        const auto r = random_vector(sys.a.ndof(), 7);
        std::vector<double> z1;
        for (int t : {1, 4}) {
          gpar::TeamScope team(t);
          const auto prec = plan.numeric(sys.a);
          const auto* djbic = dynamic_cast<const gp::DJDSBIC*>(prec.get());
          ASSERT_NE(djbic, nullptr);
          EXPECT_TRUE(same_factors(djbic->unit_factors(), reference)) << "team " << t;
          std::vector<double> z(r.size());
          prec->apply(r, z, nullptr, nullptr);
          if (t == 1)
            z1 = z;
          else
            EXPECT_TRUE(same_bytes(z, z1)) << "apply, team " << t;
        }
      }
}

TEST(HybridSetup, WarmPlanNumericEqualsColdOverLambdaSweep) {
  const gm::HexMesh m = small_swjapan();
  const gf::System first = swjapan_system(m, 1e2);
  const auto sn = gc::build_supernodes(first.a.n, m.contact_groups);
  for (auto precision : {gp::Precision::kDouble, gp::Precision::kSingle}) {
    gplan::PlanConfig pcfg;
    pcfg.precond = gplan::PrecondKind::kSBBIC0;
    pcfg.ordering = gplan::OrderingKind::kPDJDSMC;
    pcfg.precision = precision;
    pcfg.colors = 6;
    pcfg.npe = 4;
    const auto plan = std::make_shared<const gplan::SolvePlan>(first.a, sn, pcfg);
    gpar::TeamScope team(4);
    for (double lambda : {1e2, 1e4, 1e6, 1e8, 1e10}) {
      SCOPED_TRACE(::testing::Message() << "lambda " << lambda);
      const gf::System sys = swjapan_system(m, lambda);
      const gp::OwnedDJDSBIC cold(sys.a, sn, pcfg.colors, pcfg.npe, pcfg.sort_supernodes,
                                  precision);
      ASSERT_EQ(cold.djds().perm(), plan->djds()->perm());
      const auto warm = plan->numeric(sys.a);
      EXPECT_TRUE(same_factors(dynamic_cast<const gp::DJDSBIC&>(*warm).unit_factors(),
                               cold.inner().unit_factors()));
      const gplan::PlannedPreconditioner planned(plan, sys.a);
      const auto r = random_vector(sys.a.ndof(), 11);
      std::vector<double> zw(r.size()), zc(r.size());
      planned.apply(r, zw, nullptr, nullptr);
      cold.apply(r, zc, nullptr, nullptr);
      EXPECT_TRUE(same_bytes(zw, zc));
    }
  }
}

TEST(HybridSetup, CoreSolveRecordsSetupSpansInSessionRegistry) {
  const gm::HexMesh m = gm::simple_block({3, 3, 2, 3, 3});
  gf::BoundaryConditions bc;
  bc.fix_nodes(m.nodes_where([](double, double, double z) { return z == 0.0; }), -1);
  bc.body_force(m, 2, -1.0);
  geofem::obs::Registry reg;
  gcore::SolveConfig cfg;
  cfg.ordering = gcore::OrderingKind::kPDJDSMC;
  cfg.threads = 2;
  cfg.registry = &reg;
  cfg.use_plan_cache = false;
  ASSERT_TRUE(gcore::solve(m, {{1.0, 0.3}}, bc, cfg).converged());
  const auto snap = reg.snapshot();
  for (const char* name : {"fem.assemble", "fem.bc"}) {
    int found = 0;
    for (const auto& sp : snap.spans)
      if (sp.name == name) {
        ++found;
        EXPECT_GE(sp.dur_us, 0.0) << name << " left open";
      }
    EXPECT_EQ(found, 1) << name;
  }
}

// ---------------------------------------------------------------------------
// Distributed solver: 4 ranks × team sizes × overlap on/off, all bit-identical
// ---------------------------------------------------------------------------

TEST(HybridDist, FourRanksBitIdenticalAcrossTeamsAndOverlap) {
  Problem pb;
  auto p = gpart::rcb_contact_aware(pb.mesh, 4);
  auto systems = gpart::distribute(pb.sys.a, pb.sys.b, p);
  ASSERT_EQ(systems.size(), 4u);

  gplan::PlanConfig pcfg;
  pcfg.precond = gplan::PrecondKind::kSBBIC0;
  gplan::PlanCache cache(8);
  const auto factory = gd::make_plan_factory(cache, pcfg, pb.mesh.contact_groups);

  gd::DistOptions opt;
  opt.cg.tolerance = 1e-8;
  opt.cg.record_residuals = true;
  opt.telemetry = false;

  opt.threads = 1;
  opt.overlap = false;
  std::vector<double> x_base;
  const auto base = gd::solve_distributed(systems, factory, opt, &x_base);
  EXPECT_TRUE(base.converged());

  for (int t : {1, 2, 4}) {
    for (bool overlap : {false, true}) {
      if (t == 1 && !overlap) continue;  // the baseline itself
      opt.threads = t;
      opt.overlap = overlap;
      std::vector<double> x;
      const auto rep = gd::solve_distributed(systems, factory, opt, &x);
      SCOPED_TRACE(::testing::Message() << "threads=" << t << " overlap=" << overlap);
      EXPECT_EQ(rep.iterations, base.iterations);
      ASSERT_EQ(rep.residual_history.size(), base.residual_history.size());
      for (std::size_t k = 0; k < base.residual_history.size(); ++k)
        ASSERT_EQ(rep.residual_history[k], base.residual_history[k]) << "residual " << k;
      ASSERT_EQ(x.size(), x_base.size());
      for (std::size_t i = 0; i < x.size(); ++i)
        ASSERT_EQ(x[i], x_base[i]) << "solution component " << i;
    }
  }
}

TEST(HybridDist, MatchesSerialSolutionWithOverlap) {
  // The overlapped distributed solve must still agree with the serial solver
  // on the assembled solution to solver tolerance (not bitwise — different
  // preconditioner: localized per-rank vs global).
  Problem pb;
  const auto sn = gc::build_supernodes(pb.sys.a.n, pb.mesh.contact_groups);
  gcore::SolveConfig scfg;
  scfg.precond = gcore::PrecondKind::kSBBIC0;
  scfg.cg.tolerance = 1e-10;
  scfg.use_plan_cache = false;
  const auto serial = gcore::solve_system(pb.sys, sn, scfg);
  ASSERT_TRUE(serial.converged());

  auto p = gpart::rcb_contact_aware(pb.mesh, 4);
  auto systems = gpart::distribute(pb.sys.a, pb.sys.b, p);
  gplan::PlanConfig pcfg;
  pcfg.precond = gplan::PrecondKind::kSBBIC0;
  gplan::PlanCache cache(8);
  const auto factory = gd::make_plan_factory(cache, pcfg, pb.mesh.contact_groups);
  gd::DistOptions opt;
  opt.cg.tolerance = 1e-10;
  opt.threads = 2;
  opt.overlap = true;
  std::vector<double> x;
  const auto rep = gd::solve_distributed(systems, factory, opt, &x);
  ASSERT_TRUE(rep.converged());
  ASSERT_EQ(x.size(), serial.solution.size());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    num += (x[i] - serial.solution[i]) * (x[i] - serial.solution[i]);
    den += serial.solution[i] * serial.solution[i];
  }
  EXPECT_LT(std::sqrt(num / den), 1e-6);
}

// ---------------------------------------------------------------------------
// par primitives
// ---------------------------------------------------------------------------

TEST(ParPrimitives, StaticRangeCoversOnce) {
  for (std::size_t n : {0u, 1u, 7u, 100u, 1001u}) {
    for (int parts : {1, 2, 3, 8}) {
      std::vector<int> hit(n, 0);
      for (int p = 0; p < parts; ++p) {
        const auto r = gpar::static_range(n, parts, p);
        ASSERT_LE(r.begin, r.end);
        for (std::size_t i = r.begin; i < r.end; ++i) ++hit[i];
      }
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hit[i], 1) << "n=" << n << " parts=" << parts;
    }
  }
}

TEST(ParPrimitives, CombineShapeDependsOnlyOnLength) {
  // Summing the same partials must give the same bits regardless of how many
  // threads produced them — combine's tree shape is a function of the count.
  std::vector<double> partials;
  for (int i = 0; i < 37; ++i) partials.push_back(std::sin(0.1 * i) * 1e3);
  const double once = gpar::combine(partials.data(), partials.size());
  for (int rep = 0; rep < 4; ++rep)
    EXPECT_EQ(gpar::combine(partials.data(), partials.size()), once);
  // and differs from a plain left-to-right sum in general (sanity that the
  // tree is actually pairwise, not accidentally sequential)
  double seq = 0.0;
  for (double v : partials) seq += v;
  EXPECT_NEAR(seq, once, 1e-9 * std::abs(seq));
}

TEST(ParPrimitives, TeamScopeNestsAndRestores) {
  const int outer = gpar::threads();
  {
    gpar::TeamScope a(3);
    EXPECT_EQ(gpar::threads(), 3);
    {
      gpar::TeamScope b(1);
      EXPECT_EQ(gpar::threads(), 1);
    }
    EXPECT_EQ(gpar::threads(), 3);
  }
  EXPECT_EQ(gpar::threads(), outer);
}

TEST(ParPrimitives, RowSplitPartitionsInternalRows) {
  Problem pb;
  auto p = gpart::rcb_contact_aware(pb.mesh, 4);
  auto systems = gpart::distribute(pb.sys.a, pb.sys.b, p);
  for (const auto& ls : systems) {
    const auto split = ls.row_split();
    std::vector<int> seen(static_cast<std::size_t>(ls.num_internal), 0);
    for (int i : split.interior) ++seen[static_cast<std::size_t>(i)];
    for (int i : split.boundary) ++seen[static_cast<std::size_t>(i)];
    for (int i = 0; i < ls.num_internal; ++i)
      ASSERT_EQ(seen[static_cast<std::size_t>(i)], 1) << "row " << i << " rank " << ls.domain;
    for (int i : split.interior)
      for (int e = ls.a.rowptr[i]; e < ls.a.rowptr[i + 1]; ++e)
        ASSERT_LT(ls.a.colind[e], ls.num_internal) << "interior row reads an external column";
    for (int i : split.boundary) {
      bool external = false;
      for (int e = ls.a.rowptr[i]; e < ls.a.rowptr[i + 1]; ++e)
        external = external || ls.a.colind[e] >= ls.num_internal;
      ASSERT_TRUE(external) << "boundary row " << i << " has no external column";
    }
  }
}
