#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "contact/penalty.hpp"
#include "dist/comm.hpp"
#include "dist/dist_solver.hpp"
#include "fem/assembly.hpp"
#include "mesh/simple_block.hpp"
#include "mesh/hex_mesh.hpp"
#include "part/local_system.hpp"
#include "part/partition.hpp"
#include "par/par.hpp"
#include "precond/bic.hpp"
#include "precond/diagonal.hpp"
#include "precond/sb_bic0.hpp"
#include "solver/cg.hpp"

namespace gc = geofem::contact;
namespace gd = geofem::dist;
namespace gf = geofem::fem;
namespace gm = geofem::mesh;
namespace gpart = geofem::part;
namespace gp = geofem::precond;

namespace {

struct Problem {
  gm::HexMesh mesh;
  gf::System sys;

  explicit Problem(double lambda = 1e4, gm::SimpleBlockParams bp = {3, 3, 2, 3, 3}) {
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

gd::PrecondFactory bic0_factory() {
  return [](const gpart::LocalSystem&, const geofem::sparse::BlockCSR& aii, geofem::precond::Precision) {
    return std::make_unique<gp::BIC0>(aii);
  };
}

}  // namespace

// ---------------------------------------------------------------------------
// Comm runtime
// ---------------------------------------------------------------------------

TEST(Comm, PointToPointRoundRobin) {
  auto stats = gd::Runtime::run(4, [](gd::Comm& c) {
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    std::vector<double> msg{static_cast<double>(c.rank()), 42.0};
    c.send(next, 1, msg);
    auto got = c.recv(prev, 1);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_DOUBLE_EQ(got[0], prev);
  });
  for (const auto& s : stats) {
    EXPECT_EQ(s.messages_sent, 1u);
    EXPECT_EQ(s.bytes_sent, 16u);
  }
}

TEST(Comm, FifoPerChannel) {
  gd::Runtime::run(2, [](gd::Comm& c) {
    if (c.rank() == 0) {
      for (int k = 0; k < 10; ++k) {
        std::vector<double> msg{static_cast<double>(k)};
        c.send(1, 3, msg);
      }
    } else {
      for (int k = 0; k < 10; ++k) {
        auto got = c.recv(0, 3);
        EXPECT_DOUBLE_EQ(got[0], k);
      }
    }
  });
}

TEST(Comm, AllreduceSumAndMax) {
  gd::Runtime::run(5, [](gd::Comm& c) {
    const double s = c.allreduce_sum(static_cast<double>(c.rank() + 1));
    EXPECT_DOUBLE_EQ(s, 15.0);
    const double m = c.allreduce_max(static_cast<double>(c.rank()));
    EXPECT_DOUBLE_EQ(m, 4.0);
    // back-to-back generations
    const double s2 = c.allreduce_sum(1.0);
    EXPECT_DOUBLE_EQ(s2, 5.0);
  });
}

TEST(Comm, PropagatesExceptions) {
  EXPECT_THROW(gd::Runtime::run(2, [](gd::Comm& c) {
                 c.barrier();
                 throw std::runtime_error("rank failure");
               }),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------------

TEST(Partition, RCBBalances) {
  Problem pb;
  auto p = gpart::rcb(pb.mesh.coords, 8);
  EXPECT_EQ(p.num_domains, 8);
  EXPECT_LT(p.imbalance_percent(), 5.0);
}

TEST(Partition, RCBWorksForNonPowerOfTwo) {
  Problem pb;
  for (int nd : {3, 5, 7, 12}) {
    auto p = gpart::rcb(pb.mesh.coords, nd);
    auto sizes = p.domain_sizes();
    for (int s : sizes) EXPECT_GT(s, 0);
    EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), 0), pb.mesh.num_nodes());
  }
}

TEST(Partition, NodeBlocksSplitContactGroups) {
  Problem pb;
  auto p = gpart::by_node_blocks(pb.mesh.num_nodes(), 8);
  EXPECT_GT(gpart::split_contact_groups(pb.mesh, p), 0);
}

TEST(Partition, ContactAwareKeepsGroupsTogether) {
  Problem pb;
  auto p = gpart::rcb_contact_aware(pb.mesh, 8);
  EXPECT_EQ(gpart::split_contact_groups(pb.mesh, p), 0);
  EXPECT_LT(p.imbalance_percent(), 10.0);
}

TEST(Partition, DistributeCoversSystem) {
  Problem pb;
  auto p = gpart::rcb_contact_aware(pb.mesh, 4);
  auto systems = gpart::distribute(pb.sys.a, pb.sys.b, p);
  ASSERT_EQ(systems.size(), 4u);
  int total_internal = 0;
  for (const auto& ls : systems) {
    total_internal += ls.num_internal;
    // comm tables symmetric: every link has both directions populated
    for (const auto& link : ls.links) {
      EXPECT_FALSE(link.recv_local.empty());
      EXPECT_FALSE(link.send_local.empty());
      // recv targets are externals, send sources are internals
      for (int l : link.recv_local) EXPECT_GE(l, ls.num_internal);
      for (int l : link.send_local) EXPECT_LT(l, ls.num_internal);
    }
  }
  EXPECT_EQ(total_internal, pb.mesh.num_nodes());
}

TEST(Partition, LocalContactGroupsDropCutGroups) {
  Problem pb;
  auto p = gpart::by_node_blocks(pb.mesh.num_nodes(), 8);
  auto systems = gpart::distribute(pb.sys.a, pb.sys.b, p);
  std::size_t local_total = 0;
  for (const auto& ls : systems) local_total += ls.local_contact_groups(pb.mesh.contact_groups).size();
  EXPECT_LT(local_total, pb.mesh.contact_groups.size());  // cuts lost some groups

  auto pc = gpart::rcb_contact_aware(pb.mesh, 8);
  auto systems_c = gpart::distribute(pb.sys.a, pb.sys.b, pc);
  std::size_t local_total_c = 0;
  for (const auto& ls : systems_c)
    local_total_c += ls.local_contact_groups(pb.mesh.contact_groups).size();
  EXPECT_EQ(local_total_c, pb.mesh.contact_groups.size());
}

// ---------------------------------------------------------------------------
// Distributed solver
// ---------------------------------------------------------------------------

TEST(DistSolver, MatchesSerialSolution) {
  Problem pb(1e4);
  // serial reference
  gp::BIC0 prec(pb.sys.a);
  std::vector<double> x_ref(pb.sys.a.ndof(), 0.0);
  auto sres = geofem::solver::pcg(pb.sys.a, prec, pb.sys.b, x_ref,
                                  {.tolerance = 1e-10, .max_iterations = 20000});
  ASSERT_TRUE(sres.converged());

  auto p = gpart::rcb_contact_aware(pb.mesh, 4);
  auto systems = gpart::distribute(pb.sys.a, pb.sys.b, p);
  std::vector<double> x;
  gd::DistOptions dopt;
  dopt.cg.tolerance = 1e-10;
  dopt.cg.max_iterations = 20000;
  auto dres = gd::solve_distributed(systems, bic0_factory(), dopt, &x);
  ASSERT_TRUE(dres.converged());
  double err = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    err = std::max(err, std::abs(x[i] - x_ref[i]));
    norm = std::max(norm, std::abs(x_ref[i]));
  }
  EXPECT_LT(err, 1e-6 * norm);
}

TEST(DistSolver, OneDomainMatchesSerialIterations) {
  Problem pb(1e2);
  gp::BIC0 prec(pb.sys.a);
  std::vector<double> x_ref(pb.sys.a.ndof(), 0.0);
  auto sres = geofem::solver::pcg(pb.sys.a, prec, pb.sys.b, x_ref);

  gpart::Partition p;
  p.num_domains = 1;
  p.domain_of.assign(static_cast<std::size_t>(pb.mesh.num_nodes()), 0);
  auto systems = gpart::distribute(pb.sys.a, pb.sys.b, p);
  auto dres = gd::solve_distributed(systems, bic0_factory());
  EXPECT_EQ(dres.iterations, sres.iterations);
}

TEST(DistSolver, IterationsGrowWithDomains) {
  Problem pb(1e2, {4, 4, 3, 4, 4});
  int it1 = 0, it8 = 0;
  {
    gpart::Partition p;
    p.num_domains = 1;
    p.domain_of.assign(static_cast<std::size_t>(pb.mesh.num_nodes()), 0);
    auto systems = gpart::distribute(pb.sys.a, pb.sys.b, p);
    it1 = gd::solve_distributed(systems, bic0_factory()).iterations;
  }
  {
    auto p = gpart::rcb_contact_aware(pb.mesh, 8);
    auto systems = gpart::distribute(pb.sys.a, pb.sys.b, p);
    it8 = gd::solve_distributed(systems, bic0_factory()).iterations;
  }
  EXPECT_GT(it8, it1);          // localization costs iterations...
  EXPECT_LT(it8, 3 * it1 + 10); // ...but mildly (paper Table 1: +30%)
}

TEST(DistSolver, ContactAwarePartitioningRestoresConvergence) {
  // Table 3: with contact groups cut, localized SB-BIC(0) degrades badly;
  // the contact-aware repartitioning recovers it.
  Problem pb(1e6);
  auto factory = [&pb](const gpart::LocalSystem& ls, const geofem::sparse::BlockCSR& aii, geofem::precond::Precision) {
    auto groups = ls.local_contact_groups(pb.mesh.contact_groups);
    auto sn = gc::build_supernodes(aii.n, groups);
    return std::make_unique<gp::SBBIC0>(aii, std::move(sn));
  };

  auto p_bad = gpart::by_node_blocks(pb.mesh.num_nodes(), 8);
  auto p_good = gpart::rcb_contact_aware(pb.mesh, 8);
  auto sys_bad = gpart::distribute(pb.sys.a, pb.sys.b, p_bad);
  auto sys_good = gpart::distribute(pb.sys.a, pb.sys.b, p_good);
  gd::DistOptions opt;
  opt.cg.max_iterations = 4000;
  const int it_bad = gd::solve_distributed(sys_bad, factory, opt).iterations;
  const int it_good = gd::solve_distributed(sys_good, factory, opt).iterations;
  EXPECT_GT(it_bad, 2 * it_good) << it_bad << " vs " << it_good;
}

TEST(DistSolver, TracksTrafficAndFlops) {
  Problem pb(1e2);
  auto p = gpart::rcb_contact_aware(pb.mesh, 4);
  auto systems = gpart::distribute(pb.sys.a, pb.sys.b, p);
  auto res = gd::solve_distributed(systems, bic0_factory());
  ASSERT_EQ(res.traffic_per_rank.size(), 4u);
  for (const auto& t : res.traffic_per_rank) {
    EXPECT_GT(t.messages_sent, 0u);
    EXPECT_GT(t.allreduces, 0u);
  }
  EXPECT_GT(res.total_flops().spmv, 0u);
  EXPECT_GT(res.total_flops().precond, 0u);
}

TEST(DistSolver, DefaultThreadsSplitHardwareOverRanks) {
  // threads = 0 gives each rank its share of the hardware threads, so four
  // concurrent rank teams never oversubscribe the host.
  Problem pb(1e4);
  auto systems = gpart::distribute(pb.sys.a, pb.sys.b, gpart::rcb_contact_aware(pb.mesh, 4));
  gd::DistOptions dopt;
  dopt.telemetry = true;
  const auto dres = gd::solve_distributed(systems, bic0_factory(), dopt);
  ASSERT_TRUE(dres.converged());
  const double bound = std::max(1, geofem::par::hardware_threads() / 4);
  ASSERT_EQ(dres.obs_per_rank.size(), 4u);
  for (const auto& snap : dres.obs_per_rank) {
    const auto it = std::find_if(snap.meta_numbers.begin(), snap.meta_numbers.end(),
                                 [](const auto& kv) { return kv.first == "threads"; });
    ASSERT_NE(it, snap.meta_numbers.end());
    EXPECT_GE(it->second, 1.0);
    EXPECT_LE(it->second, bound);
  }
}
