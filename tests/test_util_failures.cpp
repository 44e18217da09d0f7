// Utility-module behaviour and failure-injection tests: the GEOFEM_CHECK
// contract violations must throw (std::logic_error), never corrupt state.

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "contact/penalty.hpp"
#include "fem/assembly.hpp"
#include "mesh/hex_mesh.hpp"
#include "mesh/simple_block.hpp"
#include "part/local_system.hpp"
#include "part/partition.hpp"
#include "precond/diagonal.hpp"
#include "precond/djds_bic.hpp"
#include "solver/cg.hpp"
#include "sparse/block_csr.hpp"
#include "util/loop_stats.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace gu = geofem::util;
namespace gs = geofem::sparse;
namespace gm = geofem::mesh;

// Four counters, no per-loop list: reports that carry it stay fixed-size.
static_assert(std::is_trivially_copyable_v<gu::LoopStats>);

TEST(LoopStats, AverageAndMerge) {
  gu::LoopStats a, b;
  a.record(10, 2);
  a.record(20);
  EXPECT_EQ(a.count(), 3);
  EXPECT_DOUBLE_EQ(a.average(), 40.0 / 3.0);
  EXPECT_EQ(a.max_length(), 20);
  EXPECT_EQ(a.min_length(), 10);
  b.record(100);
  b.merge(a);
  EXPECT_EQ(b.count(), 4);
  EXPECT_EQ(b.total_length(), 140);
  EXPECT_EQ(b.min_length(), 10);
  EXPECT_EQ(b.max_length(), 100);
  // zero/negative records ignored
  b.record(0);
  b.record(-5);
  b.record(7, 0);
  EXPECT_EQ(b.count(), 4);
  EXPECT_EQ(b.min_length(), 10);

  // Merging from an empty side changes nothing (min/max kept) ...
  gu::LoopStats empty;
  b.merge(empty);
  EXPECT_EQ(b.count(), 4);
  EXPECT_EQ(b.total_length(), 140);
  EXPECT_EQ(b.min_length(), 10);
  EXPECT_EQ(b.max_length(), 100);
  // ... and merging into an empty one copies all four numbers.
  gu::LoopStats c;
  c.merge(a);
  EXPECT_EQ(c.count(), 3);
  EXPECT_EQ(c.total_length(), 40);
  EXPECT_EQ(c.min_length(), 10);
  EXPECT_EQ(c.max_length(), 20);

  b.reset();
  EXPECT_EQ(b.count(), 0);
  EXPECT_EQ(b.total_length(), 0);
  EXPECT_EQ(b.min_length(), 0);
  EXPECT_EQ(b.max_length(), 0);
  EXPECT_DOUBLE_EQ(b.average(), 0.0);
  b.record(50);
  EXPECT_EQ(b.min_length(), 50);
  EXPECT_EQ(b.max_length(), 50);
}

TEST(Rng, DeterministicAndBounded) {
  gu::Rng r1(7), r2(7), r3(8);
  bool all_equal = true, any_diff_seed = false;
  for (int i = 0; i < 100; ++i) {
    const double a = r1.next_double(), b = r2.next_double(), c = r3.next_double();
    all_equal &= (a == b);
    any_diff_seed |= (a != c);
    EXPECT_GE(a, 0.0);
    EXPECT_LT(a, 1.0);
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_seed);
  for (int i = 0; i < 50; ++i) EXPECT_LT(r1.next_below(13), 13u);
}

TEST(Table, FormatsNumbers) {
  EXPECT_EQ(gu::Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(gu::Table::sci(12345.6, 2), "1.23e+04");
}

TEST(Timer, AccumPausesAndResumes) {
  gu::AccumTimer t;
  EXPECT_DOUBLE_EQ(t.seconds(), 0.0);
  t.resume();
  t.pause();
  const double s1 = t.seconds();
  EXPECT_GE(s1, 0.0);
  // paused: does not advance
  EXPECT_DOUBLE_EQ(t.seconds(), s1);
  t.reset();
  EXPECT_DOUBLE_EQ(t.seconds(), 0.0);
}

TEST(Timer, ResumeWhileRunningKeepsAccumulatedTime) {
  // Regression: resume() on a running timer used to restart the stopwatch,
  // silently dropping everything accumulated since the first resume().
  gu::AccumTimer t;
  t.resume();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  t.resume();  // must be a no-op, not a restart
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  t.pause();
  EXPECT_GE(t.seconds(), 0.005);
}

// ---------------------------------------------------------------------------
// Failure injection
// ---------------------------------------------------------------------------

TEST(Failures, BuilderRejectsOutOfRangePattern) {
  gs::BlockCSRBuilder b(3);
  EXPECT_THROW(b.add_pattern(0, 5), std::logic_error);
  EXPECT_THROW(b.add_pattern(-1, 0), std::logic_error);
}

TEST(Failures, BuilderRejectsValueOutsidePattern) {
  gs::BlockCSRBuilder b(3);
  b.finalize_pattern();
  double blk[9] = {};
  EXPECT_THROW(b.add_block(0, 2, blk), std::logic_error);
  EXPECT_THROW(b.finalize_pattern(), std::logic_error);  // double finalize
}

TEST(Failures, SpmvRejectsWrongSizes) {
  gs::BlockCSRBuilder b(2);
  b.finalize_pattern();
  auto m = b.take();
  std::vector<double> x(5), y(6);
  EXPECT_THROW(m.spmv(x, y), std::logic_error);
}

TEST(Failures, PenaltyNeedsPattern) {
  gs::BlockCSRBuilder b(4);
  b.finalize_pattern();
  auto m = b.take();  // diagonal-only pattern
  EXPECT_THROW(geofem::contact::add_penalty(m, {{0, 1}}, 10.0), std::logic_error);
  EXPECT_THROW(geofem::contact::add_penalty(m, {{0}}, -1.0), std::logic_error);
}

TEST(Failures, NodeInTwoGroupsRejected) {
  EXPECT_THROW(geofem::contact::build_supernodes(4, {{0, 1}, {1, 2}}), std::logic_error);
  EXPECT_THROW(geofem::contact::build_supernodes(2, {{0, 5}}), std::logic_error);
}

TEST(Failures, MeshValidateCatchesNonCoincidentGroup) {
  auto m = gm::unit_cube(2, 2, 2);
  m.contact_groups.push_back({0, 1});  // different coordinates
  EXPECT_THROW(m.validate(), std::logic_error);
}

TEST(Failures, PartitionRejectsTooManyDomains) {
  EXPECT_THROW(geofem::part::by_node_blocks(3, 5), std::logic_error);
}

TEST(Failures, DistributeRejectsMismatchedPartition) {
  gm::HexMesh m = gm::simple_block({2, 2, 2, 2, 2});
  auto sys = geofem::fem::assemble_elasticity(m, {{1.0, 0.3}});
  geofem::part::Partition p;
  p.num_domains = 2;
  p.domain_of.assign(3, 0);  // wrong size
  EXPECT_THROW(geofem::part::distribute(sys.a, sys.b, p), std::logic_error);
}

TEST(Failures, CGRejectsZeroRhs) {
  gs::BlockCSRBuilder b(2);
  b.finalize_pattern();
  auto m = b.take();
  double one[9] = {1, 0, 0, 0, 1, 0, 0, 0, 1};
  for (int i = 0; i < 2; ++i) {
    const int e = m.diag_entry(i);
    for (int k = 0; k < 9; ++k) m.block(e)[k] = one[k];
  }
  geofem::precond::DiagonalScaling prec(m);
  std::vector<double> rhs(6, 0.0), x(6, 0.0);
  EXPECT_THROW(geofem::solver::pcg(m, prec, rhs, x), std::logic_error);
}

// ---------------------------------------------------------------------------
// OwnedDJDSBIC end-to-end
// ---------------------------------------------------------------------------

TEST(OwnedDJDSBIC, SolvesAndExposesStats) {
  gm::HexMesh m = gm::simple_block({3, 3, 2, 3, 3});
  auto sys = geofem::fem::assemble_elasticity(m, {{1.0, 0.3}});
  geofem::contact::add_penalty(sys.a, m.contact_groups, 1e6);
  geofem::fem::BoundaryConditions bc;
  bc.fix_nodes(m.nodes_where([](double, double, double z) { return z == 0.0; }), -1);
  bc.surface_load(m, [](double, double, double z) { return z > 4.9; }, 2, -1.0);
  geofem::fem::apply_boundary_conditions(sys, bc);

  auto sn = geofem::contact::build_supernodes(sys.a.n, m.contact_groups);
  geofem::precond::OwnedDJDSBIC prec(sys.a, std::move(sn), 10, 8);
  EXPECT_GT(prec.inner().jagged_loops().count(), 0);
  EXPECT_GT(prec.inner().batch_loops().count(), 0);
  EXPECT_GT(prec.inner().block_solve_flops(), 0.0);

  // works directly in the ORIGINAL ordering
  std::vector<double> x(sys.a.ndof(), 0.0);
  auto res = geofem::solver::pcg(sys.a, prec, sys.b, x, {.max_iterations = 2000});
  EXPECT_TRUE(res.converged());
}
