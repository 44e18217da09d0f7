// Solver-as-a-service suite (ctest label `svc`, also run under the TSan CI
// job): sharded PlanCache under concurrency, RNG streams, admission control,
// priority scheduling, warm-vs-cold bit-identity through the service, and the
// deterministic discrete-event workload generator.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <thread>
#include <vector>

#include "contact/penalty.hpp"
#include "core/geofem.hpp"
#include "fem/assembly.hpp"
#include "mesh/simple_block.hpp"
#include "par/par.hpp"
#include "plan/cache.hpp"
#include "plan/plan.hpp"
#include "svc/service.hpp"
#include "svc/workload.hpp"
#include "util/rng.hpp"

namespace gc = geofem::contact;
namespace gcore = geofem::core;
namespace gf = geofem::fem;
namespace gm = geofem::mesh;
namespace gplan = geofem::plan;
namespace gsvc = geofem::svc;
namespace gutil = geofem::util;

namespace {

struct Problem {
  gm::HexMesh mesh;
  gf::System sys;

  explicit Problem(double lambda = 1e4, gm::SimpleBlockParams bp = {3, 3, 2, 3, 3}) {
    mesh = gm::simple_block(bp);
    sys = gf::assemble_elasticity(mesh, {{1.0, 0.3}});
    gc::add_penalty(sys.a, mesh.contact_groups, lambda);
    gf::BoundaryConditions bc = make_bc(mesh);
    gf::apply_boundary_conditions(sys, bc);
  }

  static gf::BoundaryConditions make_bc(const gm::HexMesh& m) {
    gf::BoundaryConditions bc;
    bc.fix_nodes(m.nodes_where([](double, double, double z) { return z == 0.0; }), -1);
    const double zmax = m.bounding_box().hi[2];
    bc.surface_load(
        m, [&](double, double, double z) { return std::abs(z - zmax) < 1e-12; }, 2, -1.0);
    return bc;
  }
};

gsvc::ServiceOptions small_service(int workers) {
  gsvc::ServiceOptions opt;
  opt.workers = workers;
  opt.queue_capacity = 256;
  opt.solve.precond = gcore::PrecondKind::kSBBIC0;
  opt.solve.cg.tolerance = 1e-8;
  return opt;
}

}  // namespace

// ---------------------------------------------------------------------------
// RNG streams (workload determinism depends on these)
// ---------------------------------------------------------------------------

TEST(SvcRng, JumpStreamsAreDisjointAndDeterministic) {
  gutil::Rng base(7);
  gutil::Rng s1 = base.stream(1);
  gutil::Rng s2 = base.stream(2);
  gutil::Rng s1b = gutil::Rng(7).stream(1);
  int collisions = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t a = s1.next_u64();
    const std::uint64_t b = s2.next_u64();
    EXPECT_EQ(a, s1b.next_u64());  // same seed + stream index -> same draws
    collisions += a == b;
  }
  EXPECT_EQ(collisions, 0);
}

TEST(SvcRng, JumpMatchesSequentialAdvance) {
  // jump() must land inside the same sequence: draws after a jump never
  // repeat draws before it (probabilistically certain for 64-bit outputs).
  gutil::Rng a(123);
  gutil::Rng b = a;  // copy, then advance one via jump
  b.jump();
  for (int i = 0; i < 100; ++i) EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(SvcRng, SplitDecorrelatesFromParent) {
  gutil::Rng parent(99);
  gutil::Rng child = parent.split();
  gutil::Rng parent2(99);
  gutil::Rng child2 = parent2.split();
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t c = child.next_u64();
    EXPECT_EQ(c, child2.next_u64());        // deterministic
    EXPECT_NE(c, parent.next_u64());        // decorrelated
  }
}

TEST(SvcRng, ExponentialHasRequestedMean) {
  gutil::Rng rng(5);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

// ---------------------------------------------------------------------------
// Sharded PlanCache under concurrency
// ---------------------------------------------------------------------------

TEST(SvcPlanCache, ShardedCapacityAndStatsTotals) {
  gplan::PlanCache cache(8, 4);
  EXPECT_EQ(cache.shard_count(), 4u);
  EXPECT_EQ(cache.capacity(), 8u);  // 2 per shard
  gplan::PlanCache one(3, 1);
  EXPECT_EQ(one.shard_count(), 1u);
  EXPECT_EQ(one.capacity(), 3u);
}

TEST(SvcPlanCache, ConcurrentGetInsertEvictStaysConsistent) {
  Problem pb;
  const gc::Supernodes sn = gc::build_supernodes(pb.sys.a.n, pb.mesh.contact_groups);
  // 7 distinct fingerprints (one per preconditioner kind) against a capacity
  // of 4 over 2 shards: steady-state evictions while 8 threads hammer get().
  const gplan::PrecondKind kinds[] = {
      gplan::PrecondKind::kDiagonal, gplan::PrecondKind::kScalarIC0,
      gplan::PrecondKind::kBIC0,     gplan::PrecondKind::kBIC1,
      gplan::PrecondKind::kBIC2,     gplan::PrecondKind::kSBBIC0,
      gplan::PrecondKind::kBlockDiagonal};
  gplan::PlanCache cache(4, 2);
  constexpr int kThreads = 8;
  constexpr int kIters = 40;
  std::atomic<int> bad{0};
  std::atomic<std::uint64_t> observed_hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      gutil::Rng rng = gutil::Rng(2024).stream(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kIters; ++i) {
        gplan::PlanConfig cfg;
        cfg.precond = kinds[rng.next_below(7)];
        bool hit = false;
        auto plan = cache.get(pb.sys.a, sn, cfg, &hit);
        if (!plan || plan->config().precond != cfg.precond) ++bad;
        if (hit) ++observed_hits;
        // interleave stats() readers with the inserts: totals must stay
        // self-consistent at any moment (hits + misses == lookups seen)
        const gplan::CacheStats s = cache.stats();
        if (s.entries > cache.capacity()) ++bad;
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad, 0);
  const gplan::CacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_GE(s.hits, observed_hits.load());  // every per-call hit was counted
  EXPECT_LE(s.entries, cache.capacity());
  EXPECT_GT(s.evictions, 0u);
  // shard stats partition the totals
  gplan::CacheStats sum;
  for (const gplan::CacheStats& sh : cache.shard_stats()) sum += sh;
  EXPECT_EQ(sum.hits, s.hits);
  EXPECT_EQ(sum.misses, s.misses);
  EXPECT_EQ(sum.entries, s.entries);
}

TEST(SvcPlanCache, PublishExportsGauges) {
  Problem pb;
  const gc::Supernodes sn = gc::build_supernodes(pb.sys.a.n, pb.mesh.contact_groups);
  gplan::PlanCache cache(4, 2);
  gplan::PlanConfig cfg;
  cache.get(pb.sys.a, sn, cfg);
  cache.get(pb.sys.a, sn, cfg);
  geofem::obs::Registry reg;
  cache.publish(reg);
  const auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(*snap.gauge("plan.cache.hits"), 1.0);
  EXPECT_DOUBLE_EQ(*snap.gauge("plan.cache.misses"), 1.0);
  EXPECT_DOUBLE_EQ(*snap.gauge("plan.cache.entries"), 1.0);
  EXPECT_DOUBLE_EQ(*snap.gauge("plan.cache.shards"), 2.0);
  ASSERT_NE(snap.gauge("plan.cache.shard.0.entries"), nullptr);
  ASSERT_NE(snap.gauge("plan.cache.shard.1.entries"), nullptr);
}

// ---------------------------------------------------------------------------
// SolverService
// ---------------------------------------------------------------------------

TEST(SvcService, WarmSolveBitIdenticalToColdAndToDirect) {
  const gm::HexMesh mesh = gm::simple_block({3, 3, 2, 3, 3});
  gsvc::SolverService svc(small_service(2));
  const gsvc::ModelId model = svc.register_model(mesh, {{1.0, 0.3}}, Problem::make_bc(mesh));

  gsvc::SolveRequest req;
  req.model = model;
  req.priority = gsvc::Priority::kInteractive;
  req.lambda = 1e4;
  gsvc::SolveResponse cold = svc.submit(req).get();
  gsvc::SolveResponse warm = svc.submit(req).get();
  ASSERT_TRUE(ok(cold.status));
  ASSERT_TRUE(ok(warm.status));
  EXPECT_FALSE(cold.report.plan_reused);
  EXPECT_TRUE(warm.report.plan_reused);
  EXPECT_EQ(cold.report.cg.iterations, warm.report.cg.iterations);
  ASSERT_EQ(cold.report.solution.size(), warm.report.solution.size());
  for (std::size_t i = 0; i < cold.report.solution.size(); ++i)
    ASSERT_EQ(cold.report.solution[i], warm.report.solution[i]) << "dof " << i;

  // ... and both match the library called directly (same config).
  Problem pb(1e4);
  gcore::SolveConfig cfg = small_service(1).solve;
  cfg.use_plan_cache = false;
  const gcore::SolveReport direct =
      gcore::solve_system(pb.sys, gc::build_supernodes(pb.sys.a.n, pb.mesh.contact_groups), cfg);
  ASSERT_EQ(direct.solution.size(), cold.report.solution.size());
  for (std::size_t i = 0; i < direct.solution.size(); ++i)
    ASSERT_EQ(direct.solution[i], cold.report.solution[i]) << "dof " << i;
}

TEST(SvcService, ContactStateDeltaStaysWarmButChangesSolution) {
  const gm::HexMesh mesh = gm::simple_block({3, 3, 2, 3, 3});
  gsvc::SolverService svc(small_service(1));
  const gsvc::ModelId model = svc.register_model(mesh, {{1.0, 0.3}}, Problem::make_bc(mesh));

  gsvc::SolveRequest full;
  full.model = model;
  full.lambda = 1e6;
  const gsvc::SolveResponse base = svc.submit(full).get();

  gsvc::SolveRequest masked = full;
  masked.active_groups.assign(mesh.contact_groups.size(), 1);
  masked.active_groups[0] = 0;  // release one contact group
  const gsvc::SolveResponse released = svc.submit(masked).get();
  ASSERT_TRUE(ok(base.status));
  ASSERT_TRUE(ok(released.status));
  // dropping a group's penalty only changes values, so the plan stays warm
  EXPECT_TRUE(released.report.plan_reused);
  double diff = 0.0;
  for (std::size_t i = 0; i < base.report.solution.size(); ++i)
    diff = std::max(diff, std::abs(base.report.solution[i] - released.report.solution[i]));
  EXPECT_GT(diff, 0.0);
}

TEST(SvcService, LoadScaleScalesSolution) {
  const gm::HexMesh mesh = gm::simple_block({3, 3, 2, 3, 3});
  gsvc::SolverService svc(small_service(1));
  const gsvc::ModelId model = svc.register_model(mesh, {{1.0, 0.3}}, Problem::make_bc(mesh));
  gsvc::SolveRequest req;
  req.model = model;
  req.lambda = 1e4;
  const gsvc::SolveResponse one = svc.submit(req).get();
  req.load_scale = 2.0;
  const gsvc::SolveResponse two = svc.submit(req).get();
  ASSERT_TRUE(ok(one.status));
  ASSERT_TRUE(ok(two.status));
  // linear elasticity: doubling the load doubles the displacement (up to CG
  // tolerance; both solves run the same warm plan)
  double max_rel = 0.0;
  for (std::size_t i = 0; i < one.report.solution.size(); ++i) {
    const double a = one.report.solution[i], b = two.report.solution[i];
    if (std::abs(a) > 1e-9) max_rel = std::max(max_rel, std::abs(b / a - 2.0));
  }
  EXPECT_LT(max_rel, 1e-5);
}

TEST(SvcService, BackpressureRejectsAndLosesNothing) {
  const gm::HexMesh mesh = gm::simple_block({4, 4, 3, 4, 4});
  gsvc::ServiceOptions opt = small_service(1);
  opt.queue_capacity = 2;
  gsvc::SolverService svc(opt);
  const gsvc::ModelId model = svc.register_model(mesh, {{1.0, 0.3}}, Problem::make_bc(mesh));
  std::vector<std::future<gsvc::SolveResponse>> futures;
  gsvc::SolveRequest req;
  req.model = model;
  req.lambda = 1e4;
  constexpr int kSubmits = 64;
  for (int i = 0; i < kSubmits; ++i) futures.push_back(svc.submit(req));
  std::uint64_t rejected = 0, completed = 0;
  for (auto& f : futures) {
    const gsvc::SolveResponse r = f.get();
    if (r.status == geofem::SolveStatus::kRejected)
      ++rejected;
    else if (ok(r.status))
      ++completed;
  }
  EXPECT_EQ(rejected + completed, kSubmits);  // nothing lost, nothing failed
  EXPECT_GT(rejected, 0u);                    // 64 instant submits vs 1 worker
  EXPECT_GT(completed, 0u);
  const gsvc::SolverService::Counts c = svc.counts();
  EXPECT_EQ(c.submitted, kSubmits);
  EXPECT_EQ(c.rejected, rejected);
  EXPECT_EQ(c.completed, completed);
  EXPECT_EQ(c.failed, 0u);
}

TEST(SvcService, BatchIsNotStarvedByInteractiveFlood) {
  const gm::HexMesh mesh = gm::simple_block({3, 3, 2, 3, 3});
  gsvc::ServiceOptions opt = small_service(1);
  opt.interactive_burst = 2;
  gsvc::SolverService svc(opt);
  const gsvc::ModelId model = svc.register_model(mesh, {{1.0, 0.3}}, Problem::make_bc(mesh));

  // Occupy the single worker, then queue a flood of interactive work with a
  // few batch requests behind it.
  gsvc::SolveRequest blocker;
  blocker.model = model;
  blocker.lambda = 1e4;
  auto blocker_future = svc.submit(blocker);
  std::vector<std::future<gsvc::SolveResponse>> interactive, batch;
  for (int i = 0; i < 16; ++i) {
    gsvc::SolveRequest r;
    r.model = model;
    r.lambda = 1e4;
    r.priority = gsvc::Priority::kInteractive;
    interactive.push_back(svc.submit(r));
  }
  for (int i = 0; i < 4; ++i) {
    gsvc::SolveRequest r;
    r.model = model;
    r.lambda = 1e4;
    r.priority = gsvc::Priority::kBatch;
    batch.push_back(svc.submit(r));
  }
  blocker_future.get();
  double first_batch_done = 1e300, last_interactive_done = 0.0;
  for (auto& f : batch) {
    const gsvc::SolveResponse r = f.get();
    ASSERT_TRUE(ok(r.status));
    first_batch_done = std::min(first_batch_done, r.total_seconds);
  }
  for (auto& f : interactive) {
    const gsvc::SolveResponse r = f.get();
    ASSERT_TRUE(ok(r.status));
    last_interactive_done = std::max(last_interactive_done, r.total_seconds);
  }
  // Starvation-free: with burst=2 some batch request must complete before the
  // interactive backlog is fully drained (all requests were admitted at
  // essentially the same instant, so total_seconds orders completions).
  EXPECT_LT(first_batch_done, last_interactive_done);
}

TEST(SvcService, UnknownModelThrowsInvalidArgument) {
  gsvc::SolverService svc(small_service(1));
  gsvc::SolveRequest req;
  req.model = 3;
  try {
    svc.submit(req);
    FAIL() << "expected geofem::Error";
  } catch (const geofem::Error& e) {
    EXPECT_EQ(e.code(), geofem::StatusCode::kInvalidArgument);
  }
}

TEST(SvcService, TelemetryLandsInServiceRegistry) {
  const gm::HexMesh mesh = gm::simple_block({3, 3, 2, 3, 3});
  gsvc::SolverService svc(small_service(2));
  const gsvc::ModelId model = svc.register_model(mesh, {{1.0, 0.3}}, Problem::make_bc(mesh));
  gsvc::SolveRequest req;
  req.model = model;
  req.lambda = 1e4;
  req.priority = gsvc::Priority::kInteractive;
  for (int i = 0; i < 4; ++i) svc.submit(req).get();
  svc.publish_stats();
  const auto snap = svc.registry().snapshot();
  ASSERT_NE(snap.counter("svc.completed.interactive"), nullptr);
  EXPECT_EQ(*snap.counter("svc.completed.interactive"), 4u);
  const geofem::obs::HistogramData* lat = snap.histogram("svc.latency.interactive");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 4u);
  EXPECT_GT(lat->quantile(0.5), 0.0);
  ASSERT_NE(snap.gauge("plan.cache.hits"), nullptr);
  EXPECT_DOUBLE_EQ(*snap.gauge("plan.cache.hits"), 3.0);  // 1 cold + 3 warm
  // the re-entrant session entry recorded library spans into the service
  // registry (core.setup comes from inside solve_system)
  bool saw_setup = false;
  for (const auto& sp : snap.spans) saw_setup |= sp.name == "core.setup";
  EXPECT_TRUE(saw_setup);
}

TEST(SvcService, DefaultThreadsSplitHardwareOverWorkers) {
  // Default options: threads = 0 gives every worker its share of the
  // hardware threads, so concurrent solves never oversubscribe the host.
  const gm::HexMesh mesh = gm::simple_block({3, 3, 2, 3, 3});
  const gsvc::ServiceOptions opt;
  gsvc::SolverService svc(opt);
  const gsvc::ModelId model = svc.register_model(mesh, {{1.0, 0.3}}, Problem::make_bc(mesh));
  gsvc::SolveRequest req;
  req.model = model;
  req.lambda = 1e4;
  ASSERT_TRUE(svc.submit(req).get().accepted());
  const auto snap = svc.registry().snapshot();
  const double* threads = snap.gauge("core.threads");
  ASSERT_NE(threads, nullptr);
  EXPECT_GE(*threads, 1.0);
  EXPECT_LE(*threads, std::max(1, geofem::par::hardware_threads() / opt.workers));
}

// ---------------------------------------------------------------------------
// Workload generator + replay
// ---------------------------------------------------------------------------

TEST(SvcWorkload, GenerationIsDeterministic) {
  gsvc::WorkloadOptions opt;
  opt.horizon = 2.0;
  opt.seed = 11;
  gsvc::TrafficClass inter;
  inter.priority = gsvc::Priority::kInteractive;
  inter.arrival = gsvc::ArrivalProcess::kPoisson;
  inter.rate = 50.0;
  inter.lambdas = {1e4, 1e6, 1e8};
  gsvc::TrafficClass batch;
  batch.priority = gsvc::Priority::kBatch;
  batch.arrival = gsvc::ArrivalProcess::kBurst;
  batch.rate = 30.0;
  batch.mean_burst = 4;
  batch.load_scales = {0.5, 1.0, 2.0};
  opt.classes = {inter, batch};

  const std::vector<gsvc::Event> a = gsvc::generate(opt);
  const std::vector<gsvc::Event> b = gsvc::generate(opt);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 50u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].request.lambda, b[i].request.lambda);
    EXPECT_EQ(a[i].request.load_scale, b[i].request.load_scale);
    EXPECT_EQ(a[i].request.priority, b[i].request.priority);
  }
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end(),
                             [](const gsvc::Event& x, const gsvc::Event& y) {
                               return x.time < y.time;
                             }));
  // changing the seed changes the schedule
  opt.seed = 12;
  const std::vector<gsvc::Event> c = gsvc::generate(opt);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < std::min(a.size(), c.size()); ++i)
    differs = a[i].time != c[i].time;
  EXPECT_TRUE(differs);
}

TEST(SvcWorkload, BurstArrivalsShareTimestamps) {
  gsvc::WorkloadOptions opt;
  opt.horizon = 5.0;
  gsvc::TrafficClass tc;
  tc.arrival = gsvc::ArrivalProcess::kBurst;
  tc.rate = 40.0;
  tc.mean_burst = 8;
  opt.classes = {tc};
  const std::vector<gsvc::Event> ev = gsvc::generate(opt);
  ASSERT_GT(ev.size(), 20u);
  int shared = 0;
  for (std::size_t i = 1; i < ev.size(); ++i) shared += ev[i].time == ev[i - 1].time;
  EXPECT_GT(shared, static_cast<int>(ev.size() / 2));  // mean burst 8 -> most share
}

TEST(SvcWorkload, ReplayIsLossless) {
  const gm::HexMesh mesh = gm::simple_block({3, 3, 2, 3, 3});
  gsvc::ServiceOptions sopt = small_service(4);
  sopt.keep_solutions = false;
  gsvc::SolverService svc(sopt);
  const gsvc::ModelId model = svc.register_model(mesh, {{1.0, 0.3}}, Problem::make_bc(mesh));

  gsvc::WorkloadOptions opt;
  opt.horizon = 1.0;
  gsvc::TrafficClass inter;
  inter.priority = gsvc::Priority::kInteractive;
  inter.rate = 30.0;
  inter.model = model;
  inter.lambdas = {1e4, 1e6};
  gsvc::TrafficClass batch;
  batch.priority = gsvc::Priority::kBatch;
  batch.arrival = gsvc::ArrivalProcess::kBurst;
  batch.rate = 20.0;
  batch.mean_burst = 4;
  batch.model = model;
  opt.classes = {inter, batch};

  const std::vector<gsvc::Event> events = gsvc::generate(opt);
  ASSERT_GT(events.size(), 10u);
  const gsvc::ReplayStats stats = gsvc::replay(svc, events, 0.0);
  EXPECT_EQ(stats.submitted, events.size());
  EXPECT_TRUE(stats.lossless());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(stats.throughput(), 0.0);
  svc.drain();
  const gsvc::SolverService::Counts c = svc.counts();
  EXPECT_EQ(c.submitted, stats.submitted);
  EXPECT_EQ(c.completed, stats.completed);
  EXPECT_EQ(c.rejected, stats.rejected);
}

TEST(SvcService, VectorizedOrderingUsesPerWorkerCachesAndStaysCorrect) {
  const gm::HexMesh mesh = gm::simple_block({3, 3, 2, 3, 3});
  gsvc::ServiceOptions opt = small_service(2);
  opt.solve.ordering = gcore::OrderingKind::kPDJDSMC;
  gsvc::SolverService svc(opt);
  const gsvc::ModelId model = svc.register_model(mesh, {{1.0, 0.3}}, Problem::make_bc(mesh));
  gsvc::SolveRequest req;
  req.model = model;
  req.lambda = 1e4;
  std::vector<std::future<gsvc::SolveResponse>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(svc.submit(req));
  std::vector<gsvc::SolveResponse> responses;
  for (auto& f : futures) responses.push_back(f.get());
  for (const auto& r : responses) ASSERT_TRUE(ok(r.status));
  // identical requests through (possibly different) per-worker caches must
  // produce bit-identical solutions — plans never shared across solves
  for (std::size_t i = 1; i < responses.size(); ++i) {
    ASSERT_EQ(responses[i].report.solution.size(), responses[0].report.solution.size());
    for (std::size_t d = 0; d < responses[0].report.solution.size(); ++d)
      ASSERT_EQ(responses[i].report.solution[d], responses[0].report.solution[d]);
  }
}
