#include "svc/service.hpp"

#include <chrono>
#include <utility>

#include "contact/penalty.hpp"
#include "par/par.hpp"
#include "util/timer.hpp"

namespace geofem::svc {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0,
                     std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

const char* class_name(Priority p) {
  return p == Priority::kInteractive ? "interactive" : "batch";
}

}  // namespace

std::string to_string(Priority p) { return class_name(p); }

SolverService::SolverService(ServiceOptions opt)
    : opt_(std::move(opt)),
      cache_(opt_.cache_capacity, opt_.cache_shards) {
  if (opt_.workers < 1) opt_.workers = 1;
  // Workers solve concurrently: each gets its share of the hardware threads.
  opt_.solve.threads = par::resolve_threads(opt_.solve.threads, opt_.workers);
  if (opt_.queue_capacity == 0) opt_.queue_capacity = 1;
  if (opt_.interactive_burst < 1) opt_.interactive_burst = 1;
  // The PDJDS plans revalue plan-owned DJDS storage in numeric(), so
  // vectorized plans must not be shared across in-flight solves: fall back
  // to one private cache per worker (still warm within each worker).
  if (opt_.solve.ordering != core::OrderingKind::kNatural) {
    worker_caches_.reserve(static_cast<std::size_t>(opt_.workers));
    for (int w = 0; w < opt_.workers; ++w)
      worker_caches_.push_back(
          std::make_unique<plan::PlanCache>(opt_.cache_capacity, std::size_t{1}));
  }
  registry_.gauge("svc.workers")->set(static_cast<double>(opt_.workers));
  registry_.gauge("svc.queue_capacity")->set(static_cast<double>(opt_.queue_capacity));
  threads_.reserve(static_cast<std::size_t>(opt_.workers));
  for (int w = 0; w < opt_.workers; ++w) threads_.emplace_back([this, w] { worker_main(w); });
}

SolverService::~SolverService() {
  {
    std::lock_guard lock(mtx_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : threads_) t.join();
}

ModelId SolverService::register_model(const mesh::HexMesh& m,
                                      std::vector<fem::Material> materials,
                                      fem::BoundaryConditions bc) {
  Model model;
  {
    // Assembled on the team size of one request, like every other piece of
    // the service's numeric work.
    const par::TeamScope team(opt_.solve.threads);
    model.base = fem::assemble_elasticity(m, materials);
  }
  model.bc = std::move(bc);
  model.groups = m.contact_groups;
  model.sn = contact::build_supernodes(model.base.a.n, model.groups);
  std::lock_guard lock(models_mtx_);
  models_.push_back(std::move(model));
  registry_.gauge("svc.models")->set(static_cast<double>(models_.size()));
  return static_cast<ModelId>(models_.size() - 1);
}

std::future<SolveResponse> SolverService::submit(SolveRequest req) {
  {
    std::lock_guard lock(models_mtx_);
    if (req.model < 0 || static_cast<std::size_t>(req.model) >= models_.size())
      throw Error(StatusCode::kInvalidArgument, "svc::submit: unknown model id");
    if (!req.active_groups.empty() &&
        req.active_groups.size() != models_[static_cast<std::size_t>(req.model)].groups.size())
      throw Error(StatusCode::kInvalidArgument,
                  "svc::submit: active_groups size != model contact group count");
  }
  const Priority pri = req.priority;
  const auto cls = static_cast<std::size_t>(pri);
  Ticket t;
  t.req = std::move(req);
  t.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  t.admitted = std::chrono::steady_clock::now();
  std::future<SolveResponse> fut = t.promise.get_future();

  registry_.counter(std::string("svc.submitted.") + class_name(pri))->add(1);
  std::unique_lock lock(mtx_);
  ++counts_.submitted;
  if (stopping_ || queues_[cls].size() >= opt_.queue_capacity) {
    // Backpressure: resolve immediately, never queue unboundedly. The caller
    // sees kRejected and decides whether to retry, shed, or slow down.
    ++counts_.rejected;
    lock.unlock();
    registry_.counter(std::string("svc.rejected.") + class_name(pri))->add(1);
    SolveResponse resp;
    resp.id = t.id;
    resp.priority = pri;
    resp.status = SolveStatus::kRejected;
    resp.total_seconds = seconds_since(t.admitted, std::chrono::steady_clock::now());
    t.promise.set_value(std::move(resp));
    return fut;
  }
  queues_[cls].push_back(std::move(t));
  const std::size_t depth = queues_[cls].size();
  if (depth > depth_max_[cls]) depth_max_[cls] = depth;
  const std::size_t depth_max = depth_max_[cls];
  lock.unlock();
  registry_.counter(std::string("svc.accepted.") + class_name(pri))->add(1);
  registry_.gauge(std::string("svc.queue_depth.") + class_name(pri))
      ->set(static_cast<double>(depth));
  registry_.gauge(std::string("svc.queue_depth_max.") + class_name(pri))
      ->set(static_cast<double>(depth_max));
  cv_work_.notify_one();
  return fut;
}

bool SolverService::coalescible(const SolveRequest& lead, const SolveRequest& req) const {
  // Riders must want the leader's exact matrix values (model, penalty,
  // contact state) and plan (the resolved factor precision keys it);
  // load_scale and tolerance are per-column deltas. pcg_batched runs only
  // classic CG for k > 1.
  const auto precision = [this](const SolveRequest& r) {
    return r.precision ? *r.precision : opt_.solve.precision;
  };
  const auto classic = [this](const SolveRequest& r) {
    return (r.variant ? *r.variant : opt_.solve.cg.variant) == solver::CGVariant::kClassic;
  };
  return lead.model == req.model && lead.lambda == req.lambda &&
         lead.active_groups == req.active_groups && precision(lead) == precision(req) &&
         classic(lead) && classic(req);
}

bool SolverService::next_batch(std::vector<Ticket>& out) {
  out.clear();
  std::unique_lock lock(mtx_);
  cv_work_.wait(lock, [this] {
    return stopping_ || !queues_[0].empty() || !queues_[1].empty();
  });
  const bool has_i = !queues_[0].empty();
  const bool has_b = !queues_[1].empty();
  if (!has_i && !has_b) return false;  // stopping and drained
  // Starvation-free priority: interactive first, but after
  // `interactive_burst` consecutive interactive dispatches with batch work
  // waiting, one batch request is forced through (bounded bypass count, so
  // batch latency is bounded by burst * interactive service time).
  std::size_t cls;
  if (has_i && (!has_b || interactive_streak_ < opt_.interactive_burst)) {
    cls = 0;
    interactive_streak_ = has_b ? interactive_streak_ + 1 : 0;
  } else {
    cls = 1;
    interactive_streak_ = 0;
  }
  out.push_back(std::move(queues_[cls].front()));
  queues_[cls].pop_front();
  ++in_flight_;  // leader counted immediately: drain() must not fire mid-batch

  bool window_timeout = false;
  // A leader that could not share its dispatch (a non-classic variant) never
  // waits for riders.
  if (opt_.max_batch > 1 && coalescible(out.front().req, out.front().req)) {
    const auto max_batch = static_cast<std::size_t>(opt_.max_batch);
    // Pull every queued coalescible request (both classes, admission order
    // within each) up to max_batch.
    auto harvest = [&] {
      for (auto& q : queues_) {
        for (auto it = q.begin(); it != q.end() && out.size() < max_batch;) {
          if (coalescible(out.front().req, it->req)) {
            out.push_back(std::move(*it));
            it = q.erase(it);
            ++in_flight_;
          } else {
            ++it;
          }
        }
      }
    };
    harvest();
    // Batch-class leaders may hold the dispatch open briefly to let more
    // matching requests arrive; interactive leaders never wait.
    if (out.size() < max_batch && out.front().req.priority == Priority::kBatch &&
        opt_.batch_window > 0.0) {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                std::chrono::duration<double>(opt_.batch_window));
      while (out.size() < max_batch && !stopping_) {
        if (cv_work_.wait_until(lock, deadline) == std::cv_status::timeout) {
          harvest();
          window_timeout = out.size() < max_batch;
          break;
        }
        harvest();
      }
    }
  }

  const std::size_t depth_i = queues_[0].size();
  const std::size_t depth_b = queues_[1].size();
  lock.unlock();
  registry_.gauge("svc.queue_depth.interactive")->set(static_cast<double>(depth_i));
  registry_.gauge("svc.queue_depth.batch")->set(static_cast<double>(depth_b));
  if (opt_.max_batch > 1) {
    registry_.histogram("svc.batch_size")->record(static_cast<double>(out.size()));
    if (out.size() > 1)
      registry_.counter("svc.coalesce.hit")->add(static_cast<std::uint64_t>(out.size() - 1));
    if (window_timeout) registry_.counter("svc.coalesce.window_timeout")->add(1);
  }
  return true;
}

void SolverService::worker_main(int wid) {
  // Attach the service registry for the thread's lifetime so svc-level spans
  // and the plan cache's hit/miss counters land in it. solve_system nests its
  // own Attach of the same registry via SolveConfig::registry.
  obs::Attach attach(&registry_);
  plan::PlanCache* cache =
      worker_caches_.empty() ? &cache_ : worker_caches_[static_cast<std::size_t>(wid)].get();
  // Per-worker scratch for the request-path system copy (matrix values,
  // RHS): vector copy-assignment reuses the allocation, so the steady state
  // pays a memcpy per dispatch instead of a multi-MB malloc/free churn.
  fem::System scratch;
  std::vector<Ticket> batch;
  while (next_batch(batch)) process(std::move(batch), cache, scratch);
}

void SolverService::process(std::vector<Ticket> batch, plan::PlanCache* cache,
                            fem::System& sys) {
  const std::size_t k = batch.size();
  const auto dequeued = std::chrono::steady_clock::now();
  for (const auto& t : batch)
    registry_.histogram(std::string("svc.queue_wait.") + class_name(t.req.priority))
        ->record(seconds_since(t.admitted, dequeued));

  std::vector<bool> delivered(k, false);
  try {
    const std::size_t span = registry_.span_begin("svc.request");
    // models_ is a deque (stable addresses) and only grows, so holding the
    // lock just for the lookup is enough.
    const Model* model_ptr;
    {
      std::lock_guard lock(models_mtx_);
      model_ptr = &models_[static_cast<std::size_t>(batch.front().req.model)];
    }
    const Model& model = *model_ptr;
    const SolveRequest& lead = batch.front().req;

    // Per-dispatch deltas on a copy of the registered base system: one copy
    // and one penalty for every ticket (coalescing guarantees they want these
    // exact matrix values), then one elimination sweep producing each
    // ticket's right-hand side at its load scale. The copy is the numeric
    // cost every dispatch pays; the symbolic set-up is what the shared plan
    // cache amortizes away. Both run on the request team, like the solve.
    const par::TeamScope team(opt_.solve.threads);
    sys.a = model.base.a;
    sys.b = model.base.b;
    if (lead.active_groups.empty()) {
      contact::add_penalty(sys.a, model.groups, lead.lambda);
    } else {
      std::vector<std::vector<int>> active;
      active.reserve(model.groups.size());
      for (std::size_t g = 0; g < model.groups.size(); ++g)
        if (lead.active_groups[g]) active.push_back(model.groups[g]);
      contact::add_penalty(sys.a, active, lead.lambda);
    }
    core::SolveConfig cfg = opt_.solve;
    cfg.penalty = lead.lambda;
    cfg.plan_cache = cache;
    cfg.registry = &registry_;  // re-entrant session entry
    if (lead.precision) cfg.precision = *lead.precision;
    if (lead.variant) cfg.cg.variant = *lead.variant;
    std::vector<double> scales(k), tols(k);
    for (std::size_t i = 0; i < k; ++i) {
      scales[i] = batch[i].req.load_scale;
      tols[i] = batch[i].req.tolerance > 0.0 ? batch[i].req.tolerance : cfg.cg.tolerance;
    }
    const auto cols = fem::apply_boundary_conditions_multi(sys, model.bc, scales);

    util::Timer solve_timer;
    std::vector<core::SolveReport> reports =
        core::solve_system_batched(sys, model.sn, cfg, cols, tols);
    const double solve_seconds = solve_timer.seconds();
    registry_.span_end(span);
    registry_.histogram("svc.solve_seconds")->record(solve_seconds);
    // One plan consult served the whole dispatch: count the reuse once.
    if (reports.front().plan_reused)
      registry_.counter(std::string("svc.plan_reused.") + class_name(lead.priority))->add(1);

    for (std::size_t i = 0; i < k; ++i) {
      Ticket& t = batch[i];
      const char* cls = class_name(t.req.priority);
      SolveResponse resp;
      resp.id = t.id;
      resp.priority = t.req.priority;
      resp.queue_seconds = seconds_since(t.admitted, dequeued);
      resp.report = std::move(reports[i]);
      resp.status = resp.report.status;
      if (!opt_.keep_solutions) {
        resp.report.solution.clear();
        resp.report.solution.shrink_to_fit();
      }
      resp.total_seconds = seconds_since(t.admitted, std::chrono::steady_clock::now());
      registry_.histogram(std::string("svc.latency.") + cls)->record(resp.total_seconds);
      const bool failed = !ok(resp.status);
      registry_.counter(std::string("svc.completed.") + cls)->add(1);
      if (failed) registry_.counter(std::string("svc.failed.") + cls)->add(1);
      {
        // count BEFORE resolving the future: a caller who has seen every
        // future resolve must never read stale counts()
        std::lock_guard lock(mtx_);
        ++counts_.completed;
        if (failed) ++counts_.failed;
      }
      delivered[i] = true;
      t.promise.set_value(std::move(resp));
    }
  } catch (...) {
    // A throwing solve (factorization failure without resilience, stale
    // plan, bad request state) must not kill the worker: the exception fans
    // out through every still-unresolved ticket's future, and each is
    // accounted as failed.
    for (std::size_t i = 0; i < k; ++i) {
      if (delivered[i]) continue;
      registry_.counter(std::string("svc.failed.") + class_name(batch[i].req.priority))->add(1);
      {
        std::lock_guard lock(mtx_);
        ++counts_.completed;
        ++counts_.failed;
      }
      batch[i].promise.set_exception(std::current_exception());
    }
  }
  {
    std::lock_guard lock(mtx_);
    in_flight_ -= k;
    if (in_flight_ == 0 && queues_[0].empty() && queues_[1].empty()) cv_drain_.notify_all();
  }
}

void SolverService::drain() {
  std::unique_lock lock(mtx_);
  cv_drain_.wait(lock,
                 [this] { return in_flight_ == 0 && queues_[0].empty() && queues_[1].empty(); });
}

SolverService::Counts SolverService::counts() const {
  std::lock_guard lock(mtx_);
  return counts_;
}

void SolverService::publish_stats() {
  if (worker_caches_.empty()) {
    cache_.publish(registry_);
    return;
  }
  // Vectorized orderings: per-worker caches. Publish each worker's view and
  // fold the totals into the shared plan.cache.* gauges.
  plan::CacheStats total;
  for (std::size_t w = 0; w < worker_caches_.size(); ++w) {
    worker_caches_[w]->publish(registry_, "plan.cache.worker." + std::to_string(w));
    total += worker_caches_[w]->stats();
  }
  registry_.gauge("plan.cache.hits")->set(static_cast<double>(total.hits));
  registry_.gauge("plan.cache.misses")->set(static_cast<double>(total.misses));
  registry_.gauge("plan.cache.evictions")->set(static_cast<double>(total.evictions));
  registry_.gauge("plan.cache.entries")->set(static_cast<double>(total.entries));
}

}  // namespace geofem::svc
