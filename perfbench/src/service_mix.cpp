// service_mix: the solver service under open-loop traffic. One generator
// thread drives svc::SolverService (workers with one thread each, request
// coalescing on) with four svc::Workload traffic classes on two registered
// models: interactive requests with varied lambda on each model, batch
// load-scale sweeps on one lambda arriving as whole sweeps (coalescable), and
// batch contact-state churn. Phases: three fixed arrival rates (lo / mid / hi)
// in interleaved rounds, a saturated replay, then a fixed capacity ladder.
//
// Every request is timed from its scheduled send time. The traced run builds
// per-request spans from each SolveResponse's timings after the phase.

#include <algorithm>
#include <cmath>
#include <future>
#include <stdexcept>
#include <thread>

#include "contact/penalty.hpp"
#include "core/geofem.hpp"
#include "svc/service.hpp"
#include "svc/workload.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace svc = geofem::svc;

namespace {

constexpr int kClasses = 4;
const char* const kClassNames[kClasses] = {"interactive_swjapan", "interactive_block",
                                           "batch_sweep", "batch_churn"};

int class_of(const svc::SolveRequest& r) {
  if (r.priority == svc::Priority::kInteractive) return r.model == 0 ? 0 : 1;
  return r.active_groups.empty() ? 2 : 3;
}

/// One request of a phase, as sent and as answered.
struct Sent {
  svc::SolveRequest req;
  double scheduled = 0.0;  ///< seconds since the phase start
  double sent = 0.0;
  bool sampled = false;  ///< solution kept for the answer check
  svc::SolveResponse resp;
  double latency = INFINITY;  ///< scheduled send -> completion; inf if rejected
};

struct PhaseStats {
  std::string name;
  double rate = 0.0;      ///< offered req/s (0 for the saturated replay)
  double duration = 0.0;  ///< wall seconds of the arrival window
  double tail_q = 0.5;
  std::vector<Sent> sent;
  std::size_t backlog_end = 0;
  double wall = 0.0;        ///< phase start -> drained
  double solve_busy = 0.0;  ///< summed worker solve seconds in the phase
  std::uint64_t submitted = 0, completed = 0, rejected = 0;
  std::uint64_t coalesce_hits = 0;

  /// Mean queue depth over the last quarter of the arrival window, from the
  /// requests' own send and dequeue times (bursts at the very end of the
  /// window do not decide it the way a single snapshot would).
  [[nodiscard]] double late_backlog() const {
    const int samples = 50;
    double sum = 0.0;
    for (int k = 0; k < samples; ++k) {
      const double t = duration * (0.75 + 0.25 * (k + 0.5) / samples);
      for (const Sent& s : sent)
        if (s.sent <= t && t < s.sent + s.resp.queue_seconds) sum += 1.0;
    }
    return sum / samples;
  }

  [[nodiscard]] std::vector<double> latencies(int cls = -1) const {
    std::vector<double> v;
    for (const Sent& s : sent)
      if (cls < 0 || class_of(s.req) == cls) v.push_back(s.latency);
    return v;
  }
};

/// Highest percentile (in whole percent) with at least ten of n samples
/// beyond it; the median when n < 20.
double tail_quantile(double n) {
  if (n < 20.0) return 0.5;
  return std::floor(100.0 * (1.0 - 10.0 / n)) / 100.0;
}

/// One arrival unit of a class: a single request, or a whole load-scale
/// sweep (`size` requests on one lambda, all sent at once).
using Unit = std::vector<svc::Event>;

/// `n` seeded units of one class, from svc::generate on the class's own
/// stream (horizon grown until there are enough). A sweep class (size > 1)
/// draws its unit start times as a Poisson process at rate / size and gives
/// every member its own load scale drawn from the class's list.
std::vector<Unit> class_units(const svc::TrafficClass& tc, int size, double rate, std::size_t n,
                              std::uint64_t seed) {
  svc::WorkloadOptions wo;
  wo.seed = seed;
  wo.classes = {tc};
  wo.classes[0].arrival = svc::ArrivalProcess::kPoisson;
  wo.classes[0].rate = std::max(rate / size, 1e-3);
  std::vector<svc::Event> ev;
  for (wo.horizon = 1.5 * static_cast<double>(n) / wo.classes[0].rate + 1.0;; wo.horizon *= 2.0) {
    ev = svc::generate(wo);
    if (ev.size() >= n) break;
  }
  std::vector<Unit> units(n);
  std::uint64_t draw = 0;
  for (std::size_t u = 0; u < n; ++u)
    for (int k = 0; k < size; ++k) {
      svc::Event e = ev[u];
      if (size > 1)
        e.request.load_scale = tc.load_scales[mix_seed(seed, 7000 + draw++) % tc.load_scales.size()];
      units[u].push_back(std::move(e));
    }
  return units;
}

/// Seeded arrivals of the four classes at `rate` req/s over `duration`
/// seconds: each class contributes exactly its share of the
/// n = round(rate * duration) requests (sweeps rounded to whole sweeps), its
/// unit times rescaled onto the window. Every phase offers the same count and
/// class mix for any seed; the seed moves arrival times and request contents.
std::vector<svc::Event> arrivals(const std::vector<svc::TrafficClass>& mix,
                                 const std::vector<int>& sizes, const std::vector<double>& shares,
                                 double rate, double duration, std::uint64_t seed) {
  const auto n = static_cast<double>(std::llround(rate * duration));
  std::vector<svc::Event> out;
  for (std::size_t c = 0; c < mix.size(); ++c) {
    const auto nu = static_cast<std::size_t>(std::llround(shares[c] * n / sizes[c]));
    if (nu == 0) continue;
    // one unit more than needed: its start time marks the end of the window
    std::vector<Unit> units = class_units(mix[c], sizes[c], rate * shares[c], nu + 1, mix_seed(seed, c));
    const double scale = duration / units[nu][0].time;
    for (std::size_t u = 0; u < nu; ++u)
      for (svc::Event& e : units[u]) {
        e.time *= scale;
        out.push_back(std::move(e));
      }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const svc::Event& x, const svc::Event& y) { return x.time < y.time; });
  return out;
}

/// The saturated replay's stream: the classes' seeded units interleaved by
/// smooth weighted round robin, so every stretch of it has the class shares
/// (times are ignored by the replay).
std::vector<svc::Event> replay_stream(const std::vector<svc::TrafficClass>& mix,
                                      const std::vector<int>& sizes,
                                      const std::vector<double>& shares, std::size_t n,
                                      std::uint64_t seed) {
  std::vector<std::vector<Unit>> per(mix.size());
  for (std::size_t c = 0; c < mix.size(); ++c)
    per[c] = class_units(mix[c], sizes[c], shares[c], n, mix_seed(seed, c));
  std::vector<double> credit(mix.size(), 0.0);
  std::vector<std::size_t> next(mix.size(), 0);
  std::vector<svc::Event> out;
  while (out.size() < n) {
    std::size_t best = 0;
    for (std::size_t c = 0; c < mix.size(); ++c) {
      credit[c] += shares[c] / sizes[c];
      if (credit[c] > credit[best]) best = c;
    }
    credit[best] -= 1.0;
    for (svc::Event& e : per[best][next[best]++]) out.push_back(std::move(e));
  }
  return out;
}

double hist_sum(svc::SolverService& s, const char* name) {
  const geofem::obs::Snapshot snap = s.registry().snapshot();
  const auto* h = snap.histogram(name);
  return h ? h->sum : 0.0;
}

std::uint64_t counter(svc::SolverService& s, const char* name) {
  const geofem::obs::Snapshot snap = s.registry().snapshot();
  const auto* c = snap.counter(name);
  return c ? *c : 0;
}

std::size_t queue_depth(svc::SolverService& s) {
  const geofem::obs::Snapshot snap = s.registry().snapshot();
  double d = 0.0;
  for (const char* g : {"svc.queue_depth.interactive", "svc.queue_depth.batch"})
    if (const double* v = snap.gauge(g)) d += *v;
  return static_cast<std::size_t>(d);
}

/// Service totals at the start of a phase; finish() stores the phase's deltas.
struct PhaseStart {
  explicit PhaseStart(svc::SolverService& s)
      : counts(s.counts()),
        busy(hist_sum(s, "svc.solve_seconds")),
        hits(counter(s, "svc.coalesce.hit")) {}
  void finish(svc::SolverService& s, PhaseStats& ph) const {
    const svc::SolverService::Counts c = s.counts();
    ph.submitted = c.submitted - counts.submitted;
    ph.completed = c.completed - counts.completed;
    ph.rejected = c.rejected - counts.rejected;
    ph.solve_busy = hist_sum(s, "svc.solve_seconds") - busy;
    ph.coalesce_hits = counter(s, "svc.coalesce.hit") - hits;
  }
  svc::SolverService::Counts counts;
  double busy;
  std::uint64_t hits;
};

/// Futures of one phase, harvested as they resolve: a SolveReport carries
/// every innermost loop length of its solve (util::LoopStats), megabytes per
/// request, so responses are stripped of those (and of unsampled solutions)
/// as soon as they arrive instead of being held until the phase ends.
class Harvest {
 public:
  explicit Harvest(PhaseStats& ph) : ph_(ph) {}
  void add(std::future<svc::SolveResponse> f) {
    futs_.push_back(std::move(f));
    pending_.push_back(futs_.size() - 1);
  }
  /// Take whatever has resolved; with `all`, wait for the rest.
  void take(bool all) {
    std::size_t keep = 0;
    for (std::size_t i : pending_) {
      if (!all && futs_[i].wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        pending_[keep++] = i;
        continue;
      }
      Sent& s = ph_.sent[i];
      s.resp = futs_[i].get();
      s.resp.report.cg.loops.reset();
      if (!s.sampled) s.resp.report.solution = {};
      if (s.resp.accepted()) s.latency = (s.sent - s.scheduled) + s.resp.total_seconds;
    }
    pending_.resize(all ? 0 : keep);
  }
  [[nodiscard]] std::size_t outstanding() const { return pending_.size(); }

 private:
  PhaseStats& ph_;
  std::vector<std::future<svc::SolveResponse>> futs_;
  std::vector<std::size_t> pending_;
};

/// Open-loop phase: submit each event at its scheduled time, whatever the
/// service is doing; report the queue depth when the arrival window closes.
/// `sample` decides, per request, whether its solution is kept for checking.
template <class Sample>
void open_loop(svc::SolverService& service, const std::vector<svc::Event>& events,
               PhaseStats& ph, Sample&& sample) {
  const PhaseStart before(service);
  Harvest h(ph);
  ph.sent.reserve(events.size());
  const auto t0 = Clock::now();
  for (const svc::Event& e : events) {
    std::this_thread::sleep_until(t0 + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(e.time)));
    Sent s;
    s.req = e.request;
    s.scheduled = e.time;
    s.sent = seconds_since(t0);
    s.sampled = sample();
    h.add(service.submit(e.request));
    ph.sent.push_back(std::move(s));
    h.take(false);
  }
  std::this_thread::sleep_until(t0 + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(ph.duration)));
  ph.backlog_end = queue_depth(service);
  service.drain();
  ph.wall = seconds_since(t0);
  h.take(true);
  before.finish(service, ph);
}

/// Saturated replay: the seeded stream, continued from `next`, submitted back
/// to back with at most `in_flight` requests outstanding, so the workers never
/// idle and admission never rejects; runs until `duration` has passed, then
/// drains.
template <class Sample>
void saturated(svc::SolverService& service, const std::vector<svc::Event>& events,
               std::size_t& next, std::size_t in_flight, PhaseStats& ph, Sample&& sample) {
  const PhaseStart before(service);
  Harvest h(ph);
  const auto t0 = Clock::now();
  for (std::size_t& i = next; seconds_since(t0) < ph.duration; ++i) {
    while (h.outstanding() >= in_flight) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      h.take(false);
    }
    const svc::Event& e = events[i % events.size()];
    Sent s;
    s.req = e.request;
    s.sent = s.scheduled = seconds_since(t0);
    s.sampled = sample();
    h.add(service.submit(e.request));
    ph.sent.push_back(std::move(s));
  }
  service.drain();
  ph.wall = seconds_since(t0);
  h.take(true);
  before.finish(service, ph);
}

struct Deployment {
  std::vector<Model> models;
  std::vector<geofem::fem::System> base;  ///< elasticity only, for the answer checks
  std::unique_ptr<svc::SolverService> service;
};

}  // namespace

void run_service_mix(const Args& a, Result& res, Tracer& tr) {
  const bool trace = tr.enabled();
  const std::uint64_t seed = a.u64("seed");
  const double seconds = a.num("seconds");
  const std::vector<double> lambdas = a.nums("lambdas");
  const std::vector<double> shares = a.nums("class-shares");
  const std::vector<double> rates = a.nums("rates");  // lo, mid, hi
  const std::vector<double> ladder = a.nums("ladder");
  const std::vector<double> frac = a.nums("phase-fractions");  // lo, mid, hi, sat, ladder
  const std::vector<double> block = a.nums("block");
  const int rounds = a.integer("rounds");
  const double limit = a.num("latency-limit-ms") / 1e3;
  const double sweep_lambda = a.num("sweep-lambda");
  if (shares.size() != kClasses || rates.size() != 3 || frac.size() != 5 || block.size() != 5 ||
      rounds < 1)
    throw std::invalid_argument("service_mix: malformed class-shares / rates / phase-fractions");
  if (std::find(lambdas.begin(), lambdas.end(), sweep_lambda) == lambdas.end())
    throw std::invalid_argument("service_mix: sweep-lambda must be one of lambdas");

  svc::ServiceOptions so;
  so.workers = a.integer("workers");
  so.max_batch = a.integer("max-batch");
  so.batch_window = a.num("batch-window-ms") / 1e3;
  so.queue_capacity = static_cast<std::size_t>(a.integer("queue-capacity"));
  so.solve.precond = geofem::core::PrecondKind::kSBBIC0;
  so.solve.ordering = geofem::core::OrderingKind::kNatural;
  so.solve.threads = a.integer("threads");
  so.solve.cg.tolerance = a.num("tol");
  so.keep_solutions = true;
  const auto jitter = static_cast<unsigned>(mix_seed(seed, 1) & 0x7fffffffU);
  note("service_mix: " + std::to_string(so.workers) + " workers x " +
       std::to_string(so.solve.threads) + " thread, max_batch " + std::to_string(so.max_batch) +
       ", SB-BIC(0) natural, tol " + fmt(so.solve.cg.tolerance) + ", jitter seed " +
       std::to_string(jitter));

  // --- traffic classes (the churn class needs the contact-group count)
  const auto make_mix = [&](int swj_groups) {
    std::vector<svc::TrafficClass> mix(kClasses);
    mix[0].priority = mix[1].priority = svc::Priority::kInteractive;
    mix[0].model = 0;
    mix[1].model = 1;
    mix[0].lambdas = mix[1].lambdas = lambdas;
    mix[2].priority = svc::Priority::kBatch;
    mix[2].model = 0;
    mix[2].lambdas = {sweep_lambda};
    mix[2].load_scales = a.nums("sweep-load-scales");
    mix[3].priority = svc::Priority::kBatch;
    mix[3].model = 0;
    mix[3].lambdas = {sweep_lambda};
    mix[3].drop_groups = a.integer("drop-groups");
    mix[3].group_count = swj_groups;
    return mix;
  };

  // --- set-up: mesh generation, service start, model registration, and
  // warm-up traffic that takes every request path once per worker (single
  // solves on both models, a coalesced sweep, churn)
  Deployment dep;
  auto t0 = Clock::now();
  dep.models.push_back(swjapan_model(a.integer("swjapan-nx"), a.integer("swjapan-ny"), jitter));
  dep.models.push_back(block_model(static_cast<int>(block[0]), static_cast<int>(block[1]),
                                   static_cast<int>(block[2]), static_cast<int>(block[3]),
                                   static_cast<int>(block[4])));
  const double gen_s = seconds_since(t0);
  require_valid_mesh(dep.models[0].mesh, "Southwest-Japan-like mesh");
  require_valid_mesh(dep.models[1].mesh, "simple block mesh");
  t0 = Clock::now();
  dep.service = std::make_unique<svc::SolverService>(so);
  svc::SolverService& service = *dep.service;
  for (const Model& m : dep.models) service.register_model(m.mesh, m.materials, m.bc);
  const auto mix = make_mix(static_cast<int>(dep.models[0].mesh.contact_groups.size()));
  {
    // cold plans first, one request per model, so workers do not race to
    // build the same plan; then every request path once per worker
    std::vector<std::vector<std::future<svc::SolveResponse>>> warm(2);
    for (int m = 0; m < static_cast<int>(dep.models.size()); ++m) {
      svc::SolveRequest r;
      r.model = m;
      warm[0].push_back(service.submit(r));
    }
    for (auto& f : warm[0]) f.wait();
    for (int c = 0; c < kClasses; ++c) {
      svc::WorkloadOptions wo;
      wo.seed = mix_seed(seed, 500 + static_cast<std::uint64_t>(c));
      wo.classes = {mix[static_cast<std::size_t>(c)]};
      wo.classes[0].arrival = svc::ArrivalProcess::kPoisson;
      wo.horizon = 1e3;
      const std::vector<svc::Event> ev = svc::generate(wo);
      const std::size_t n = static_cast<std::size_t>(so.workers * (c == 2 ? so.max_batch : 1));
      for (std::size_t i = 0; i < n && i < ev.size(); ++i)
        warm[1].push_back(service.submit(ev[i].request));
    }
    for (auto& batch : warm)
      for (auto& f : batch) {
        ++res.attempted;
        if (!ok(f.get().status)) res.fail_op("warm-up request failed");
      }
  }
  const double setup_s = gen_s + seconds_since(t0);
  note("setup: " + fmt(setup_s) + " s (mesh generation " + fmt(gen_s) + " s)");
  res.set("setup_s", setup_s);
  if (setup_only(a)) return;
  const std::vector<int> sizes = {1, 1, a.integer("sweep-size"), 1};

  // --- phases; a seeded share of all requests keeps its solution for the
  // answer check. `rounds` interleaved rounds each run the three fixed rates
  // and a slice of the saturated replay, so a slow spell of the machine hits
  // every phase alike; then the capacity ladder.
  const double check_share = a.num("check-share");
  std::uint64_t sent_total = 0;
  const auto sample = [&] {
    return static_cast<double>(mix_seed(seed, 1000 + sent_total++) % 1000000) <
           check_share * 1e6;
  };
  const auto phase = [&](const std::string& name, double rate, double dur, std::uint64_t salt) {
    PhaseStats ph;
    ph.name = name;
    ph.rate = rate;
    ph.duration = dur;
    ph.tail_q = tail_quantile(rate * dur);
    open_loop(service, arrivals(mix, sizes, shares, rate, dur, mix_seed(seed, salt)), ph, sample);
    return ph;
  };
  const char* const idx[3] = {"lo", "mid", "hi"};
  std::vector<std::vector<PhaseStats>> fixed(3);  // [rate][round]
  std::vector<PhaseStats> sat(static_cast<std::size_t>(rounds));
  const auto in_flight = static_cast<std::size_t>(2 * so.workers * so.max_batch);
  const double slice_s = frac[3] * seconds / rounds;
  const std::vector<svc::Event> replay = replay_stream(
      mix, sizes, shares, static_cast<std::size_t>(2.0 * ladder.back() * frac[3] * seconds),
      mix_seed(seed, 90));
  std::size_t replay_next = 0;
  PhaseStats untraced_mid;
  if (trace)  // round 1 of mid once more, untraced, with the same arrivals
    untraced_mid = phase("mid#1-untraced", rates[1], frac[1] * seconds / rounds, 11);
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t p = 0; p < 3; ++p)
      fixed[p].push_back(phase(std::string(idx[p]) + "#" + std::to_string(r + 1), rates[p],
                               frac[p] * seconds / rounds,
                               10 + p + 10 * static_cast<std::uint64_t>(r)));
    PhaseStats& sl = sat[static_cast<std::size_t>(r)];
    sl.name = "saturated#" + std::to_string(r + 1);
    sl.duration = slice_s;
    saturated(service, replay, replay_next, in_flight, sl, sample);
  }
  const double rss = peak_rss_mb();  // set-up and the rounds

  // capacity ladder, bisected: each probed rung runs once; a rung that meets
  // the limits moves the search up, one that misses moves it down (meeting is
  // taken as monotone in the rate). The capacity is the highest rung met.
  const double backlog_limit = so.workers * so.max_batch;
  const double rung_s =
      frac[4] * seconds / std::ceil(std::log2(static_cast<double>(ladder.size()) + 1.0));
  std::vector<PhaseStats> rungs;
  std::vector<bool> rung_met;
  {
    std::ptrdiff_t lo = -1, hi = static_cast<std::ptrdiff_t>(ladder.size());
    while (hi - lo > 1) {
      const std::ptrdiff_t mid = (lo + hi) / 2;
      const double rate = ladder[static_cast<std::size_t>(mid)];
      rungs.push_back(
          phase("ladder-" + fmt(rate), rate, rung_s, 100 + static_cast<std::uint64_t>(mid)));
      const PhaseStats& r = rungs.back();
      const bool meets = quantile(r.latencies(), r.tail_q) <= limit &&
                         r.late_backlog() <= backlog_limit && r.rejected == 0;
      rung_met.push_back(meets);
      (meets ? lo : hi) = mid;
    }
  }

  // --- accounting and answer checks for every phase
  std::vector<PhaseStats*> all;
  if (trace) all.push_back(&untraced_mid);
  for (auto& per_rate : fixed)
    for (auto& p : per_rate) all.push_back(&p);
  for (auto& p : sat) all.push_back(&p);
  for (auto& p : rungs) all.push_back(&p);

  // floating-point floor of the residual per (model, lambda): a reference
  // natural-ordering single-threaded solve of the full-contact system
  std::vector<std::vector<double>> floors(dep.models.size(),
                                          std::vector<double>(lambdas.size(), -1.0));
  for (const Model& m : dep.models)
    dep.base.push_back(geofem::fem::assemble_elasticity(m.mesh, m.materials));
  const auto floor_of = [&](std::size_t model, double lambda) {
    const auto li = static_cast<std::size_t>(
        std::find(lambdas.begin(), lambdas.end(), lambda) - lambdas.begin());
    double& f = floors[model][li];
    if (f < 0.0) {
      const Model& m = dep.models[model];
      const geofem::fem::System full =
          apply_deltas(dep.base[model], m, lambda, m.mesh.contact_groups, 1.0);
      geofem::core::SolveConfig rc;
      rc.precond = geofem::core::PrecondKind::kSBBIC0;
      rc.threads = 1;
      rc.cg.tolerance = so.solve.cg.tolerance;
      rc.use_plan_cache = false;
      const auto ref = geofem::core::solve_system(
          full, geofem::contact::build_supernodes(full.a.n, m.mesh.contact_groups), rc);
      if (!ref.converged()) throw std::runtime_error("service reference solve did not converge");
      f = true_relative_residual(full, ref.solution);
    }
    return f;
  };
  std::size_t checked = 0;
  for (PhaseStats* ph : all) {
    std::uint64_t ok_count = 0, bad = 0;
    for (Sent& s : ph->sent) {
      ++res.attempted;
      if (!s.resp.accepted()) {
        res.fail_op(ph->name + ": request rejected");
        ++bad;
        continue;
      }
      if (!ok(s.resp.status)) {
        res.fail_op(ph->name + ": request did not converge (" +
                    geofem::to_string(s.resp.status) + ")");
        ++bad;
        continue;
      }
      if (s.sampled) {
        const auto model = static_cast<std::size_t>(s.req.model);
        const Model& m = dep.models[model];
        std::vector<std::vector<int>> groups;
        for (std::size_t g = 0; g < m.mesh.contact_groups.size(); ++g)
          if (s.req.active_groups.empty() || s.req.active_groups[g])
            groups.push_back(m.mesh.contact_groups[g]);
        const geofem::fem::System sys =
            apply_deltas(dep.base[model], m, s.req.lambda, groups, s.req.load_scale);
        const AnswerCheck check{&sys, {}, floor_of(model, s.req.lambda),
                                a.num("residual-tol"), a.num("residual-factor"), 0.0, false};
        ++checked;
        if (!check(s.resp.report.solution, ph->name + " " + kClassNames[class_of(s.req)] +
                                               " lambda " + fmt(s.req.lambda))) {
          res.fail_op(ph->name + ": wrong answer");
          ++bad;
          continue;
        }
        s.resp.report.solution = {};
      }
      ++ok_count;
    }
    if (ph->submitted != ph->sent.size() || ph->submitted != ph->completed + ph->rejected)
      res.fail_run(ph->name + ": submitted " + std::to_string(ph->submitted) + " != completed " +
                   std::to_string(ph->completed) + " + rejected " + std::to_string(ph->rejected));
    const std::vector<double> lat = ph->latencies();
    note(ph->name + ": " + (ph->rate > 0 ? fmt(ph->rate) + " req/s offered, " : "") +
         std::to_string(ph->submitted) + " sent, " + std::to_string(ok_count) + " succeeded, " +
         std::to_string(bad) + " failed (" + std::to_string(ph->rejected) + " rejected), p50 " +
         fmt(1e3 * median(lat)) + " ms, p" + fmt(100 * ph->tail_q, 3) + " " +
         fmt(1e3 * quantile(lat, ph->tail_q)) + " ms, backlog at window end " +
         std::to_string(ph->backlog_end) + ", wall " + fmt(ph->wall) + " s, coalesced followers " +
         std::to_string(ph->coalesce_hits));
  }
  note("answer checks: true residual of " + std::to_string(checked) +
       " sampled responses against the floor of a reference solve at the same lambda");

  double capacity = 0.0;
  for (std::size_t k = 0; k < rungs.size(); ++k) {
    note(rungs[k].name + ": mean queue depth over the last quarter " +
         fmt(rungs[k].late_backlog(), 3) + (rung_met[k] ? " -> meets the limits" : " -> misses"));
    if (rung_met[k]) capacity = std::max(capacity, rungs[k].rate);
  }
  note("capacity ladder (bisected): latency limit " + fmt(1e3 * limit) +
       " ms at each rung's tail, queue-depth limit " + fmt(backlog_limit) + " -> " +
       fmt(capacity) + " req/s");

  // saturated throughput: requests completed inside the slices' windows, per
  // second of window, over all rounds
  double sat_done = 0.0, sat_window = 0.0;
  std::string sat_s;
  for (const PhaseStats& sl : sat) {
    double done = 0.0;
    for (const Sent& s : sl.sent)
      if (s.resp.accepted() && s.sent + s.resp.total_seconds <= sl.duration) done += 1.0;
    sat_done += done;
    sat_window += sl.duration;
    sat_s += " " + fmt(done / sl.duration, 4);
  }
  const double sat_rps = sat_done / sat_window;
  note("saturated throughput per round (req/s):" + sat_s + "; over all rounds " + fmt(sat_rps));

  // generator lateness over every open-loop phase
  std::vector<double> late;
  for (PhaseStats* ph : all)
    if (ph->rate > 0.0)
      for (const Sent& s : ph->sent) late.push_back(s.sent - s.scheduled);
  note("generator lateness: p50 " + fmt(1e3 * median(late)) + " ms, max " +
       fmt(1e3 * *std::max_element(late.begin(), late.end())) + " ms");

  // latencies of rate p pooled over its rounds (optionally one class only)
  const auto pooled = [&](std::size_t p, std::initializer_list<int> classes = {-1}) {
    std::vector<double> v;
    for (const PhaseStats& ph : fixed[p])
      for (int cls : classes) {
        const std::vector<double> l = ph.latencies(cls);
        v.insert(v.end(), l.begin(), l.end());
      }
    return v;
  };
  const double latency_q = a.num("latency-tail-q");

  if (!trace) {
    std::vector<double> service_s;  // per-request worker time: total - queue
    for (const auto& per_rate : fixed)
      for (const PhaseStats& p : per_rate)
        for (const Sent& s : p.sent)
          if (s.resp.accepted()) service_s.push_back(s.resp.total_seconds - s.resp.queue_seconds);
    res.set("solve_s_p50", median(service_s));
    res.set("solve_s_tail", quantile(service_s, latency_q));
    res.set("peak_rss_mb", rss);
    res.set("throughput_rps", sat_rps);
    res.set("capacity_rps", capacity);
    for (std::size_t p = 0; p < 3; ++p) {
      const std::vector<double> v = pooled(p);
      res.set(std::string("latency_ms_p50.") + idx[p], 1e3 * median(v));
      res.set(std::string("latency_ms_tail.") + idx[p], 1e3 * quantile(v, latency_q));
      note(std::string("latency ") + idx[p] + ": " + std::to_string(v.size()) +
           " requests over the rounds, tail p" + fmt(100.0 * latency_q, 3) + " with " +
           fmt(static_cast<double>(v.size()) * (1.0 - latency_q), 3) + " samples beyond it");
    }
    const std::vector<double> inter = pooled(2, {0, 1});
    res.set("interactive_ms_tail.hi", 1e3 * quantile(inter, latency_q));
    note("interactive at hi: " + std::to_string(inter.size()) + " requests, tail p" +
         fmt(100.0 * latency_q, 3) + " with " +
         fmt(static_cast<double>(inter.size()) * (1.0 - latency_q), 3) + " samples beyond it");
    return;
  }

  // --- traced run: per-request spans rebuilt from each response's timings
  std::uint64_t id = 0;
  for (PhaseStats* ph : all) {
    if (ph == &untraced_mid) continue;
    const double base = tr.now();
    for (const Sent& s : ph->sent) {
      ++id;
      if (!s.resp.accepted()) continue;
      const int lane = class_of(s.req);
      const double t_sched = base + s.scheduled, t_sent = base + s.sent;
      const double t_deq = t_sent + s.resp.queue_seconds;
      const double t_done = t_sent + s.resp.total_seconds;
      const auto& rep = s.resp.report;
      const double solve = rep.setup_seconds + rep.cg.solve_seconds;
      const double prep = std::max(0.0, s.resp.total_seconds - s.resp.queue_seconds - solve);
      const std::int64_t root = tr.add("svc.request", id, -1, lane, t_sched, t_done);
      tr.add("gen.lateness", id, root, lane, t_sched, t_sent);
      tr.add("svc.queue", id, root, lane, t_sent, t_deq);
      tr.add("svc.prep", id, root, lane, t_deq, t_deq + prep);
      tr.add("core.setup", id, root, lane, t_deq + prep, t_deq + prep + rep.setup_seconds);
      tr.add("solver.cg", id, root, lane, t_deq + prep + rep.setup_seconds, t_deq + prep + solve);
    }
  }
  std::vector<double> queue_ms, prep_ms, numeric_ms, cg_ms, iters, backlog;
  for (const PhaseStats& hi : fixed[2]) {
    backlog.push_back(static_cast<double>(hi.backlog_end));
    for (const Sent& s : hi.sent)
      if (s.resp.accepted()) {
        const auto& rep = s.resp.report;
        queue_ms.push_back(1e3 * s.resp.queue_seconds);
        prep_ms.push_back(1e3 * std::max(0.0, s.resp.total_seconds - s.resp.queue_seconds -
                                                  rep.setup_seconds - rep.cg.solve_seconds));
      }
  }
  for (const auto& per_rate : fixed)
    for (const PhaseStats& p : per_rate)
      for (const Sent& s : p.sent)
        if (s.resp.accepted()) {
          numeric_ms.push_back(1e3 * s.resp.report.numeric_seconds);
          cg_ms.push_back(1e3 * s.resp.report.cg.solve_seconds);
          iters.push_back(s.resp.report.cg.iterations);
        }
  const geofem::obs::Snapshot snap = service.registry().snapshot();
  double batch_mean = 0.0, in_batch = 0.0;
  if (const auto* h = snap.histogram("svc.batch_size")) {
    batch_mean = h->mean();
    const double solo = h->bins.empty()
                            ? 0.0
                            : static_cast<double>(h->bins[static_cast<std::size_t>(
                                  geofem::obs::HistogramBins::index(1.0))]);
    in_batch = h->sum - solo;  // columns dispatched in batches of two or more
  }
  double all_requests = 0.0;
  for (PhaseStats* ph : all) all_requests += static_cast<double>(ph->completed);
  const geofem::plan::CacheStats cs = service.plan_cache().stats();
  res.set("mesh.gen_s", gen_s);
  res.set("svc.queue_ms_p50", median(queue_ms));
  res.set("svc.queue_ms_tail",
          quantile(queue_ms, tail_quantile(static_cast<double>(queue_ms.size()))));
  res.set("svc.prep_ms_p50", median(prep_ms));
  double sat_busy = 0.0, sat_wall = 0.0;
  for (const PhaseStats& sl : sat) {
    sat_busy += sl.solve_busy;
    sat_wall += sl.wall;
  }
  res.set("svc.busy_share", sat_busy / (so.workers * sat_wall));
  res.set("svc.batch_size_mean", batch_mean);
  res.set("svc.coalesce_share", all_requests > 0 ? in_batch / all_requests : 0.0);
  res.set("svc.backlog_end", median(backlog));
  res.set("svc.rejected", static_cast<double>(service.counts().rejected));
  res.set("plan.hit_rate", cs.hits + cs.misses ? static_cast<double>(cs.hits) /
                                                     static_cast<double>(cs.hits + cs.misses)
                                               : 0.0);
  res.set("precond.numeric_ms_p50", median(numeric_ms));
  res.set("solver.cg_ms_p50", median(cg_ms));
  res.set("solver.iterations", median(iters));
  res.set("gen.lateness_ms_p50", 1e3 * median(late));
  res.set("gen.lateness_ms_max", 1e3 * *std::max_element(late.begin(), late.end()));
  res.set("trace.overhead", median(fixed[1][0].latencies()) / median(untraced_mid.latencies()));
}

}  // namespace perfbench
