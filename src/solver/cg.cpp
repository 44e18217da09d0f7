#include "solver/cg.hpp"

#include <cmath>
#include <limits>

#include "obs/span.hpp"
#include "precond/two_level.hpp"
#include "simd/simd.hpp"
#include "sparse/vector_ops.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace geofem::solver {

std::string to_string(CGVariant v) {
  switch (v) {
    case CGVariant::kClassic: return "classic";
    case CGVariant::kGropp: return "gropp";
    case CGVariant::kPipelined: return "pipelined";
  }
  return "?";
}

namespace {

/// Global value of one local partial sum.
double reduce(Reduction& red, double local) {
  red.sum(std::span<double>(&local, 1));
  return local;
}

/// Publishes a freshly reduced residual norm: res.relative_residual always
/// holds the latest one (so it survives a hook that throws), and the history
/// gets it when recording.
void note_residual(CGResult& res, const CGOptions& opt, double rel) {
  res.relative_residual = rel;
  if (opt.record_residuals) res.residual_history.push_back(rel);
}

/// One CG attempt continuing from the current `x`, drawing on the shared
/// budget opt.max_iterations - res.iterations and appending to
/// res.residual_history. Each attempt recomputes its own true residual
/// r = b - A x at entry, so a warm restart (the kClassic retry after a
/// variant breakdown) starts from an honest residual rather than the drifted
/// recurrence of the failed attempt. Sets res.status / res.relative_residual.
/// Every dot product is a local partial reduced through `red`.
using Attempt = void (*)(const MatVec&, const precond::Preconditioner&, std::span<const double>,
                         std::span<double>, const CGOptions&, Reduction&, CGResult&,
                         obs::Registry*);

/// Textbook PCG — the body is the pre-variant solver verbatim (same spans,
/// same operation order, same breakdown checks), so kClassic residual
/// histories stay bit-identical to the pre-change baselines.
void attempt_classic(const MatVec& amul, const precond::Preconditioner& m,
                     std::span<const double> b, std::span<double> x, const CGOptions& opt,
                     Reduction& red, CGResult& res, obs::Registry* reg) {
  const std::size_t n = b.size();
  simd::aligned_vector<double> r(n), z(n), p(n), q(n);
  auto* fc = &res.flops;
  auto* ls = &res.loops;

  // r = b - A x
  {
    obs::ScopedSpan s(reg, "pcg.spmv");
    amul(x, r, fc, ls);
  }
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  fc->blas1 += n;

  const double bnorm = std::sqrt(reduce(red, sparse::dot(b, b, fc)));
  GEOFEM_CHECK(bnorm > 0.0, "pcg: zero right-hand side");
  double rnorm = std::sqrt(reduce(red, sparse::dot(r, r, fc)));
  note_residual(res, opt, rnorm / bnorm);

  // Stagnation ring buffer: slot it % W holds the relative residual from W
  // iterations ago by the time iteration `it` reads it.
  const int window = opt.stagnation_window;
  std::vector<double> stag_ring(window > 0 ? static_cast<std::size_t>(window) : 0);

  res.status = SolveStatus::kMaxIterations;
  double rho_prev = 0.0;
  for (int it = 0; res.iterations < opt.max_iterations && rnorm / bnorm > opt.tolerance; ++it) {
    double rho = 0.0;
    {
      obs::ScopedSpan s(reg, "pcg.precond");
      m.apply(r, z, fc, ls);
    }
    {
      obs::ScopedSpan s(reg, "pcg.blas1");
      rho = reduce(red, sparse::dot(r, z, fc));
      // Breakdown: with an SPD preconditioner and r != 0, rho = r.z must be
      // strictly positive; anything else (including NaN) would previously
      // poison p and run to max_iterations on garbage.
      if (!(rho > 0.0)) {
        res.status = SolveStatus::kBreakdown;
        break;
      }
      if (it == 0) {
        sparse::copy(z, p);
      } else {
        sparse::xpby(z, rho / rho_prev, p, fc);
      }
    }
    rho_prev = rho;

    {
      obs::ScopedSpan s(reg, "pcg.spmv");
      amul(p, q, fc, ls);
    }
    {
      obs::ScopedSpan s(reg, "pcg.blas1");
      const double pq = reduce(red, sparse::dot(p, q, fc));
      // Indefinite direction: p.Ap <= 0 means A is not SPD along p and the
      // step length alpha is meaningless.
      if (!(pq > 0.0)) {
        res.status = SolveStatus::kBreakdown;
        break;
      }
      const double alpha = rho / pq;
      sparse::axpy(alpha, p, x, fc);
      sparse::axpy(-alpha, q, r, fc);
      rnorm = std::sqrt(reduce(red, sparse::dot(r, r, fc)));
    }
    ++res.iterations;
    note_residual(res, opt, rnorm / bnorm);
    if (!std::isfinite(rnorm)) {
      res.status = SolveStatus::kBreakdown;
      break;
    }
    if (window > 0) {
      const double rel = rnorm / bnorm;
      const auto slot = static_cast<std::size_t>(it % window);
      if (it >= window && rel > 0.99 * stag_ring[slot]) {
        res.status = SolveStatus::kStagnated;
        break;
      }
      stag_ring[slot] = rel;
    }
  }

  if (res.relative_residual <= opt.tolerance) res.status = SolveStatus::kConverged;
}

/// Gropp's two-overlap CG: two split-phase reductions per iteration, (p,s)
/// in flight behind q = M⁻¹s and the fused {(r,u), ||r||²} behind w = Au.
/// Every exit decision derives from the reduced values, so distributed ranks
/// leave together. The overlap windows are traced as pcg.overlap spans.
void attempt_gropp(const MatVec& amul, const precond::Preconditioner& m,
                   std::span<const double> b, std::span<double> x, const CGOptions& opt,
                   Reduction& red, CGResult& res, obs::Registry* reg) {
  const std::size_t n = b.size();
  simd::aligned_vector<double> r(n), u(n), p(n), s(n), q(n), w(n);
  auto* fc = &res.flops;
  auto* ls = &res.loops;

  {
    obs::ScopedSpan sp(reg, "pcg.spmv");
    amul(x, r, fc, ls);
  }
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  fc->blas1 += n;

  const double bnorm = std::sqrt(reduce(red, sparse::dot(b, b, fc)));
  GEOFEM_CHECK(bnorm > 0.0, "pcg: zero right-hand side");
  double rnorm = std::sqrt(reduce(red, sparse::dot(r, r, fc)));
  note_residual(res, opt, rnorm / bnorm);

  {
    obs::ScopedSpan sp(reg, "pcg.precond");
    m.apply(r, u, fc, ls);
  }
  sparse::copy(u, p);
  {
    obs::ScopedSpan sp(reg, "pcg.spmv");
    amul(p, s, fc, ls);
  }
  double gamma = reduce(red, sparse::dot(r, u, fc));

  const int window = opt.stagnation_window;
  std::vector<double> stag_ring(window > 0 ? static_cast<std::size_t>(window) : 0);

  res.status = SolveStatus::kMaxIterations;
  for (int it = 0; res.iterations < opt.max_iterations && rnorm / bnorm > opt.tolerance; ++it) {
    if (!(gamma > 0.0)) {
      res.status = SolveStatus::kBreakdown;
      break;
    }
    // First reduction, δ = (p, s), in flight while the preconditioner runs.
    double delta = sparse::dot(p, s, fc);
    red.post(std::span<double>(&delta, 1));
    {
      obs::ScopedSpan ov(reg, "pcg.overlap");
      obs::ScopedSpan sp(reg, "pcg.precond");
      m.apply(s, q, fc, ls);  // q = M⁻¹ s
    }
    red.wait();
    if (!(delta > 0.0)) {
      res.status = SolveStatus::kBreakdown;
      break;
    }
    const double alpha = gamma / delta;
    sparse::axpy(alpha, p, x, fc);
    sparse::axpy(-alpha, s, r, fc);
    sparse::axpy(-alpha, q, u, fc);
    // Second reduction, fused {γ' = (r,u), ||r||²}, in flight while the
    // SpMV runs.
    double fused[2] = {sparse::dot(r, u, fc), sparse::dot(r, r, fc)};
    red.post(fused);
    {
      obs::ScopedSpan ov(reg, "pcg.overlap");
      obs::ScopedSpan sp(reg, "pcg.spmv");
      amul(u, w, fc, ls);  // w = A u
    }
    red.wait();
    const double beta = fused[0] / gamma;
    sparse::xpby(u, beta, p, fc);  // p = u + β p
    sparse::xpby(w, beta, s, fc);  // s = w + β s
    gamma = fused[0];
    rnorm = std::sqrt(fused[1]);
    ++res.iterations;
    note_residual(res, opt, rnorm / bnorm);
    if (!std::isfinite(rnorm)) {
      res.status = SolveStatus::kBreakdown;
      break;
    }
    if (window > 0) {
      const double rel = rnorm / bnorm;
      const auto slot = static_cast<std::size_t>(it % window);
      if (it >= window && rel > 0.99 * stag_ring[slot]) {
        res.status = SolveStatus::kStagnated;
        break;
      }
      stag_ring[slot] = rel;
    }
  }

  if (res.relative_residual <= opt.tolerance) res.status = SolveStatus::kConverged;
}

/// Ghysels–Vanroose pipelined CG: ONE fused reduction per iteration
/// {γ = (r,u), δ = (w,u), ||r||²}, hidden behind both m = M⁻¹w and n = Am.
/// Four extra recurrence vectors (z, q, s, p) trade memory for the removed
/// synchronization; the recurrence residual can drift from the true one
/// (attainable accuracy), which is why breakdown/stagnation here falls back
/// to kClassic rather than straight to a different preconditioner.
void attempt_pipelined(const MatVec& amul, const precond::Preconditioner& m,
                       std::span<const double> b, std::span<double> x, const CGOptions& opt,
                       Reduction& red, CGResult& res, obs::Registry* reg) {
  const std::size_t n = b.size();
  simd::aligned_vector<double> r(n), u(n), w(n), mv(n), nv(n), z(n), q(n), s(n), p(n);
  auto* fc = &res.flops;
  auto* ls = &res.loops;

  {
    obs::ScopedSpan sp(reg, "pcg.spmv");
    amul(x, r, fc, ls);
  }
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  fc->blas1 += n;

  const double bnorm = std::sqrt(reduce(red, sparse::dot(b, b, fc)));
  GEOFEM_CHECK(bnorm > 0.0, "pcg: zero right-hand side");
  double rnorm = std::sqrt(reduce(red, sparse::dot(r, r, fc)));
  note_residual(res, opt, rnorm / bnorm);

  {
    obs::ScopedSpan sp(reg, "pcg.precond");
    m.apply(r, u, fc, ls);
  }
  {
    obs::ScopedSpan sp(reg, "pcg.spmv");
    amul(u, w, fc, ls);
  }

  const int window = opt.stagnation_window;
  std::vector<double> stag_ring(window > 0 ? static_cast<std::size_t>(window) : 0);

  res.status = SolveStatus::kMaxIterations;
  double gamma_prev = 0.0, alpha_prev = 0.0;
  for (int it = 0;; ++it) {
    // The single fused reduction of the iteration, in flight while the
    // overlap window (M⁻¹w and Am) runs. The window runs even on the
    // iteration that then exits: the exit decision needs the reduced values.
    double fused[3] = {sparse::dot(r, u, fc), sparse::dot(w, u, fc), sparse::dot(r, r, fc)};
    red.post(fused);
    {
      obs::ScopedSpan ov(reg, "pcg.overlap");
      {
        obs::ScopedSpan sp(reg, "pcg.precond");
        m.apply(w, mv, fc, ls);  // m = M⁻¹ w
      }
      {
        obs::ScopedSpan sp(reg, "pcg.spmv");
        amul(mv, nv, fc, ls);  // n = A m
      }
    }
    red.wait();
    const double gamma = fused[0];
    const double delta = fused[1];
    rnorm = std::sqrt(fused[2]);
    const double rel = rnorm / bnorm;
    res.relative_residual = rel;
    // ||r_it||² arrives with iteration it's reduction: the history entry and
    // the stagnation probe for the previous iteration's update land here.
    if (it > 0) {
      if (opt.record_residuals) res.residual_history.push_back(rel);
      if (!std::isfinite(rnorm)) {
        res.status = SolveStatus::kBreakdown;
        break;
      }
      if (window > 0) {
        const auto slot = static_cast<std::size_t>((it - 1) % window);
        if (it - 1 >= window && rel > 0.99 * stag_ring[slot]) {
          res.status = SolveStatus::kStagnated;
          break;
        }
        stag_ring[slot] = rel;
      }
    }
    if (rel <= opt.tolerance) {
      res.status = SolveStatus::kConverged;
      break;
    }
    if (res.iterations >= opt.max_iterations) break;
    if (!(gamma > 0.0)) {
      res.status = SolveStatus::kBreakdown;
      break;
    }
    double alpha = 0.0, beta = 0.0;
    if (it == 0) {
      if (!(delta > 0.0)) {
        res.status = SolveStatus::kBreakdown;
        break;
      }
      alpha = gamma / delta;
    } else {
      beta = gamma / gamma_prev;
      // α = γ / (δ − β γ / α_prev): the pipelined recurrence's rearranged
      // p.Ap. A non-positive (or non-finite) denominator is the variant's
      // rounding-induced breakdown mode.
      const double denom = delta - beta * gamma / alpha_prev;
      if (!(denom > 0.0) || !std::isfinite(denom)) {
        res.status = SolveStatus::kBreakdown;
        break;
      }
      alpha = gamma / denom;
    }
    if (it == 0) {
      sparse::copy(nv, z);
      sparse::copy(mv, q);
      sparse::copy(w, s);
      sparse::copy(u, p);
    } else {
      sparse::xpby(nv, beta, z, fc);  // z = n + β z
      sparse::xpby(mv, beta, q, fc);  // q = m + β q
      sparse::xpby(w, beta, s, fc);   // s = w + β s
      sparse::xpby(u, beta, p, fc);   // p = u + β p
    }
    sparse::axpy(alpha, p, x, fc);
    sparse::axpy(-alpha, s, r, fc);
    sparse::axpy(-alpha, q, u, fc);
    sparse::axpy(-alpha, z, w, fc);
    gamma_prev = gamma;
    alpha_prev = alpha;
    ++res.iterations;

    // Periodic residual replacement: rebuild every recurrence vector from its
    // definition. Purely local work (no reductions), so the single-reduction
    // overlap structure is untouched; without it the recurrence residual
    // plateaus well above classic's attainable accuracy on ill-conditioned
    // systems and tight tolerances force the kClassic fallback.
    const int replace = opt.pipeline_replace_interval;
    if (replace > 0 && (it + 1) % replace == 0) {
      {
        obs::ScopedSpan sp(reg, "pcg.spmv");
        amul(x, mv, fc, ls);
      }
      for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - mv[i];
      fc->blas1 += n;
      {
        obs::ScopedSpan sp(reg, "pcg.precond");
        m.apply(r, u, fc, ls);
      }
      {
        obs::ScopedSpan sp(reg, "pcg.spmv");
        amul(u, w, fc, ls);
        amul(p, s, fc, ls);
      }
      {
        obs::ScopedSpan sp(reg, "pcg.precond");
        m.apply(s, q, fc, ls);
      }
      {
        obs::ScopedSpan sp(reg, "pcg.spmv");
        amul(q, z, fc, ls);
      }
    }
  }

  if (res.relative_residual <= opt.tolerance) res.status = SolveStatus::kConverged;
}

Attempt attempt_of(CGVariant v) {
  switch (v) {
    case CGVariant::kClassic: return &attempt_classic;
    case CGVariant::kGropp: return &attempt_gropp;
    case CGVariant::kPipelined: return &attempt_pipelined;
  }
  GEOFEM_CHECK(false, "unknown CG variant");
}

}  // namespace

void pcg(const MatVec& amul, const precond::Preconditioner& m, std::span<const double> b,
         std::span<double> x, const CGOptions& opt, Reduction& red, CGResult& res) {
  GEOFEM_CHECK(b.size() == x.size(), "pcg size mismatch");
  res = CGResult{};
  res.relative_residual = std::numeric_limits<double>::quiet_NaN();
  util::Timer timer;

  // Telemetry is opt-in: reg is null unless the caller attached a registry to
  // this thread (obs::Attach), in which case each phase of every iteration
  // becomes a trace span and the final counts land as registry metrics.
  obs::Registry* reg = obs::current();
  obs::ScopedSpan solve_span(reg, "pcg.solve");

  attempt_of(opt.variant)(amul, m, b, x, opt, red, res, reg);

  // Reordered-arithmetic variants are numerically delicate: a breakdown or
  // stall falls back to the bitwise-reference kClassic on the SAME
  // preconditioner (warm restart from the partial iterate, shared budget)
  // before any preconditioner-level fallback gets to run.
  if (opt.variant != CGVariant::kClassic &&
      (res.status == SolveStatus::kBreakdown || res.status == SolveStatus::kStagnated)) {
    res.variant_fallbacks = 1;
    if (reg) reg->counter("pcg.fallback.variant")->add(1);
    CGOptions retry = opt;
    retry.variant = CGVariant::kClassic;
    attempt_classic(amul, m, b, x, retry, red, res, reg);
    if (res.status == SolveStatus::kConverged) res.status = SolveStatus::kFellBack;
  }

  res.solve_seconds = timer.seconds();

  if (reg) {
    std::string slug = to_string(res.status);
    for (char& ch : slug)
      if (ch == ' ') ch = '_';
    reg->counter("pcg.status." + slug)->add(1);
    reg->counter("pcg.iterations")->add(static_cast<std::uint64_t>(res.iterations));
    reg->counter("pcg.solves")->add(1);
    reg->gauge("pcg.relative_residual")->set(res.relative_residual);
    reg->gauge("pcg.solve_seconds")->set(res.solve_seconds);
    reg->gauge("solver.variant")->set(static_cast<double>(opt.variant));
    reg->absorb("pcg", res.flops);
    reg->absorb("pcg", res.loops);
  }
}

CGResult pcg(const MatVec& amul, const precond::Preconditioner& m, std::span<const double> b,
             std::span<double> x, const CGOptions& opt) {
  Reduction local;
  CGResult res;
  pcg(amul, m, b, x, opt, local, res);
  return res;
}

CGResult pcg(const sparse::BlockCSR& a, const precond::Preconditioner& m,
             std::span<const double> b, std::span<double> x, const CGOptions& opt) {
  return pcg(precond::matvec_of(a), m, b, x, opt);
}

}  // namespace geofem::solver
