#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "precond/preconditioner.hpp"
#include "trace.hpp"

namespace perfbench {

/// Closed-loop end-to-end metrics from one caller's solve wall times. A
/// single blocking caller has no offered rate and no queue, so every rate
/// index of the latency metrics reports the solve latency itself, and the
/// capacity is the completed-solve rate while the tail stays within the limit.
void closed_loop_metrics(Result& res, const std::vector<double>& solve_s, double tail_q,
                         double latency_limit_s);

/// True when run.py asked for a set-up only run (`--setup-only 1`): the
/// workload sets up once, reports `setup_s` and returns. run.py starts
/// several such processes so that every set-up it takes the median of pays
/// the first-in-process costs.
bool setup_only(const Args& a);

/// Decorator timing every apply() of the wrapped preconditioner as a span.
/// Forwards every call unchanged, so results are bit-identical.
class TimedPreconditioner final : public geofem::precond::Preconditioner {
 public:
  TimedPreconditioner(geofem::precond::PreconditionerPtr inner, Tracer& tracer,
                      std::uint64_t request, std::int64_t parent, int lane)
      : inner_(std::move(inner)), tr_(tracer), request_(request), parent_(parent), lane_(lane) {}

  void apply(std::span<const double> r, std::span<double> z, geofem::util::FlopCounter* flops,
             geofem::util::LoopStats* loops) const override {
    Scope s(tr_, "precond.apply", request_, parent_, lane_);
    inner_->apply(r, z, flops, loops);
  }
  [[nodiscard]] std::size_t memory_bytes() const override { return inner_->memory_bytes(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] geofem::precond::Desc desc() const override { return inner_->desc(); }

 private:
  geofem::precond::PreconditionerPtr inner_;
  Tracer& tr_;
  std::uint64_t request_;
  std::int64_t parent_;
  int lane_;
};

/// Each workload sets `setup_s` (the time from the start of its set-up to
/// the first timed operation) and then, unless setup_only(), its end-to-end
/// metrics (untraced run) or its per-layer metrics (traced run). Per-layer
/// metrics of a layer the workload does not exercise are not set.
void run_swjapan_hybrid(const Args& args, Result& res, Tracer& tr);
void run_swjapan_flat_mpi(const Args& args, Result& res, Tracer& tr);
void run_service_mix(const Args& args, Result& res, Tracer& tr);

}  // namespace perfbench
