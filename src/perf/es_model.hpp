#pragma once

#include "dist/comm.hpp"
#include "util/flops.hpp"
#include "util/loop_stats.hpp"

namespace geofem::perf {

/// Analytic Earth Simulator machine model. The host running this repository
/// has no vector processors and no interconnect, so the paper's GFLOPS /
/// speed-up / work-ratio panels are *replayed* through this model, driven by
/// exactly measured quantities of the real algorithm execution: FLOP counts,
/// innermost-loop counts and total lengths, and message counts/bytes. Only the
/// machine's response (pipeline fill, latency, bandwidth, OpenMP fork/join)
/// is synthetic. DESIGN.md documents this substitution.
///
/// Parameters follow the published ES characteristics: 8 GFLOPS peak per PE,
/// 8 PEs per SMP node; memory-bound sparse kernels sustain about a third of
/// peak once vector pipelines are full (the paper's best runs reach ~35% of
/// peak); MPI latency/bandwidth in the range reported by Kerbyson et al.
/// (paper ref [22]).
struct EsModel {
  double peak_per_pe = 8.0e9;      ///< FLOPS, peak
  double rinf_per_pe = 3.0e9;      ///< sustained asymptotic rate of vector loops
  double n_half = 170.0;           ///< loop length at half of rinf (pipeline fill)
  double scalar_rate = 0.25e9;     ///< rate of non-vectorized code
  int pes_per_node = 8;

  double mpi_latency = 8.6e-6;     ///< seconds per message
  double mpi_bandwidth = 11.8e9;   ///< bytes/second
  double allreduce_latency = 16.0e-6;  ///< per allreduce per doubling step
  double omp_sync = 3.0e-6;        ///< per OpenMP fork/join (hybrid only)

  /// Seconds one PE needs for the measured vector loops at `flops_per_entry`
  /// FLOPs per element: a loop of length n costs (n + n_half) * fpe / rinf,
  /// linear in n, so all of them cost (total_length + count * n_half) * fpe / rinf.
  [[nodiscard]] double vector_seconds(const util::LoopStats& loops,
                                      double flops_per_entry) const;

  /// Seconds for `flops` executed without vectorization.
  [[nodiscard]] double scalar_seconds(double flops) const {
    return flops / scalar_rate;
  }

  /// Seconds one rank spends in point-to-point communication plus reductions.
  /// `ranks` sizes the log2 allreduce tree.
  [[nodiscard]] double comm_seconds(const dist::TrafficStats& traffic, int ranks) const;

  /// Hybrid-model OpenMP overhead: `regions` fork/joins.
  [[nodiscard]] double omp_seconds(std::int64_t regions) const {
    return static_cast<double>(regions) * omp_sync;
  }

  /// Hitachi SR2201 flavour for the pre-ES experiments (Tables 1, 4, Figs 5,
  /// 9): scalar 300 MFLOPS PEs sustaining ~25% on sparse kernels, slower
  /// MPP-style network, one PE per "node".
  static EsModel sr2201() {
    EsModel m;
    m.peak_per_pe = 0.3e9;
    m.rinf_per_pe = 0.075e9;
    m.n_half = 0.0;  // scalar pipeline: no vector startup
    m.scalar_rate = 0.075e9;
    m.mpi_latency = 30.0e-6;
    m.mpi_bandwidth = 0.3e9;
    m.allreduce_latency = 30.0e-6;
    m.omp_sync = 0.0;
    m.pes_per_node = 1;
    return m;
  }
};

/// One rank's modeled execution, decomposed as in Fig 20.
struct TimeBreakdown {
  double compute = 0.0;
  double comm_latency = 0.0;
  double comm_bandwidth = 0.0;
  double omp = 0.0;

  [[nodiscard]] double total() const { return compute + comm_latency + comm_bandwidth + omp; }
  /// Paper's "parallel work ratio": computation / elapsed.
  [[nodiscard]] double work_ratio_percent() const {
    const double t = total();
    return t > 0.0 ? 100.0 * compute / t : 100.0;
  }
};

/// GFLOPS of `flops` executed in `seconds`.
inline double gflops(double flops, double seconds) {
  return seconds > 0.0 ? flops / seconds / 1e9 : 0.0;
}

}  // namespace geofem::perf
