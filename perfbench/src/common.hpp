#pragma once

// Shared pieces of the perfbench binary: argument parsing, statistics, the
// result object printed as the last stdout line, the two contact models the
// workloads solve, and the answer checks every workload runs.

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "fem/assembly.hpp"
#include "mesh/hex_mesh.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point a) { return seconds_between(a, Clock::now()); }

/// `--key value` pairs. run.py passes every workload setting from
/// config.json this way, so the binary holds no sizes or rates of its own.
class Args {
 public:
  Args(int argc, char** argv);
  [[nodiscard]] bool has(const std::string& key) const { return kv_.count(key) != 0; }
  [[nodiscard]] std::string str(const std::string& key) const;
  [[nodiscard]] double num(const std::string& key) const;
  [[nodiscard]] int integer(const std::string& key) const;
  [[nodiscard]] std::uint64_t u64(const std::string& key) const;
  /// Comma-separated list of numbers.
  [[nodiscard]] std::vector<double> nums(const std::string& key) const;

 private:
  std::map<std::string, std::string> kv_;
};

/// splitmix64: derives independent sub-seeds from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Linear-interpolated quantile (q in [0,1]) of unsorted samples; 0 if empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Peak resident set size of this process so far, in MB (getrusage).
double peak_rss_mb();

/// What the run prints as its last stdout line:
/// {"correct", "attempted", "failed", "metrics": {name: value}}, with every
/// metric the workload measured (null when not finite). run.py picks the ones
/// BENCHMARK.json names and attaches their units. Everything else the run
/// prints goes before it, one `# `-prefixed line at a time, so a reader of the
/// log sees what each number was computed from.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> metrics;

  void set(const std::string& name, double value) { metrics[name] = value; }
  /// Record a wrong or failed operation (counts toward `failed`).
  void fail_op(const std::string& why);
  /// Record a check of the run as a whole that did not hold.
  void fail_run(const std::string& why);
  void print() const;
};

/// One `# ` log line on stdout (flushed).
void note(const std::string& line);
std::string fmt(double v, int prec = 4);

/// One model of a workload: mesh, materials, boundary conditions.
struct Model {
  geofem::mesh::HexMesh mesh;
  std::vector<geofem::fem::Material> materials = std::vector<geofem::fem::Material>(1);  ///< E=1, nu=0.3
  geofem::fem::BoundaryConditions bc;
};

/// Southwest-Japan-like model (fixed flat bottom, gravity body force) at
/// nx x ny elements, node jitter drawn from `jitter_seed`.
Model swjapan_model(int nx, int ny, unsigned jitter_seed);
/// Simple block model (symmetry at x=0 / y=0, fixed bottom, uniform top load).
Model block_model(int nx1, int nx2, int ny, int nz1, int nz2);

/// Mesh-validity gate: throws unless every element's minimum Jacobian is
/// positive. Runs before anything is timed.
void require_valid_mesh(const geofem::mesh::HexMesh& m, const std::string& what);

/// The benchmark's own copy of a solved system: elasticity + penalty on the
/// given groups + boundary conditions with loads scaled by `load_scale`.
geofem::fem::System assemble_system(const Model& m, double lambda,
                                    const std::vector<std::vector<int>>& groups,
                                    double load_scale = 1.0);
/// Same, starting from an already assembled elasticity-only system.
geofem::fem::System apply_deltas(const geofem::fem::System& elasticity, const Model& m,
                                 double lambda, const std::vector<std::vector<int>>& groups,
                                 double load_scale = 1.0);

/// ||b - A x|| / ||b|| computed with BlockCSR::spmv.
double true_relative_residual(const geofem::fem::System& sys, std::span<const double> x);

/// max_i |x_i - ref_i| / max_i |ref_i|.
double relative_difference(std::span<const double> x, std::span<const double> ref);

/// Answer check of one solution. At large lambda the floating-point floor of
/// ||b - A x|| / ||b|| lies far above the CG tolerance (the penalty blocks
/// are ~lambda times the elastic ones), so the true residual may reach
/// `residual_factor` times that of a reference solution of the same system
/// before it counts as wrong; below `residual_tol` it always passes. With a
/// reference, the solution must also lie within `solution_tol` of it.
struct AnswerCheck {
  const geofem::fem::System* sys = nullptr;
  std::span<const double> reference;  ///< may be empty (residual check only)
  double reference_residual = 0.0;
  double residual_tol = 0.0;
  double residual_factor = 0.0;
  double solution_tol = 0.0;
  bool log_passes = true;  ///< false: log only wrong answers

  /// Logs the figures under `what`; true when the answer is right.
  [[nodiscard]] bool operator()(std::span<const double> x, const std::string& what) const;
};

}  // namespace perfbench
