#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "contact/penalty.hpp"
#include "mesh/simple_block.hpp"
#include "mesh/southwest_japan.hpp"

namespace perfbench {

Args::Args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k.rfind("--", 0) != 0 || i + 1 >= argc)
      throw std::invalid_argument("expected --key value, got '" + k + "'");
    kv_[k.substr(2)] = argv[++i];
  }
}

std::string Args::str(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) throw std::invalid_argument("missing argument --" + key);
  return it->second;
}

double Args::num(const std::string& key) const { return std::stod(str(key)); }
int Args::integer(const std::string& key) const { return std::stoi(str(key)); }
std::uint64_t Args::u64(const std::string& key) const { return std::stoull(str(key)); }

std::vector<double> Args::nums(const std::string& key) const {
  std::vector<double> out;
  std::stringstream ss(str(key));
  for (std::string item; std::getline(ss, item, ',');) out.push_back(std::stod(item));
  if (out.empty()) throw std::invalid_argument("empty list --" + key);
  return out;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void Result::fail_op(const std::string& why) {
  ++failed;
  correct = false;
  note("FAILED: " + why);
}

void Result::fail_run(const std::string& why) {
  correct = false;
  note("CHECK FAILED: " + why);
}

void Result::print() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, v] : metrics) {
    os << sep << "\"" << name << "\": ";
    if (std::isfinite(v))
      os << v;
    else
      os << "null";
    sep = ", ";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void note(const std::string& line) { std::cout << "# " << line << std::endl; }

std::string fmt(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", prec, v);
  return buf;
}

Model swjapan_model(int nx, int ny, unsigned jitter_seed) {
  geofem::mesh::SouthwestJapanParams p;
  p.nx = nx;
  p.ny = ny;
  p.seed = jitter_seed;
  Model m;
  m.mesh = geofem::mesh::southwest_japan_like(p);
  const double zmin = m.mesh.bounding_box().lo[2];
  m.bc.fix_nodes(
      m.mesh.nodes_where([zmin](double, double, double z) { return z < zmin + 1e-9; }), -1);
  m.bc.body_force(m.mesh, 2, -1.0);
  return m;
}

Model block_model(int nx1, int nx2, int ny, int nz1, int nz2) {
  Model m;
  m.mesh = geofem::mesh::simple_block({nx1, nx2, ny, nz1, nz2});
  auto& bc = m.bc;
  const auto& mesh = m.mesh;
  bc.fix_nodes(mesh.nodes_where([](double, double, double z) { return z == 0.0; }), -1);
  bc.fix_nodes(mesh.nodes_where([](double x, double, double) { return x == 0.0; }), 0);
  bc.fix_nodes(mesh.nodes_where([](double, double y, double) { return y == 0.0; }), 1);
  const double zmax = mesh.bounding_box().hi[2];
  bc.surface_load(
      mesh, [zmax](double, double, double z) { return std::abs(z - zmax) < 1e-9; }, 2, -1.0);
  return m;
}

void require_valid_mesh(const geofem::mesh::HexMesh& m, const std::string& what) {
  const auto q = geofem::mesh::mesh_quality(m);
  note(what + ": " + std::to_string(m.num_dof()) + " DOF, " +
       std::to_string(m.contact_groups.size()) + " contact groups, min Jacobian " +
       fmt(q.min_jacobian) + ", " + std::to_string(q.negative_jacobians) +
       " inverted elements");
  if (!(q.min_jacobian > 0.0) || q.negative_jacobians > 0)
    throw std::runtime_error("refusing " + what + ": minimum Jacobian " + fmt(q.min_jacobian) +
                             " <= 0 (inverted elements)");
}

geofem::fem::System assemble_system(const Model& m, double lambda,
                                    const std::vector<std::vector<int>>& groups,
                                    double load_scale) {
  return apply_deltas(geofem::fem::assemble_elasticity(m.mesh, m.materials), m, lambda, groups,
                      load_scale);
}

geofem::fem::System apply_deltas(const geofem::fem::System& elasticity, const Model& m,
                                 double lambda, const std::vector<std::vector<int>>& groups,
                                 double load_scale) {
  geofem::fem::System sys = elasticity;
  geofem::contact::add_penalty(sys.a, groups, lambda);
  geofem::fem::BoundaryConditions bc = m.bc;
  for (auto& l : bc.loads) l.value *= load_scale;
  geofem::fem::apply_boundary_conditions(sys, bc);
  return sys;
}

double true_relative_residual(const geofem::fem::System& sys, std::span<const double> x) {
  if (x.size() != sys.a.ndof()) return INFINITY;
  std::vector<double> ax(sys.a.ndof());
  sys.a.spmv(x, ax);
  double rr = 0.0, bb = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    const double r = sys.b[i] - ax[i];
    rr += r * r;
    bb += sys.b[i] * sys.b[i];
  }
  return bb > 0.0 ? std::sqrt(rr / bb) : std::sqrt(rr);
}

double relative_difference(std::span<const double> x, std::span<const double> ref) {
  if (x.size() != ref.size()) return INFINITY;
  double diff = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    diff = std::max(diff, std::abs(x[i] - ref[i]));
    scale = std::max(scale, std::abs(ref[i]));
  }
  return scale > 0.0 ? diff / scale : diff;
}

bool AnswerCheck::operator()(std::span<const double> x, const std::string& what) const {
  const double rr = true_relative_residual(*sys, x);
  const double limit = std::max(residual_tol, residual_factor * reference_residual);
  std::string line = what + ": true relative residual " + fmt(rr, 3) + " (limit " +
                     fmt(limit, 3) + ")";
  bool ok = rr <= limit;
  if (!reference.empty()) {
    const double diff = relative_difference(x, reference);
    line += ", difference from reference " + fmt(diff, 3) + " (limit " + fmt(solution_tol, 3) + ")";
    ok = ok && diff <= solution_tol;
  }
  if (log_passes || !ok) note(line + (ok ? "" : "  WRONG"));
  return ok;
}

}  // namespace perfbench
