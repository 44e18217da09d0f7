#include "trace.hpp"

#include <algorithm>
#include <fstream>

namespace perfbench {

std::int64_t Tracer::begin(const std::string& name, std::uint64_t request, std::int64_t parent,
                           int lane) {
  if (!enabled_) return -1;
  const double t = now();
  std::lock_guard lock(mtx_);
  spans_.push_back({name, request, parent, lane, t, t});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::end(std::int64_t span) {
  if (span < 0) return;
  const double t = now();
  std::lock_guard lock(mtx_);
  spans_[static_cast<std::size_t>(span)].end = t;
}

std::int64_t Tracer::add(const std::string& name, std::uint64_t request, std::int64_t parent,
                         int lane, double start, double end) {
  if (!enabled_) return -1;
  std::lock_guard lock(mtx_);
  spans_.push_back({name, request, parent, lane, start, end});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mtx_);
  return spans_;
}

std::map<std::uint64_t, double> Tracer::total_by_request(const std::string& name) const {
  std::map<std::uint64_t, double> out;
  for (const Span& s : spans())
    if (s.name == name) out[s.request] += s.end - s.start;
  return out;
}

std::map<std::uint64_t, double> Tracer::count_by_request(const std::string& name) const {
  std::map<std::uint64_t, double> out;
  for (const Span& s : spans())
    if (s.name == name) out[s.request] += 1.0;
  return out;
}

std::map<std::uint64_t, double> Tracer::self_by_request(const std::string& name) const {
  const std::vector<Span> all = spans();
  std::map<std::int64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : all)
    if (s.parent >= 0) children[s.parent].push_back({s.start, s.end});
  std::map<std::uint64_t, double> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (s.name != name) continue;
    // union of the children's intervals, clipped to the span (children on
    // different ranks may overlap each other)
    auto iv = children[static_cast<std::int64_t>(i)];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start);
      hi = std::min(hi, s.end);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out[s.request] += (s.end - s.start) - covered;
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream f(path);
  f.precision(12);
  f << "{\"traceEvents\": [";
  const std::vector<Span> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    f << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 0"
      << ", \"tid\": " << s.lane << ", \"ts\": " << s.start * 1e6
      << ", \"dur\": " << (s.end - s.start) * 1e6 << ", \"args\": {\"request\": " << s.request
      << ", \"index\": " << i << ", \"parent\": " << s.parent << "}}";
  }
  f << "\n]}\n";
}

std::vector<double> values_of(const std::map<std::uint64_t, double>& m) {
  std::vector<double> v;
  v.reserve(m.size());
  for (const auto& [k, x] : m) v.push_back(x);
  return v;
}

}  // namespace perfbench
