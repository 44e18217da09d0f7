#pragma once

// In-memory span recorder for the traced runs. Spans are recorded by the
// benchmark around its own calls into the library (no span is recorded inside
// the library), kept in memory, and written out once when the run ends.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t request = 0;  ///< solve / request id shared by all its spans
  std::int64_t parent = -1;   ///< index of the enclosing span, -1 for a root
  int lane = 0;               ///< rank or worker the span ran on
  double start = 0.0;         ///< seconds since the tracer was created
  double end = 0.0;
};

/// Thread-safe: flat-MPI ranks record their preconditioner spans from their
/// own threads. A disabled tracer records nothing and returns -1 handles.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] double now() const { return seconds_since(epoch_); }

  std::int64_t begin(const std::string& name, std::uint64_t request, std::int64_t parent = -1,
                     int lane = 0);
  void end(std::int64_t span);
  /// A span whose times are known after the fact (service requests).
  std::int64_t add(const std::string& name, std::uint64_t request, std::int64_t parent,
                   int lane, double start, double end);

  /// Copy of every recorded span (call once recording is over).
  [[nodiscard]] std::vector<Span> spans() const;

  /// Per request id: summed duration of spans called `name`.
  [[nodiscard]] std::map<std::uint64_t, double> total_by_request(const std::string& name) const;
  /// Per request id: summed self time (duration minus the part of it covered
  /// by child spans) of spans called `name`.
  [[nodiscard]] std::map<std::uint64_t, double> self_by_request(const std::string& name) const;
  /// Per request id: number of spans called `name`.
  [[nodiscard]] std::map<std::uint64_t, double> count_by_request(const std::string& name) const;

  /// Write all spans as a Chrome trace_event JSON file.
  void write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mtx_;
  std::vector<Span> spans_;
};

/// RAII span on one thread.
class Scope {
 public:
  Scope(Tracer& t, const std::string& name, std::uint64_t request, std::int64_t parent = -1,
        int lane = 0)
      : t_(t), idx_(t.begin(name, request, parent, lane)) {}
  ~Scope() { t_.end(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::int64_t index() const { return idx_; }

 private:
  Tracer& t_;
  std::int64_t idx_;
};

/// Values of a per-request map, for quantiles.
std::vector<double> values_of(const std::map<std::uint64_t, double>& m);

}  // namespace perfbench
