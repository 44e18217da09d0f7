#pragma once

#include <algorithm>
#include <cstdint>

namespace geofem::util {

/// Innermost-loop trip counts executed by a vectorizable kernel: loop count,
/// total length, shortest and longest loop ("average vector length" in the
/// paper's Figs 26(d)/27(d)/30(d)/31(d)). The machine model's per-loop cost
/// (n + n_half) * fpe / rinf is linear in n, so count and total length drive
/// it exactly. Fixed size: record never allocates, merge is O(1).
class LoopStats {
 public:
  void record(std::int64_t length, std::int64_t times = 1) {
    if (length <= 0 || times <= 0) return;
    min_ = count_ == 0 ? length : std::min(min_, length);
    max_ = std::max(max_, length);
    total_length_ += length * times;
    count_ += times;
  }

  [[nodiscard]] double average() const {
    return count_ == 0 ? 0.0 : static_cast<double>(total_length_) / static_cast<double>(count_);
  }

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] std::int64_t total_length() const { return total_length_; }
  [[nodiscard]] std::int64_t max_length() const { return max_; }
  [[nodiscard]] std::int64_t min_length() const { return count_ == 0 ? 0 : min_; }

  void merge(const LoopStats& o) {
    if (o.count_ == 0) return;
    min_ = count_ == 0 ? o.min_ : std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
    total_length_ += o.total_length_;
    count_ += o.count_;
  }

  void reset() { *this = LoopStats{}; }

 private:
  std::int64_t count_ = 0;
  std::int64_t total_length_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

}  // namespace geofem::util
