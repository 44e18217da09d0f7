#include "perf/es_model.hpp"

#include <cmath>

namespace geofem::perf {

double EsModel::vector_seconds(const util::LoopStats& loops, double flops_per_entry) const {
  return (static_cast<double>(loops.total_length()) +
          static_cast<double>(loops.count()) * n_half) *
         flops_per_entry / rinf_per_pe;
}

double EsModel::comm_seconds(const dist::TrafficStats& traffic, int ranks) const {
  const double p2p = static_cast<double>(traffic.messages_sent) * mpi_latency +
                     static_cast<double>(traffic.bytes_sent) / mpi_bandwidth;
  const double tree_depth = ranks > 1 ? std::ceil(std::log2(static_cast<double>(ranks))) : 0.0;
  const double red = static_cast<double>(traffic.allreduces + traffic.barriers) * tree_depth *
                     allreduce_latency;
  return p2p + red;
}

}  // namespace geofem::perf
