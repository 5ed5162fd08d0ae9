// cluster/scaling_model.hpp — MIT SuperCloud weak-scaling extrapolation.
//
// SUBSTITUTION (documented here): we do not have 1,100 servers.
// The paper's scaling experiment is embarrassingly parallel — instances
// never communicate — so aggregate rate is
//
//   rate(S) = S * instances_per_node * per_instance_rate
//                 * intra_node_efficiency * inter_node_efficiency
//
// We *measure* per_instance_rate and intra_node_efficiency on the local
// node (scaling_harness.hpp) and expose inter_node_efficiency as an
// explicit model parameter (default 1.0: no shared medium in the paper's
// run — each node streams its own data). Benches print measured points
// and modelled points separately so nothing is passed off as measured.
#pragma once

#include <cstddef>

#include "gbx/error.hpp"

namespace cluster {

struct SuperCloudModel {
  /// Measured single-instance streaming rate (updates/s).
  double per_instance_rate = 1.0e6;
  /// Measured: rate_P / (P * rate_1) when P instances share one node.
  double intra_node_efficiency = 1.0;
  /// The paper runs 31,000 instances on 1,100 nodes ≈ 28 per node.
  std::size_t instances_per_node = 28;
  /// Cross-node degradation; 1.0 = perfectly independent (paper's setup).
  double inter_node_efficiency = 1.0;

  /// Modelled aggregate update rate on `servers` nodes.
  double aggregate_rate(std::size_t servers) const {
    GBX_CHECK_VALUE(servers > 0, "server count must be positive");
    GBX_CHECK_VALUE(per_instance_rate > 0 && intra_node_efficiency > 0 &&
                        inter_node_efficiency > 0,
                    "model parameters must be positive");
    return static_cast<double>(servers) *
           static_cast<double>(instances_per_node) * per_instance_rate *
           intra_node_efficiency * inter_node_efficiency;
  }

  /// Total instances at a given server count.
  std::size_t instances(std::size_t servers) const {
    return servers * instances_per_node;
  }

  /// The paper's headline configuration: 1,100 servers, 31,000 instances.
  static constexpr std::size_t kPaperServers = 1100;
  static constexpr std::size_t kPaperInstances = 31000;
  static constexpr double kPaperRate = 75e9;
};

/// Calibrate a model from two measured runs: single instance and
/// node-saturating (P instances).
inline SuperCloudModel calibrate(double rate_1, std::size_t p, double rate_p,
                                 std::size_t instances_per_node = 28) {
  GBX_CHECK_VALUE(rate_1 > 0 && rate_p > 0 && p > 0, "rates must be positive");
  SuperCloudModel m;
  m.per_instance_rate = rate_1;
  m.intra_node_efficiency = rate_p / (static_cast<double>(p) * rate_1);
  m.instances_per_node = instances_per_node;
  return m;
}

}  // namespace cluster
