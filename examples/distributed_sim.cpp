// distributed_sim — the paper's scaling experiment, end to end.
//
// Measures real multi-instance aggregate update rates on this node
// (1, 2, ..., #cores instances, one per thread, fully independent — the
// paper's process model), calibrates the SuperCloud weak-scaling model
// from those measurements, and projects the Fig. 2 curve out to the
// paper's 1,100-server / 31,000-instance configuration. Measured and
// modelled numbers are labelled separately.
#include <omp.h>

#include <cstdio>
#include <vector>

#include "cluster/cluster.hpp"

int main() {
  const int cores = omp_get_max_threads();
  std::printf("local node: %d hardware threads\n\n", cores);

  cluster::WorkloadSpec w;
  w.sets = 10;
  w.set_size = 100000;  // the paper's set size
  w.scale = 17;
  w.alpha = 1.3;
  w.seed = 20200316;

  const auto cuts = hier::CutPolicy::geometric(4, 1u << 13, 8);

  std::printf("MEASURED on this node (hierarchical GraphBLAS instances):\n");
  std::printf("instances\taggregate_updates_per_s\tper_instance\n");
  std::vector<std::size_t> counts;
  for (std::size_t p = 1; p <= static_cast<std::size_t>(cores); p *= 2)
    counts.push_back(p);
  if (counts.back() != static_cast<std::size_t>(cores))
    counts.push_back(static_cast<std::size_t>(cores));

  cluster::RunResult first{}, last{};
  for (auto p : counts) {
    auto r = cluster::run_hier_gbx(p, w, cuts);
    if (p == 1) first = r;
    last = r;
    std::printf("%zu\t%.3g\t%.3g\n", p, r.aggregate_rate,
                r.aggregate_rate / static_cast<double>(p));
  }

  auto model = cluster::calibrate(first.aggregate_rate, last.instances,
                                  last.aggregate_rate,
                                  /*instances_per_node=*/28);
  std::printf("\ncalibrated model: per-instance %.3g updates/s, intra-node "
              "efficiency %.2f, 28 instances/server\n",
              model.per_instance_rate, model.intra_node_efficiency);

  std::printf("\nMODELLED weak scaling (SuperCloud substitution, see "
              "cluster/scaling_model.hpp):\n");
  std::printf("servers\tinstances\tmodelled_updates_per_s\n");
  for (std::size_t s : {1u, 4u, 16u, 64u, 256u, 1024u, 1100u})
    std::printf("%zu\t%zu\t%.3g\n", s, model.instances(s),
                model.aggregate_rate(s));

  const double headline = model.aggregate_rate(1100);
  std::printf("\npaper headline: 7.5e+10 updates/s at 1,100 servers\n");
  std::printf("this model:     %.3g updates/s at 1,100 servers (%s)\n",
              headline,
              headline >= 1e10 ? "same order of magnitude" : "below band");
  return 0;
}
