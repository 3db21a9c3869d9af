// The many-colors stress graph shared by the antichain tests and the
// bench_perf_scaling trajectory cells, so both run the same graph.
//
// Header-only and free of gtest, so the benchmark harness can include it.
#pragma once

#include <cstddef>
#include <string>

#include "workloads/random_dag.hpp"

namespace mpsched::test {

/// Colors many_colors_dag() draws from.
inline constexpr std::size_t kManyColors = 70;

/// A 73-node layered random DAG whose nodes draw uniformly from
/// kManyColors colors (51 in use; 9.4k antichains in 7.3k patterns at
/// C = 6): nearly every antichain is the only one of its pattern, so the
/// §5.1 walk's per-pattern costs (first-sighting lookups, successor rows,
/// h rows, emission) dominate, and color ids above 63 reach past one mask
/// word of colors.
inline Dfg many_colors_dag() {
  workloads::LayeredDagOptions options;
  options.layers = 10;
  options.min_width = 6;
  options.max_width = 9;
  options.edge_probability = 0.5;
  options.color_weights.assign(kManyColors, 1.0);
  options.color_names.clear();
  for (std::size_t c = 0; c < kManyColors; ++c) {
    std::string name = "k";
    name += std::to_string(c);
    options.color_names.push_back(name);
  }
  return workloads::random_layered_dag(3, options);
}

}  // namespace mpsched::test
