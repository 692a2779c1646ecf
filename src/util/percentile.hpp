// Nearest-rank percentile over exact samples: the one formula behind
// workload::LatencyProfile, the critical-path segment statistics and the
// bench reports, so their columns agree.
#pragma once

#include <cstddef>
#include <vector>

namespace eternal::util {

/// The `p`-th percentile (p in [0, 100]) of `sorted`, which must be
/// non-empty and ascending: the sample at rank round(p / 100 · (n − 1)).
template <typename T>
const T& nearest_rank(const std::vector<T>& sorted, double p) {
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(rank + 0.5)];
}

}  // namespace eternal::util
