#pragma once

/// Order statistics for the benchmark's timings.

#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

/// Quantile q in [0, 1] with linear interpolation between closest ranks
/// (the numpy/R type-7 rule). An empty sample gives 0.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// The tail level reported for a sample of size n: the highest quantile
/// that still has at least 10 samples above it, capped at 0.99. With
/// n = 1000 that is 0.99; with n = 500 it drops to 0.98; 10 samples or
/// fewer give 0 (the minimum).
[[nodiscard]] double tail_level(std::size_t n);

struct Tail {
  double level = 0.0;
  double value = 0.0;
};
[[nodiscard]] Tail tail(std::vector<double> samples);

}  // namespace perfbench
