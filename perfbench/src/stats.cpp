#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {
constexpr double kTailCap = 0.99;
constexpr std::size_t kTailBeyond = 10;
}  // namespace

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double tail_level(std::size_t n) {
  if (n <= kTailBeyond) return 0.0;
  // The type-7 position of level L is (n-1)L; at L = 1 - 10/n it falls
  // between the 0-based ranks n-11 and n-10, so 10 samples sit above it.
  const double level = 1.0 - static_cast<double>(kTailBeyond) / static_cast<double>(n);
  return std::min(kTailCap, level);
}

Tail tail(std::vector<double> samples) {
  const double level = tail_level(samples.size());
  return {level, quantile(std::move(samples), level)};
}

}  // namespace perfbench
