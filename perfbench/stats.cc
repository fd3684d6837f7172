#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(std::clamp(q, 0.0, 1.0) * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double TailQuantileLevel(size_t n, double wanted, size_t min_beyond) {
  if (n <= min_beyond) return 0.5;
  const double level =
      1.0 - static_cast<double>(min_beyond) / static_cast<double>(n);
  return std::max(0.5, std::min(wanted, level));
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double LowerQuartile(std::vector<double> values) {
  return Quantile(values, 0.25);
}

std::vector<double> StepwiseLowerQuartile(
    const std::vector<const std::vector<double>*>& repetitions) {
  if (repetitions.empty()) return {};
  size_t steps = repetitions.front()->size();
  for (const std::vector<double>* r : repetitions) {
    steps = std::min(steps, r->size());
  }
  std::vector<double> result(steps);
  std::vector<double> times(repetitions.size());
  for (size_t s = 0; s < steps; ++s) {
    for (size_t r = 0; r < repetitions.size(); ++r) {
      times[r] = (*repetitions[r])[s];
    }
    result[s] = LowerQuartile(times);
  }
  return result;
}

}  // namespace perfbench
