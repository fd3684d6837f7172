#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of `values` (q in [0, 1]): the smallest sample with
/// at least q of the samples at or below it. Returns an actual sample, never
/// an interpolation; 0 for an empty input.
double Quantile(std::vector<double> values, double q);

/// The highest quantile, capped at `wanted`, that leaves at least
/// `min_beyond` of `n` samples above it: a tail figure from too few samples
/// is noise, so p99 of 300 ticks is reported as p96.7 instead.
double TailQuantileLevel(size_t n, double wanted, size_t min_beyond = 10);

double Median(std::vector<double> values);

/// The lower quartile of repeated timings of the same work. Outside load on
/// a shared machine only ever slows a repetition down, so this ignores load
/// that covers less than three quarters of the repetitions, where the
/// median ignores load on less than half.
double LowerQuartile(std::vector<double> values);

/// Repetitions of the same sequence of steps, timed step by step: each
/// step's LowerQuartile over the repetitions, so that a burst of outside
/// load is filtered out unless it hits that step in most repetitions. Steps
/// past the end of the shortest repetition are dropped.
std::vector<double> StepwiseLowerQuartile(
    const std::vector<const std::vector<double>*>& repetitions);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
