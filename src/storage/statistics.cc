#include "storage/statistics.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace lqs {

std::unique_ptr<Histogram> Histogram::Build(const Table& table, int column,
                                            int max_buckets,
                                            double sample_rate,
                                            uint64_t seed) {
  auto hist = std::unique_ptr<Histogram>(new Histogram());
  std::vector<Value> values;
  values.reserve(static_cast<size_t>(
      static_cast<double>(table.num_rows()) * sample_rate) + 1);
  Rng rng(seed + static_cast<uint64_t>(column) * 1315423911ULL);
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    if (sample_rate >= 1.0 || rng.NextBool(sample_rate)) {
      values.push_back(table.row(r)[column]);
    }
  }
  if (values.empty()) {
    // Degenerate: pretend one row so downstream math stays finite.
    hist->total_rows_ = static_cast<double>(table.num_rows());
    hist->total_distinct_ = 1;
    return hist;
  }
  std::sort(values.begin(), values.end(),
            [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
  const double scale =
      static_cast<double>(table.num_rows()) / static_cast<double>(values.size());
  hist->min_value_ = values.front();
  hist->max_value_ = values.back();
  hist->total_rows_ = static_cast<double>(table.num_rows());

  const size_t n = values.size();
  const size_t bucket_count = std::min<size_t>(max_buckets, n);
  const size_t per_bucket = (n + bucket_count - 1) / bucket_count;
  double total_distinct = 0;
  for (size_t start = 0; start < n; start += per_bucket) {
    size_t end = std::min(n, start + per_bucket);
    // Extend the bucket so equal values never straddle a boundary; keeps
    // equality estimates consistent.
    while (end < n && values[end] == values[end - 1]) ++end;
    Bucket b;
    b.upper = values[end - 1];
    b.rows = static_cast<double>(end - start) * scale;
    double distinct = 1;
    for (size_t i = start + 1; i < end; ++i) {
      if (!(values[i] == values[i - 1])) distinct += 1;
    }
    b.distinct = distinct;
    total_distinct += distinct;
    hist->buckets_.push_back(std::move(b));
    start = end - per_bucket;  // compensate the loop increment after extension
  }
  hist->total_distinct_ = std::max(1.0, total_distinct);
  return hist;
}

double Histogram::EstimateSelectivity(CompareOp op,
                                      const Value& literal) const {
  if (buckets_.empty() || total_rows_ <= 0) return 0.5;
  if (op == CompareOp::kNe) {
    return 1.0 - EstimateSelectivity(CompareOp::kEq, literal);
  }
  if (op == CompareOp::kGt) {
    return 1.0 - EstimateSelectivity(CompareOp::kLe, literal);
  }
  if (op == CompareOp::kGe) {
    return 1.0 - EstimateSelectivity(CompareOp::kLt, literal);
  }

  double hist_rows = 0;
  for (const Bucket& b : buckets_) hist_rows += b.rows;

  if (op == CompareOp::kEq) {
    // Uniformity within the containing bucket: rows / distinct.
    Value lower = min_value_;
    for (const Bucket& b : buckets_) {
      if (literal.Compare(b.upper) <= 0) {
        if (literal.Compare(lower) < 0) return 0.0;
        return (b.rows / std::max(1.0, b.distinct)) / hist_rows;
      }
      lower = b.upper;
    }
    return 0.0;  // beyond max
  }

  // kLt / kLe: accumulate full buckets below, interpolate within the
  // containing bucket assuming a uniform spread over its value range.
  double below = 0;
  Value lower = min_value_;
  for (const Bucket& b : buckets_) {
    int cmp_upper = literal.Compare(b.upper);
    if (cmp_upper > 0) {
      below += b.rows;
      lower = b.upper;
      continue;
    }
    // literal falls in this bucket (or below its lower edge).
    double frac = 0.0;
    if (lower.type() != DataType::kString &&
        b.upper.type() != DataType::kString) {
      double lo = lower.AsDouble();
      double hi = b.upper.AsDouble();
      double x = literal.AsDouble();
      if (hi > lo) frac = std::clamp((x - lo) / (hi - lo), 0.0, 1.0);
      else frac = cmp_upper >= 0 ? 1.0 : 0.0;
    } else {
      frac = 0.5;  // no linear interpolation over strings
    }
    double in_bucket = b.rows * frac;
    if (op == CompareOp::kLe && cmp_upper == 0) in_bucket = b.rows;
    return std::clamp((below + in_bucket) / hist_rows, 0.0, 1.0);
  }
  return 1.0;  // literal above max
}

DegreeNorms ComputeDegreeNorms(const Table& table, int column) {
  DegreeNorms norms;
  norms.valid = true;
  if (table.num_rows() == 0) return norms;  // all-zero norms: empty column
  std::vector<Value> values;
  values.reserve(table.num_rows());
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    values.push_back(table.row(r)[column]);
  }
  std::sort(values.begin(), values.end(),
            [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
  double sum_sq = 0;
  double run = 1;
  for (size_t i = 1; i <= values.size(); ++i) {
    if (i < values.size() && values[i] == values[i - 1]) {
      run += 1;
      continue;
    }
    sum_sq += run * run;
    norms.linf = std::max(norms.linf, run);
    norms.distinct += 1;
    run = 1;
  }
  norms.l1 = static_cast<double>(table.num_rows());
  norms.l2 = std::sqrt(sum_sq);
  return norms;
}

TableStatistics::TableStatistics(const Table& table, double sample_rate,
                                 uint64_t seed)
    : table_rows_(static_cast<double>(table.num_rows())) {
  // Small tables get fullscan statistics, as production engines do
  // (sampling a 25-row dimension produces garbage NDV estimates that
  // cascade through every join estimate above it).
  if (table.num_rows() < 2000) sample_rate = 1.0;
  histograms_.reserve(table.schema().num_columns());
  degree_norms_.reserve(table.schema().num_columns());
  for (size_t c = 0; c < table.schema().num_columns(); ++c) {
    histograms_.push_back(Histogram::Build(table, static_cast<int>(c), 32,
                                           sample_rate, seed));
    // Norms are exact even when the histogram is sampled: bounds must be
    // sound while estimates are allowed (designed!) to be wrong.
    degree_norms_.push_back(ComputeDegreeNorms(table, static_cast<int>(c)));
  }
}

}  // namespace lqs
