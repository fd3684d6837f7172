#ifndef LQS_STORAGE_STATISTICS_H_
#define LQS_STORAGE_STATISTICS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/comparison.h"
#include "common/value.h"
#include "storage/table.h"

namespace lqs {

/// Equi-depth histogram over one column, the statistics object the optimizer
/// consults for selectivity and distinct-count estimation. Deliberately
/// coarse (default 32 buckets) and optionally built from a sample: the
/// paper's refinement/bounding techniques exist because optimizer estimates
/// err, and this is where that error originates in our reproduction.
class Histogram {
 public:
  /// Builds over the given column values. `max_buckets` bounds resolution;
  /// `sample_rate` in (0, 1] builds from a deterministic sample (stale-stats
  /// emulation). `seed` drives the sampling.
  static std::unique_ptr<Histogram> Build(const Table& table, int column,
                                          int max_buckets = 32,
                                          double sample_rate = 1.0,
                                          uint64_t seed = 7);

  /// Estimated fraction of rows satisfying `col op literal`, in [0, 1].
  double EstimateSelectivity(CompareOp op, const Value& literal) const;

  /// Estimated number of distinct values in the column.
  double EstimateDistinct() const { return total_distinct_; }

  /// Total rows the histogram believes the column has (scaled up from the
  /// sample), i.e. the optimizer's view of table cardinality.
  double EstimateTotalRows() const { return total_rows_; }

  const Value& min_value() const { return min_value_; }
  const Value& max_value() const { return max_value_; }

  size_t num_buckets() const { return buckets_.size(); }

 private:
  struct Bucket {
    Value upper;        // inclusive upper bound of bucket range
    double rows = 0;    // estimated rows in bucket
    double distinct = 0;  // estimated distinct values in bucket
  };

  Histogram() = default;

  double total_rows_ = 0;
  double total_distinct_ = 0;
  Value min_value_;
  Value max_value_;
  std::vector<Bucket> buckets_;
};

/// Exact ℓp-norms of one column's degree sequence — the multiset of
/// per-value frequencies {f_v}. These are the precomputed statistics the
/// LpBound bounding engine (arXiv:2502.05912) turns into guaranteed join
/// upper bounds: |A ⋈ B| <= min(ℓ∞(A)·|B|, ℓ∞(B)·|A|, ℓ2(A)·ℓ2(B)).
///
/// Unlike the histograms above — deliberately coarse and sampled, because
/// the paper's techniques exist to survive estimation error — the norms are
/// computed EXACTLY over the full column regardless of sample_rate. A
/// pessimistic bound is only a bound if its inputs are sound; an exact
/// full-column pass at catalog-build time is exactly the cheap offline
/// investment LpBound prescribes.
struct DegreeNorms {
  double l1 = 0;        ///< Σ f_v = row count of the table
  double l2 = 0;        ///< sqrt(Σ f_v²), the Cauchy–Schwarz norm
  double linf = 0;      ///< max_v f_v, the worst-case join fan-out
  double distinct = 0;  ///< ℓ0: exact number of distinct values
  bool valid = false;   ///< set once computed (empty columns stay all-zero)
};

/// Computes exact degree-sequence norms of one column by a full sort+scan.
DegreeNorms ComputeDegreeNorms(const Table& table, int column);

/// Per-table statistics: a 32-bucket histogram per column, exact degree norms.
class TableStatistics {
 public:
  TableStatistics(const Table& table, double sample_rate, uint64_t seed);

  const Histogram& column(int i) const { return *histograms_[i]; }
  /// Exact degree-sequence norms of column `i` (see DegreeNorms).
  const DegreeNorms& degree_norms(int i) const { return degree_norms_[i]; }
  double table_rows() const { return table_rows_; }

 private:
  double table_rows_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
  std::vector<DegreeNorms> degree_norms_;
};

}  // namespace lqs

#endif  // LQS_STORAGE_STATISTICS_H_
