#ifndef LQS_ANALYSIS_INVARIANT_CHECKER_H_
#define LQS_ANALYSIS_INVARIANT_CHECKER_H_

#include <cstdint>
#include <vector>

#include "analysis/validator.h"
#include "dmv/query_profile.h"
#include "lqs/bounds.h"
#include "lqs/estimator.h"

namespace lqs {

/// Wraps a ProgressEstimator during snapshot replay and verifies the
/// invariants the paper states but the estimator itself never asserts:
///
///  - query and operator progress are finite and within [0, 1];
///  - refined cardinalities N̂_i are finite (or +inf above an unbounded
///    spool) and non-negative;
///  - per-pipeline progress and weights are finite, in-range and positive;
///  - query progress is non-decreasing across snapshots whenever the
///    refined cardinality vector is stable; drops caused by cardinality
///    revisions are legal and only tracked (snapshots must be fed in time
///    order);
///  - on request (CheckBounds): CardinalityBounds satisfy lower <= upper
///    with finite non-negative lower, Clamp is idempotent, and every refined
///    cardinality lies within [lower, max(upper, 1)] — the upper is floored
///    at one row because the estimator deliberately floors N̂_i at 1 for
///    finished-empty operators to keep progress ratios well-defined.
///
/// Violations accumulate in report() as structured ValidationIssues; the
/// checker never aborts, so a replay surfaces every violation at once.
class ProgressInvariantChecker {
 public:
  explicit ProgressInvariantChecker(const ProgressEstimator* estimator);

  /// Runs the wrapped estimator on `snapshot` into `*report`, then checks
  /// the result. Snapshots must be fed in non-decreasing time order for the
  /// monotonicity check to be meaningful. The workspace follows the
  /// ProgressEstimator::Workspace contract (one per estimator per thread);
  /// the checker itself stays allocation-free on the happy path — issue
  /// diagnostics allocate only when a violation is found.
  void EstimateCheckedInto(const ProfileSnapshot& snapshot,
                           ProgressEstimator::Workspace* workspace,
                           ProgressReport* report);

  /// Checks an externally produced report (e.g. when the caller already
  /// paid for EstimateInto) without re-running the estimator.
  void CheckReport(const ProfileSnapshot& snapshot,
                   const ProgressReport& report);

  /// Recomputes the Appendix A bounds and cross-checks them against
  /// `report`, the wrapped estimator's report on `snapshot`. Roughly doubles
  /// checker cost, so tests call it and the always-on path does not.
  void CheckBounds(const ProfileSnapshot& snapshot,
                   const ProgressReport& report);

  /// End-of-stream check on the final snapshot, estimated through the
  /// caller's `workspace` (same contract as EstimateCheckedInto): the full
  /// LQS configuration (driver nodes + refinement + bounding) must report
  /// exactly 1.0.
  void CheckFinal(const ProfileSnapshot& final_snapshot,
                  ProgressEstimator::Workspace* workspace);

  const ValidationReport& report() const { return report_; }
  const ProgressEstimator& estimator() const { return *estimator_; }

  /// Largest query-progress regression seen so far (0 when monotone).
  double max_query_regression() const { return max_regression_; }
  uint64_t snapshots_checked() const { return snapshots_checked_; }

  /// Forgets replay state (previous progress, accumulated issues) so the
  /// checker can be reused for another trace.
  void Reset();

 private:
  /// Slow path of CheckReport: re-examines every value individually to
  /// attribute the violation(s) the fast scan detected.
  void ReportRangeViolations(const ProfileSnapshot& snapshot,
                             const ProgressReport& report);

  const ProgressEstimator* estimator_;
  ValidationReport report_;
  double prev_query_progress_ = 0.0;
  std::vector<double> prev_refined_rows_;
  double prev_time_ms_ = -1.0;
  double max_regression_ = 0.0;
  uint64_t snapshots_checked_ = 0;
};

}  // namespace lqs

#endif  // LQS_ANALYSIS_INVARIANT_CHECKER_H_
