#ifndef LQS_BENCH_BENCH_UTIL_H_
#define LQS_BENCH_BENCH_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/op_type.h"
#include "common/status.h"
#include "common/statusor.h"
#include "dmv/query_profile.h"
#include "lqs/estimator.h"
#include "workload/workload.h"

namespace lqs {
namespace bench {

/// Scale knob for the experiment suite, settable via the LQS_BENCH_SCALE
/// environment variable (default 0.5). 1.0 matches the unit-scale generators
/// (lineitem ~60k rows); the paper's 100 GB datasets are emulated at laptop
/// scale per DESIGN.md §2.
double BenchScale();

/// Snapshot interval used in experiments. The paper polls every 500 ms over
/// minutes-long queries (hundreds of observations per query); at our virtual
/// scale 5 ms yields a comparable observation density.
inline constexpr double kBenchSnapshotIntervalMs = 5.0;

/// Optimizer-error amplification applied in experiments, emulating the stale
/// statistics / complex predicates that make the paper's cardinality
/// estimates err (§3.3).
inline constexpr double kBenchSelectivityError = 1.2;

/// `workload`, its plans annotated with optimizer estimates whose
/// base-predicate selectivities err by up to `selectivity_error`.
StatusOr<Workload> Annotated(StatusOr<Workload> workload,
                             double selectivity_error,
                             uint64_t seed = OptimizerOptions().seed);

/// Builds the five §5 workloads (TPC-H skewed, TPC-DS, REAL-1/2/3) at
/// `scale`, annotated. Order matches the paper's figures (REAL-3, REAL-2,
/// REAL-1, TPC-DS, TPC-H).
StatusOr<std::vector<Workload>> MakeAllWorkloads(double scale);

/// Executes each query of `workload` once, polling the DMV every
/// `snapshot_interval_ms`, and passes the query and its trace to `visit`. A
/// trace lives only for its visit, so memory holds one trace at a time
/// however large the workload. Any failed execution stops the loop.
Status ExecuteEach(
    const Workload& workload, double snapshot_interval_ms,
    const std::function<void(const WorkloadQuery&, const ProfileTrace&)>&
        visit);

/// A named estimator configuration column.
struct EstimatorConfig {
  std::string name;
  EstimatorOptions options;
};

/// Per operator type: summed error and instance count.
using OperatorErrors = std::map<OpType, std::pair<double, int>>;

/// Aggregated errors of one workload under several configurations.
struct WorkloadResult {
  WorkloadResult(std::string workload, size_t columns);

  std::string workload;
  int queries = 0;
  std::vector<double> error_count;  ///< parallel to configs
  std::vector<double> error_time;
  std::vector<OperatorErrors> op_count_error;
  std::vector<OperatorErrors> op_time_error;
};

/// Evaluates each configuration on one executed query and adds its errors
/// to `result`, whose columns parallel `configs`. Queries with fewer than
/// three snapshots are too short to observe and are skipped.
/// Configurations whose options pack equal are evaluated once.
void EvaluateConfigs(const WorkloadQuery& query, const Catalog& catalog,
                     const ProfileTrace& trace,
                     const std::vector<EstimatorConfig>& configs,
                     WorkloadResult* result);

/// Turns `result`'s summed errors into per-query averages.
void AverageOverQueries(WorkloadResult* result);

/// The `count` configuration columns of `result` starting at `begin`.
WorkloadResult SelectColumns(const WorkloadResult& result, size_t begin,
                             size_t count);

/// Appends an aligned table: rows = workloads, columns = configs.
void PrintErrorTable(std::string* out, const std::string& title,
                     const std::string& metric,
                     const std::vector<WorkloadResult>& results,
                     const std::vector<EstimatorConfig>& configs,
                     bool use_time_metric);

/// Appends per-operator-type error rows aggregated across `results`.
void PrintPerOperatorTable(std::string* out, const std::string& title,
                           const std::vector<WorkloadResult>& results,
                           const std::vector<EstimatorConfig>& configs,
                           bool use_time_metric);

/// One 22-wide table cell after a separating space: the average error of
/// `type` in `errors`, or "-" when `errors` has no instance of it (which is
/// not a perfect 0).
std::string ErrorCell(const OperatorErrors& errors, OpType type);

/// ASCII sparkline of a progress curve (for the figure-style sections).
std::string RenderCurve(const std::vector<double>& values, int width = 60);

/// One technique's error beside its baseline's, from a figure's summary.
struct ErrorPair {
  double baseline = 0;   ///< e.g. row fraction, output-only, unweighted
  double technique = 0;  ///< e.g. I/O fraction, two-phase, weighted
};

/// Everything `paper_eval` prints (§5 Figures 6-20, Appendix A Table 1, the
/// LpBound bounds-tightness study), plus the structured figures its gates
/// and tests assert on.
struct PaperEval {
  /// The rendered tables, one section per figure, deterministic.
  std::string text;
  /// Fig. 14 per workload; columns No Refinement, Bounding only,
  /// Bounding+Refinement, interpolation ablation.
  std::vector<WorkloadResult> fig14;
  /// Fig. 17 summary: output-only (baseline) vs two-phase per family.
  struct {
    ErrorPair hash_match;
    ErrorPair sort;
  } fig17;
  ErrorPair fig6;   ///< Error_time: row fraction vs I/O fraction
  ErrorPair fig11;  ///< Error_time: output-only vs two-phase
  ErrorPair fig12;  ///< Error_time: unweighted vs weighted
  /// Table 1 soundness over every TPC-H snapshot.
  int64_t table1_checks = 0;
  int64_t table1_violations = 0;
  /// Bounds tightness: Appendix A alone (baseline) vs intersected with
  /// LpBound, average Error_time over `tightness_queries` queries.
  int tightness_queries = 0;
  ErrorPair tightness_error_time;
  uint64_t intersection_inversions = 0;
};

/// Sees each query of the five §5 workloads with its trace.
using TraceVisitor = std::function<void(
    const Workload&, const WorkloadQuery&, const ProfileTrace&)>;

/// Builds and executes every workload the evaluation uses at `scale`, each
/// trace set once, and evaluates every figure's configurations on the
/// shared traces. `visit`, when set, also sees the traces of the five §5
/// workloads (5 ms snapshots, selectivity error 1.2) while they are held.
StatusOr<PaperEval> RunPaperEval(double scale,
                                 const TraceVisitor& visit = nullptr);

/// The evaluation's gates: no Table 1 bound violation, no intersection
/// inversion, and intersected Error_time no worse than Appendix A's.
Status CheckGates(const PaperEval& eval);

}  // namespace bench
}  // namespace lqs

#endif  // LQS_BENCH_BENCH_UTIL_H_
