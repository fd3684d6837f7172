// Batch-mode progress (§4.7): runs the same analytical query against a
// rowstore and a columnstore physical design and shows how progress is
// derived differently — GetNext fractions for row mode, processed-segment
// fractions (sys.column_store_segments) for batch mode — and how segment
// elimination shows up in the counters.
//
//   $ ./build/examples/columnstore_progress

#include <cstdio>

#include "analysis/invariant_checker.h"
#include "analysis/validator.h"
#include "exec/executor.h"
#include "lqs/estimator.h"
#include "workload/plan_builder.h"
#include "workload/workload.h"

using namespace lqs;      // NOLINT: example code
using namespace lqs::pb;  // NOLINT

namespace {

bool RunOne(Workload& w, bool columnstore) {
  // sum(l_extendedprice) for a quantity band, grouped by return flag.
  NodePtr scan =
      columnstore
          ? CsScan("lineitem", ColBetween(/*l_quantity*/ 4, 5, 20))
          : CiScan("lineitem", ColBetween(4, 5, 20));
  auto root = HashAgg(std::move(scan), {/*l_returnflag*/ 8}, {Sum(5)});
  auto plan_or = FinalizePlan(std::move(root), *w.catalog);
  if (!plan_or.ok()) return false;
  Plan plan = std::move(plan_or).value();
  if (!AnnotatePlan(&plan, *w.catalog, OptimizerOptions{}).ok()) return false;
  ValidationReport plan_report = PlanValidator(w.catalog.get()).Validate(plan);
  if (!plan_report.ok()) {
    std::fprintf(stderr, "%s", plan_report.ToString().c_str());
    return false;
  }

  ExecOptions exec;
  exec.snapshot_interval_ms = 5.0;
  auto result = ExecuteQuery(plan, w.catalog.get(), exec);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return false;
  }
  ProgressEstimator estimator(&plan, w.catalog.get(),
                              EstimatorOptions::Lqs());
  ProgressInvariantChecker checker(&estimator);

  std::printf("\n--- %s design: %.0f virtual ms ---\n",
              columnstore ? "columnstore (batch mode)" : "rowstore",
              result->duration_ms);
  std::printf("%10s %10s %12s %12s %12s\n", "time(ms)", "scan %",
              "rows", "segments", "log.reads");
  const auto& snaps = result->trace.snapshots;
  const size_t stride = std::max<size_t>(1, snaps.size() / 8);
  const int scan_id = 1;  // 0 = agg, 1 = scan
  ProgressEstimator::Workspace workspace;
  ProgressReport report;
  for (size_t i = 0; i < snaps.size(); i += stride) {
    checker.EstimateCheckedInto(snaps[i], &workspace, &report);
    const auto& prof = snaps[i].operators[scan_id];
    std::printf("%10.1f %9.1f%% %12llu %8llu/%-3llu %12llu\n",
                snaps[i].time_ms, 100 * report.operator_progress[scan_id],
                static_cast<unsigned long long>(prof.row_count),
                static_cast<unsigned long long>(prof.segment_read_count),
                static_cast<unsigned long long>(prof.segment_total_count),
                static_cast<unsigned long long>(prof.logical_read_count));
  }
  std::printf("batch-mode query runs %s\n",
              columnstore ? "an order of magnitude cheaper per row (cf. "
                            "Figure 18's error reduction)"
                          : "row at a time");
  checker.CheckFinal(result->trace.final_snapshot, &workspace);
  if (!checker.report().ok()) {
    std::fprintf(stderr, "%s", checker.report().ToString().c_str());
    return false;
  }
  return true;
}

}  // namespace

int main() {
  for (bool columnstore : {false, true}) {
    TpchOptions opt;
    opt.scale = 0.3;
    opt.design = columnstore ? PhysicalDesign::kColumnstore
                             : PhysicalDesign::kRowstore;
    auto w = MakeTpchWorkload(opt);
    if (!w.ok()) {
      std::fprintf(stderr, "%s\n", w.status().ToString().c_str());
      return 1;
    }
    if (!RunOne(w.value(), columnstore)) return 1;
  }
  return 0;
}
