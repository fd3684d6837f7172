// The paper's §1 DBA scenario: use live operator-level progress to spot a
// cardinality estimation problem while the query is still running.
//
// "a database administrator might observe a nested loop operator that is not
//  only executing for a significant amount of time, but, according to the
//  progress estimate, has only completed a small fraction of its work. ...
//  she may then compare the number of rows seen so far on the outer side of
//  the join and discover that these are already much larger than the
//  optimizer estimate for the total number of outer rows, indicating a
//  cardinality estimation problem."
//
// This example builds exactly that situation (a badly under-estimated outer
// side feeding a nested loops join), registers the running query with the
// MonitorService — the same subsystem the multi-query dashboard uses — and
// raises the alert the moment a monitor tick shows the observed row count
// overtaking the estimate.

#include <algorithm>
#include <cstdio>

#include "analysis/validator.h"
#include "exec/executor.h"
#include "monitor/monitor_service.h"
#include "optimizer/annotate.h"
#include "workload/plan_builder.h"
#include "workload/workload.h"

using namespace lqs;      // NOLINT: example code
using namespace lqs::pb;  // NOLINT

int main() {
  RealWorkloadOptions opt;
  opt.which = 1;
  opt.scale = 0.5;
  opt.num_queries = 1;  // we only need the catalog
  auto w = MakeRealWorkload(opt);
  if (!w.ok()) return 1;

  // A nested loops join whose outer side is a filtered fact scan. With
  // heavily amplified estimation error the optimizer believes the filter is
  // far more selective than it is — the classic trigger for a disastrous
  // NLJ plan choice.
  auto outer = CiScan("fact1", ColBetween(/*m1*/ 13, 100, 900));
  auto inner = CiSeek("dim3", OuterCol(4), OuterCol(4));
  auto root = HashAgg(
      Nlj(JoinKind::kInner, std::move(outer), std::move(inner)), {},
      {Count(), Sum(15)});
  auto plan_or = FinalizePlan(std::move(root), *w->catalog);
  if (!plan_or.ok()) {
    std::fprintf(stderr, "%s\n", plan_or.status().ToString().c_str());
    return 1;
  }
  Plan plan = std::move(plan_or).value();
  if (!AnnotatePlan(&plan, *w->catalog, OptimizerOptions{}).ok()) return 1;
  // Plant the stale estimate: the optimizer believes the m1 range keeps only
  // ~800 rows (it was true before the fact table grew 20x). This is the
  // situation the paper's DBA walks into.
  plan.root->VisitMutable([](PlanNode& n) {
    if (n.type == OpType::kClusteredIndexScan) n.est_rows = 800;
    if (n.type == OpType::kNestedLoopJoin) n.est_rows = 800;
    if (n.type == OpType::kClusteredIndexSeek) n.est_rows = 800;
  });

  const int nlj = 1;        // plan layout: 0=agg, 1=NLJ, 2=outer scan, 3=seek
  const int outer_scan = 2;
  // Even with the planted mis-estimate the plan must stay structurally
  // valid — the stale numbers are wrong, not malformed.
  ValidationReport plan_report = PlanValidator(w->catalog.get()).Validate(plan);
  if (!plan_report.ok()) {
    std::fprintf(stderr, "%s", plan_report.ToString().c_str());
    return 1;
  }
  std::printf("plan under investigation:\n%s\n", PlanToString(plan).c_str());

  ExecOptions exec;
  exec.snapshot_interval_ms = 10.0;
  auto result = ExecuteQuery(plan, w->catalog.get(), exec);
  if (!result.ok()) return 1;

  // One dedicated monitor window for the suspect query, ~15 dashboard
  // refreshes over its lifetime.
  MonitorOptions mopt;
  mopt.ticks_per_horizon = 15;
  MonitorService monitor(mopt);
  monitor.RegisterSession("dba_nlj", &plan, w->catalog.get(), &result->trace,
                          /*start_offset_ms=*/0);

  const double est_outer = plan.node(outer_scan).est_rows;
  bool alerted = false;
  std::printf("%10s %8s %14s %14s %12s\n", "time(ms)", "NLJ %",
              "outer rows", "outer est", "refined est");
  monitor.RunToCompletion([&](double t,
                              const std::vector<SessionStatus>& statuses) {
    const SessionStatus& s = statuses[0];
    if (s.state != SessionState::kRunning || s.snapshot == nullptr) return;
    const auto& outer_prof = s.snapshot->operators[outer_scan];
    std::printf("%10.0f %7.1f%% %14llu %14.0f %12.0f\n", t,
                100 * s.report->operator_progress[nlj],
                static_cast<unsigned long long>(outer_prof.row_count),
                est_outer, s.report->refined_rows[outer_scan]);
    if (!alerted &&
        static_cast<double>(outer_prof.row_count) > 1.5 * est_outer) {
      alerted = true;
      std::printf(
          ">>> ALERT at t=%.0f ms: the join's outer side has already produced"
          " %llu rows,\n"
          ">>> %.1fx the optimizer's TOTAL estimate of %.0f — cardinality "
          "misestimate.\n"
          ">>> Remediation: update statistics on fact1.m1, or hint a hash "
          "join.\n",
          t, static_cast<unsigned long long>(outer_prof.row_count),
          static_cast<double>(outer_prof.row_count) / est_outer, est_outer);
    }
  });
  const auto& fin = result->trace.final_snapshot;
  std::printf("\nfinal: outer side produced %llu rows vs estimate %.0f "
              "(%.0fx off); alert %s mid-flight.\n",
              static_cast<unsigned long long>(
                  fin.operators[outer_scan].row_count),
              est_outer,
              static_cast<double>(fin.operators[outer_scan].row_count) /
                  std::max(1.0, est_outer),
              alerted ? "was raised" : "was NOT raised");
  ValidationReport final_report = monitor.FinalCheck();
  if (!final_report.ok()) {
    std::fprintf(stderr, "%s", final_report.ToString().c_str());
    return 1;
  }
  return alerted ? 0 : 1;
}
