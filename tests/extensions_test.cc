#include "gtest/gtest.h"

#include "lqs/estimator.h"
#include "optimizer/annotate.h"
#include "tests/test_util.h"
#include "workload/plan_builder.h"

namespace lqs {
namespace testing {
namespace {

using namespace pb;  // NOLINT

// §7(a): refined-cardinality propagation across pipeline boundaries.

TEST(ExtensionsTest, PropagationScalesUnstartedParents) {
  // Filter badly over-estimated (planted), feeding a blocking aggregate in
  // a later pipeline. Without propagation, the aggregate's input-size view
  // stays at the inflated showplan estimate until its pipeline starts; with
  // propagation, the filter's refinement carries upward immediately.
  std::unique_ptr<Catalog> catalog = MakeTestCatalog();
  Plan plan = MustFinalize(
      Sort(HashAgg(Filter(Scan("t_big"), ColCmp(2, CompareOp::kLt, 10)), {1},
                   {Count()}),
           {1}),
      *catalog);
  ASSERT_OK(AnnotatePlan(&plan, *catalog, OptimizerOptions{}));
  // Plant a 20x over-estimate on the filter and everything above it.
  plan.root->VisitMutable([](PlanNode& n) {
    if (n.type == OpType::kFilter) n.est_rows = 10000;  // true: 500
  });

  ExecOptions exec;
  exec.snapshot_interval_ms = 2.0;
  ExecutionResult result = MustExecute(plan, catalog.get(), exec);
  // Mid-scan snapshot: filter refining, aggregate not yet emitting.
  const ProfileSnapshot* mid = nullptr;
  for (const auto& snap : result.trace.snapshots) {
    if (snap.operators[2].row_count > 200 && snap.operators[1].row_count == 0) {
      mid = &snap;
    }
  }
  ASSERT_NE(mid, nullptr);

  EstimatorOptions off = EstimatorOptions::DriverNodeRefined();
  off.bound_cardinality = false;
  EstimatorOptions on = off;
  on.propagate_refinement = true;
  ProgressEstimator est_off(&plan, catalog.get(), off);
  ProgressEstimator est_on(&plan, catalog.get(), on);
  ProgressEstimator::Workspace ws_off;
  ProgressEstimator::Workspace ws_on;
  ProgressReport r_off;
  ProgressReport r_on;
  est_off.EstimateInto(*mid, &ws_off, &r_off);
  est_on.EstimateInto(*mid, &ws_on, &r_on);
  double filter_refined = r_on.refined_rows[2];
  double agg_off = r_off.refined_rows[1];
  double agg_on = r_on.refined_rows[1];
  // The filter's refinement (~500) must pull the aggregate estimate down
  // when propagation is on; without it the aggregate keeps its scaled
  // showplan estimate derived from 10000 input rows.
  EXPECT_LT(filter_refined, 2000);
  EXPECT_LE(agg_on, agg_off);
}

TEST(ExtensionsTest, PropagationOffMatchesPaperDefault) {
  EXPECT_FALSE(EstimatorOptions::Lqs().propagate_refinement);
  EXPECT_FALSE(EstimatorOptions::DriverNodeRefined().propagate_refinement);
}

}  // namespace
}  // namespace testing
}  // namespace lqs
