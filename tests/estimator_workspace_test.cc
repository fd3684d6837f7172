// Golden equivalence of the workspace-reusing estimation engine: for every
// §5 preset, over executed TPC-H and TPC-DS traces, EstimateInto with a
// reused Workspace must produce reports bit-identical (exact doubles) to a
// stateless estimate into a fresh Workspace, in forward AND out-of-order
// replay, with the incremental short-circuits on or off. Plus the freeze
// regressions: bounds are not re-derived for finished operators, and the
// alpha/weight freezes actually engage on real traces.

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "exec/executor.h"
#include "lqs/bounds.h"
#include "lqs/estimator.h"
#include "optimizer/annotate.h"
#include "tests/test_util.h"
#include "workload/plan_builder.h"
#include "workload/workload.h"

namespace lqs {
namespace testing {
namespace {

using namespace pb;  // NOLINT

struct Preset {
  std::string name;
  EstimatorOptions options;
};

std::vector<Preset> AllPresets() {
  // Drawn from the shared registry so the coverage here can never drift
  // from the preset set the estimator actually ships. The `_lp` variants
  // (bounds_engine = kIntersect) ride the same replay contract: the
  // LpBound engine and the intersection must be exactly replayable too,
  // forward and out of order.
  std::vector<Preset> presets;
  for (int i = 0; i < EstimatorOptions::kPresetCount; ++i) {
    presets.push_back(
        {EstimatorOptions::PresetName(i), EstimatorOptions::PresetByIndex(i)});
    const std::string lp_name =
        std::string(EstimatorOptions::PresetName(i)) + "_lp";
    EstimatorOptions lp;
    EXPECT_TRUE(EstimatorOptions::PresetFromName(lp_name, &lp)) << lp_name;
    presets.push_back({lp_name, lp});
  }
  return presets;
}

/// Exact comparison, field by field. EXPECT_EQ on doubles is deliberate:
/// the contract is bit-identity, not tolerance. (+inf compares equal to
/// +inf; any NaN would fail, which is also intended.)
void ExpectReportsIdentical(const ProgressReport& fresh,
                            const ProgressReport& reused,
                            const std::string& context) {
  EXPECT_EQ(fresh.query_progress, reused.query_progress) << context;
  ASSERT_EQ(fresh.operator_progress.size(), reused.operator_progress.size())
      << context;
  ASSERT_EQ(fresh.refined_rows.size(), reused.refined_rows.size()) << context;
  ASSERT_EQ(fresh.pipeline_progress.size(), reused.pipeline_progress.size())
      << context;
  ASSERT_EQ(fresh.pipeline_weight.size(), reused.pipeline_weight.size())
      << context;
  for (size_t i = 0; i < fresh.operator_progress.size(); ++i) {
    EXPECT_EQ(fresh.operator_progress[i], reused.operator_progress[i])
        << context << " operator_progress[" << i << "]";
    EXPECT_EQ(fresh.refined_rows[i], reused.refined_rows[i])
        << context << " refined_rows[" << i << "]";
  }
  for (size_t p = 0; p < fresh.pipeline_progress.size(); ++p) {
    EXPECT_EQ(fresh.pipeline_progress[p], reused.pipeline_progress[p])
        << context << " pipeline_progress[" << p << "]";
    EXPECT_EQ(fresh.pipeline_weight[p], reused.pipeline_weight[p])
        << context << " pipeline_weight[" << p << "]";
  }
}

/// Both benchmark workloads, executed once and shared by all tests.
class EstimatorWorkspaceTest : public ::testing::Test {
 protected:
  struct ExecutedWorkload {
    Workload workload;
    std::vector<ExecutionResult> runs;  // parallel to workload.queries
  };

  static std::vector<ExecutedWorkload>& GetWorkloads() {
    static std::vector<ExecutedWorkload>* shared = [] {
      auto* all = new std::vector<ExecutedWorkload>();
      OptimizerOptions oo;
      oo.selectivity_error = 1.5;  // realistic misestimation
      ExecOptions exec;
      exec.snapshot_interval_ms = 5.0;

      TpchOptions tpch;
      tpch.scale = 0.1;
      auto h = MakeTpchWorkload(tpch);
      EXPECT_TRUE(h.ok());
      TpcdsOptions tpcds;
      tpcds.scale = 0.1;
      auto ds = MakeTpcdsWorkload(tpcds);
      EXPECT_TRUE(ds.ok());

      for (auto* w : {&h.value(), &ds.value()}) {
        EXPECT_TRUE(AnnotateWorkload(w, oo).ok());
        ExecutedWorkload ew;
        ew.workload = std::move(*w);
        for (auto& q : ew.workload.queries) {
          auto run = ExecuteQuery(q.plan, ew.workload.catalog.get(), exec);
          EXPECT_TRUE(run.ok()) << ew.workload.name << "/" << q.name;
          ew.runs.push_back(std::move(run).value());
        }
        all->push_back(std::move(ew));
      }
      return all;
    }();
    return *shared;
  }

  /// Replays `trace` (snapshots in `order`, then the final snapshot)
  /// through one reused workspace and asserts bit-identity, snapshot by
  /// snapshot, with the stateless oracle: a fresh workspace per snapshot,
  /// which carries no freeze state from earlier calls.
  static void ExpectReplayIdentical(const Plan& plan, const Catalog& catalog,
                                    const ProfileTrace& trace,
                                    const std::vector<size_t>& order,
                                    const EstimatorOptions& options,
                                    const std::string& context) {
    ProgressEstimator estimator(&plan, &catalog, options);
    ProgressEstimator::Workspace workspace;
    ProgressReport reused;
    auto check = [&](const ProfileSnapshot& snap, size_t label) {
      ProgressEstimator::Workspace stateless;
      ProgressReport fresh;
      estimator.EstimateInto(snap, &stateless, &fresh);
      estimator.EstimateInto(snap, &workspace, &reused);
      ExpectReportsIdentical(
          fresh, reused, context + " snapshot#" + std::to_string(label));
    };
    for (size_t idx : order) check(trace.snapshots[idx], idx);
    check(trace.final_snapshot, trace.snapshots.size());
  }
};

TEST_F(EstimatorWorkspaceTest, ForwardReplayMatchesStatelessEstimate) {
  for (const ExecutedWorkload& ew : GetWorkloads()) {
    for (size_t qi = 0; qi < ew.workload.queries.size(); ++qi) {
      const WorkloadQuery& q = ew.workload.queries[qi];
      const ProfileTrace& trace = ew.runs[qi].trace;
      std::vector<size_t> forward(trace.snapshots.size());
      for (size_t i = 0; i < forward.size(); ++i) forward[i] = i;
      for (const Preset& preset : AllPresets()) {
        ExpectReplayIdentical(
            q.plan, *ew.workload.catalog, trace, forward, preset.options,
            ew.workload.name + "/" + q.name + "/" + preset.name);
      }
    }
  }
}

TEST_F(EstimatorWorkspaceTest, OutOfOrderReplayMatchesStatelessEstimate) {
  // A finished-operator freeze keyed on anything but the current snapshot
  // would break exactly this: feeding a LATE snapshot (operators finished)
  // and then an EARLY one (running again) must not leak frozen values.
  std::mt19937 rng(20260806u);
  for (const ExecutedWorkload& ew : GetWorkloads()) {
    for (size_t qi = 0; qi < ew.workload.queries.size(); ++qi) {
      const WorkloadQuery& q = ew.workload.queries[qi];
      const ProfileTrace& trace = ew.runs[qi].trace;
      std::vector<size_t> shuffled(trace.snapshots.size());
      for (size_t i = 0; i < shuffled.size(); ++i) shuffled[i] = i;
      std::shuffle(shuffled.begin(), shuffled.end(), rng);
      // Worst case on top of the shuffle: estimate the final snapshot
      // first (everything frozen), then replay from the beginning.
      std::reverse(shuffled.begin(),
                   shuffled.begin() +
                       static_cast<long>(shuffled.size() / 2));
      for (const Preset& preset : AllPresets()) {
        ExpectReplayIdentical(
            q.plan, *ew.workload.catalog, trace, shuffled, preset.options,
            ew.workload.name + "/" + q.name + "/" + preset.name +
                "/shuffled");
      }
    }
  }
}

TEST_F(EstimatorWorkspaceTest, NonIncrementalModeIsBitIdentical) {
  // incremental=false must disable only the cost short-circuits, never
  // change a value: it is the stateless reference, under every preset.
  for (const ExecutedWorkload& ew : GetWorkloads()) {
    for (size_t qi = 0; qi < ew.workload.queries.size(); ++qi) {
      const WorkloadQuery& q = ew.workload.queries[qi];
      const ProfileTrace& trace = ew.runs[qi].trace;
      for (const Preset& preset : AllPresets()) {
        EstimatorOptions off = preset.options;
        off.incremental = false;
        ProgressEstimator est_on(&q.plan, ew.workload.catalog.get(),
                                 preset.options);
        ProgressEstimator est_off(&q.plan, ew.workload.catalog.get(), off);
        ProgressEstimator::Workspace ws_on;
        ProgressEstimator::Workspace ws_off;
        ProgressReport r_on;
        ProgressReport r_off;
        for (size_t i = 0; i < trace.snapshots.size(); ++i) {
          est_on.EstimateInto(trace.snapshots[i], &ws_on, &r_on);
          est_off.EstimateInto(trace.snapshots[i], &ws_off, &r_off);
          ExpectReportsIdentical(r_off, r_on,
                                 ew.workload.name + "/" + q.name + "/" +
                                     preset.name +
                                     " incremental on/off snapshot#" +
                                     std::to_string(i));
        }
      }
    }
  }
}

TEST_F(EstimatorWorkspaceTest, AppendixAEngineIsBitIdenticalToLegacyBounds) {
  // The refactor seam itself: routing Appendix A through the bounds-engine
  // pipeline must reproduce the monolithic ComputeBounds exactly — every
  // node, every snapshot, exact doubles.
  for (const ExecutedWorkload& ew : GetWorkloads()) {
    for (size_t qi = 0; qi < ew.workload.queries.size(); ++qi) {
      const WorkloadQuery& q = ew.workload.queries[qi];
      const ProfileTrace& trace = ew.runs[qi].trace;
      const PlanAnalysis analysis =
          AnalyzePlan(q.plan, ew.workload.catalog.get());
      CardinalityBounds piped, scratch;
      for (const ProfileSnapshot& snap : trace.snapshots) {
        const CardinalityBounds legacy =
            ComputeBounds(q.plan, *ew.workload.catalog, snap);
        ComputeBoundsPipelineInto(BoundsEngineKind::kAppendixA, q.plan,
                                  *ew.workload.catalog, snap, nullptr,
                                  analysis, nullptr, &piped, &scratch,
                                  nullptr);
        ASSERT_EQ(legacy.lower.size(), piped.lower.size());
        for (int i = 0; i < q.plan.size(); ++i) {
          EXPECT_EQ(legacy.lower[i], piped.lower[i])
              << ew.workload.name << "/" << q.name << " node " << i;
          EXPECT_EQ(legacy.upper[i], piped.upper[i])
              << ew.workload.name << "/" << q.name << " node " << i;
        }
      }
    }
  }
}

class EstimatorFreezeTest : public ::testing::Test {
 protected:
  void SetUp() override { catalog_ = MakeTestCatalog(); }

  Plan Annotated(std::unique_ptr<PlanNode> root) {
    Plan plan = MustFinalize(std::move(root), *catalog_);
    EXPECT_OK(AnnotatePlan(&plan, *catalog_, OptimizerOptions{}));
    return plan;
  }

  std::unique_ptr<Catalog> catalog_;
};

TEST_F(EstimatorFreezeTest, BoundsNotRederivedForFinishedOperators) {
  // No Nested Loops join anywhere, so every operator is freeze-eligible the
  // moment it reports finished. On the final snapshot every operator is
  // finished — the Appendix A coefficient derivation must not run at all,
  // on the FIRST call with that snapshot as much as on repeats (the freeze
  // is keyed on the snapshot's own finished flags, not on call history).
  Plan plan = Annotated(
      Sort(HashAgg(HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"),
                            {0}, {1}),
                   {2}, {Count()}),
           {0}));
  ExecOptions exec;
  exec.snapshot_interval_ms = 2.0;
  auto result = MustExecute(plan, catalog_.get(), exec);
  ASSERT_GT(result.trace.snapshots.size(), 3u);

  ProgressEstimator estimator(&plan, catalog_.get(), EstimatorOptions::Lqs());
  ProgressEstimator::Workspace workspace;
  ProgressReport report;

  estimator.EstimateInto(result.trace.final_snapshot, &workspace, &report);
  EXPECT_EQ(workspace.stats.bound_derivations, 0u)
      << "fully-finished snapshot still derived bound coefficients";
  const uint64_t after_final = workspace.stats.bound_derivations;
  estimator.EstimateInto(result.trace.final_snapshot, &workspace, &report);
  EXPECT_EQ(workspace.stats.bound_derivations, after_final)
      << "repeat call re-derived frozen bounds";

  // Mid-trace, the hash join's build side finishes long before the query:
  // a full replay must derive strictly fewer coefficients than nodes*calls.
  ProgressEstimator::Workspace replay_ws;
  uint64_t calls = 0;
  for (const ProfileSnapshot& snap : result.trace.snapshots) {
    estimator.EstimateInto(snap, &replay_ws, &report);
    ++calls;
  }
  EXPECT_LT(replay_ws.stats.bound_derivations,
            calls * static_cast<uint64_t>(plan.size()));
}

TEST_F(EstimatorFreezeTest, AlphaAndWeightFreezesEngageOnRealTraces) {
  Plan plan = Annotated(
      Sort(HashAgg(HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"),
                            {0}, {1}),
                   {2}, {Count()}),
           {0}));
  ExecOptions exec;
  exec.snapshot_interval_ms = 2.0;
  auto result = MustExecute(plan, catalog_.get(), exec);

  ProgressEstimator estimator(&plan, catalog_.get(), EstimatorOptions::Lqs());
  ProgressEstimator::Workspace workspace;
  ProgressReport report;
  for (const ProfileSnapshot& snap : result.trace.snapshots) {
    estimator.EstimateInto(snap, &workspace, &report);
  }
  estimator.EstimateInto(result.trace.final_snapshot, &workspace, &report);
  estimator.EstimateInto(result.trace.final_snapshot, &workspace, &report);
  EXPECT_GT(workspace.stats.alpha_freezes, 0u);
  EXPECT_GT(workspace.stats.weight_cache_hits, 0u);
  EXPECT_GT(workspace.stats.calls, 0u);
}

using EstimatorWorkspaceDeathTest = EstimatorFreezeTest;

TEST_F(EstimatorWorkspaceDeathTest, RebindingWorkspaceAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Plan plan_a = Annotated(Sort(Scan("t_big"), {2}));
  Plan plan_b = Annotated(Scan("t_small"));
  auto result_a = MustExecute(plan_a, catalog_.get());
  auto result_b = MustExecute(plan_b, catalog_.get());
  ProgressEstimator est_a(&plan_a, catalog_.get(), EstimatorOptions::Lqs());
  ProgressEstimator est_b(&plan_b, catalog_.get(), EstimatorOptions::Lqs());
  ProgressEstimator::Workspace workspace;
  ProgressReport report;
  est_a.EstimateInto(result_a.trace.final_snapshot, &workspace, &report);
  EXPECT_DEATH(
      est_b.EstimateInto(result_b.trace.final_snapshot, &workspace, &report),
      "different estimator");
}

}  // namespace
}  // namespace testing
}  // namespace lqs
