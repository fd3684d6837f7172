// Snapshot-grid semantics of the DMV profiler and of trace lookups:
//  - the first poll always snapshots, so a query shorter than one polling
//    interval still produces a non-empty trace (the t=0 regression that made
//    monitors report 0% until completion);
//  - a stall spanning several intervals emits exactly one snapshot with the
//    polling phase advanced to stay on the grid;
//  - Finalize fills final_snapshot without duplicating a snapshot already
//    taken at end_ms into the snapshot list;
//  - ProfileTrace::SnapshotAtOrBefore matches a linear rescan;
//  - Estimate replay is order-independent, as estimator.h promises.

#include <algorithm>
#include <limits>
#include <vector>

#include "gtest/gtest.h"

#include "dmv/profiler.h"
#include "dmv/query_profile.h"
#include "lqs/estimator.h"
#include "optimizer/annotate.h"
#include "tests/test_util.h"
#include "workload/plan_builder.h"

namespace lqs {
namespace testing {
namespace {

using namespace pb;  // NOLINT

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = MakeTestCatalog();
    live_.resize(1);
    live_[0].node_id = 0;
  }

  Plan Annotated(std::unique_ptr<PlanNode> root) {
    Plan plan = MustFinalize(std::move(root), *catalog_);
    EXPECT_OK(AnnotatePlan(&plan, *catalog_, OptimizerOptions{}));
    return plan;
  }

  std::unique_ptr<Catalog> catalog_;
  std::vector<OperatorProfile> live_;
};

TEST_F(ProfilerTest, FirstPollSnapshotsBeforeTheIntervalElapses) {
  Profiler profiler(&live_, /*interval_ms=*/500.0);
  profiler.MaybePoll(0.25);  // far inside the first interval
  ProfileTrace trace = profiler.TakeTrace();
  ASSERT_EQ(trace.snapshots.size(), 1u);
  EXPECT_DOUBLE_EQ(trace.snapshots[0].time_ms, 0.25);
}

TEST_F(ProfilerTest, ShortQueryStillProducesSnapshots) {
  // Regression: with a polling interval longer than the whole query, the
  // old profiler returned an empty snapshot list and monitors reported 0%
  // until completion.
  Plan plan = Annotated(Scan("t_small"));
  ExecOptions exec;
  exec.snapshot_interval_ms = 1e9;  // one poll interval outlives the query
  ExecutionResult result = MustExecute(plan, catalog_.get(), exec);
  ASSERT_LT(result.duration_ms, exec.snapshot_interval_ms);
  ASSERT_FALSE(result.trace.snapshots.empty());
  // The early sample is usable: a monitor polling mid-query finds it.
  const ProfileSnapshot* snap =
      result.trace.SnapshotAtOrBefore(result.duration_ms / 2);
  ASSERT_NE(snap, nullptr);
}

TEST_F(ProfilerTest, StallSpanningIntervalsEmitsOneSnapshotAndKeepsGrid) {
  Profiler profiler(&live_, /*interval_ms=*/10.0);
  profiler.MaybePoll(1.0);   // initial sample
  profiler.MaybePoll(47.0);  // a stall spanning 4 full intervals
  // Exactly one snapshot for the whole stall, not one per interval, and the
  // phase advanced to the last grid point <= 47 (i.e. 40): a poll at 49 is
  // still inside the current interval and must not snapshot...
  profiler.MaybePoll(49.0);
  // ...while a poll at 50 lands on the next grid point and must.
  profiler.MaybePoll(50.0);
  ProfileTrace trace = profiler.TakeTrace();
  ASSERT_EQ(trace.snapshots.size(), 3u);
  EXPECT_DOUBLE_EQ(trace.snapshots[0].time_ms, 1.0);
  EXPECT_DOUBLE_EQ(trace.snapshots[1].time_ms, 47.0);
  EXPECT_DOUBLE_EQ(trace.snapshots[2].time_ms, 50.0);
}

TEST_F(ProfilerTest, FinalizeDoesNotDuplicateSnapshotTakenAtEnd) {
  Profiler profiler(&live_, /*interval_ms=*/10.0);
  profiler.MaybePoll(2.0);
  profiler.MaybePoll(20.0);  // on the grid: snapshots
  profiler.Finalize(20.0);   // completion at the same instant
  ProfileTrace trace = profiler.TakeTrace();
  ASSERT_EQ(trace.snapshots.size(), 2u);
  EXPECT_DOUBLE_EQ(trace.final_snapshot.time_ms, 20.0);
  EXPECT_DOUBLE_EQ(trace.total_elapsed_ms, 20.0);
  // Snapshot times stay strictly increasing — no duplicated instants.
  for (size_t i = 1; i < trace.snapshots.size(); ++i) {
    EXPECT_LT(trace.snapshots[i - 1].time_ms, trace.snapshots[i].time_ms);
  }
}

TEST_F(ProfilerTest, SnapshotAtOrBeforeMatchesLinearRescan) {
  Plan plan = Annotated(
      HashAgg(HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0},
                       {1}),
              {2}, {Count()}));
  ExecOptions exec;
  exec.snapshot_interval_ms = 2.0;
  ExecutionResult result = MustExecute(plan, catalog_.get(), exec);
  const ProfileTrace& trace = result.trace;
  ASSERT_GT(trace.snapshots.size(), 5u);

  auto linear = [&trace](double t) -> const ProfileSnapshot* {
    const ProfileSnapshot* best = nullptr;
    for (const auto& snap : trace.snapshots) {
      if (snap.time_ms <= t) best = &snap;
      else break;
    }
    return best;
  };
  // Probe before, on, between and after every snapshot time.
  std::vector<double> probes = {-1.0, 0.0, result.duration_ms,
                                result.duration_ms * 2};
  for (const auto& snap : trace.snapshots) {
    probes.push_back(snap.time_ms);
    probes.push_back(snap.time_ms - 1e-9);
    probes.push_back(snap.time_ms + 1e-9);
  }
  for (double t : probes) {
    EXPECT_EQ(trace.SnapshotAtOrBefore(t), linear(t)) << "t=" << t;
  }

  ProfileTrace empty;
  EXPECT_EQ(empty.SnapshotAtOrBefore(0.0), nullptr);
  EXPECT_EQ(empty.SnapshotAtOrBefore(1e9), nullptr);
}

TEST_F(ProfilerTest, InvalidSnapshotIntervalIsRejected) {
  // Regression: interval_ms <= 0 degenerated MaybePoll's grid catch-up loop
  // into a spin, and NaN silently disabled polling. Both the validating
  // factory and the executor entry point must reject such intervals.
  EXPECT_OK(Profiler::ValidateIntervalMs(500.0));
  EXPECT_OK(Profiler::ValidateIntervalMs(1e-3));
  for (double bad : {0.0, -1.0, -500.0,
                     std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    Status status = Profiler::ValidateIntervalMs(bad);
    EXPECT_FALSE(status.ok()) << "interval " << bad << " accepted";
    EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
    EXPECT_FALSE(Profiler::Create(&live_, bad).ok());
  }
  ASSERT_TRUE(Profiler::Create(&live_, 500.0).ok());

  Plan plan = Annotated(Scan("t_small"));
  for (double bad : {0.0, -2.0, std::numeric_limits<double>::quiet_NaN()}) {
    ExecOptions exec;
    exec.snapshot_interval_ms = bad;
    auto result = ExecuteQuery(plan, catalog_.get(), exec);
    ASSERT_FALSE(result.ok()) << "interval " << bad << " executed";
    EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
  }
}

TEST_F(ProfilerTest, SnapshotAtOrBeforeBeforeFirstSnapshotIsNull) {
  // Hand-built trace with a known first sample: probes strictly earlier
  // must return null — a monitor polling before the first DMV sample has
  // genuinely nothing to show, not "the first sample early".
  ProfileTrace trace;
  for (double t : {10.0, 20.0, 30.0}) {
    trace.snapshots.push_back(ProfileSnapshot{t, live_});
  }
  EXPECT_EQ(trace.SnapshotAtOrBefore(-5.0), nullptr);
  EXPECT_EQ(trace.SnapshotAtOrBefore(0.0), nullptr);
  EXPECT_EQ(trace.SnapshotAtOrBefore(10.0 - 1e-9), nullptr);
}

TEST_F(ProfilerTest, SnapshotAtOrBeforeOnBoundaryReturnsThatSnapshot) {
  // "At or before" includes "at": a probe landing exactly on a snapshot
  // time returns that snapshot, not its predecessor.
  ProfileTrace trace;
  for (double t : {10.0, 20.0, 30.0}) {
    trace.snapshots.push_back(ProfileSnapshot{t, live_});
  }
  for (size_t i = 0; i < trace.snapshots.size(); ++i) {
    const ProfileSnapshot* hit =
        trace.SnapshotAtOrBefore(trace.snapshots[i].time_ms);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit, &trace.snapshots[i]) << "boundary " << i;
  }
  // Between boundaries the earlier snapshot wins; past the last, the last.
  EXPECT_EQ(trace.SnapshotAtOrBefore(15.0), &trace.snapshots[0]);
  EXPECT_EQ(trace.SnapshotAtOrBefore(1e9), &trace.snapshots[2]);
}

TEST_F(ProfilerTest, EstimateReplayIsOrderIndependent) {
  Plan plan = Annotated(Sort(Scan("t_big"), {2}));
  ExecOptions exec;
  exec.snapshot_interval_ms = 2.0;
  ExecutionResult result = MustExecute(plan, catalog_.get(), exec);
  ASSERT_GT(result.trace.snapshots.size(), 3u);
  ProgressEstimator est(&plan, catalog_.get(), EstimatorOptions::Lqs());
  // One workspace serves both passes: the reverse replay must not see the
  // freeze state the forward pass left behind.
  ProgressEstimator::Workspace workspace;

  std::vector<ProgressReport> forward(result.trace.snapshots.size());
  for (size_t i = 0; i < forward.size(); ++i) {
    est.EstimateInto(result.trace.snapshots[i], &workspace, &forward[i]);
  }
  ProgressReport replayed;
  for (size_t i = result.trace.snapshots.size(); i-- > 0;) {
    est.EstimateInto(result.trace.snapshots[i], &workspace, &replayed);
    EXPECT_DOUBLE_EQ(replayed.query_progress, forward[i].query_progress);
    ASSERT_EQ(replayed.operator_progress.size(),
              forward[i].operator_progress.size());
    for (size_t n = 0; n < replayed.operator_progress.size(); ++n) {
      EXPECT_DOUBLE_EQ(replayed.operator_progress[n],
                       forward[i].operator_progress[n]);
      EXPECT_DOUBLE_EQ(replayed.refined_rows[n], forward[i].refined_rows[n]);
    }
  }
}

}  // namespace
}  // namespace testing
}  // namespace lqs
