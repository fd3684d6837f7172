#include "gtest/gtest.h"

#include "tests/test_util.h"
#include "workload/workload.h"

namespace lqs {
namespace testing {
namespace {

/// Executes every query of a workload end-to-end and checks basic DMV-trace
/// invariants: the estimator experiments depend on these holding for every
/// plan shape the generators produce.
void RunWorkload(Workload& w, double min_interval_ms = 5.0) {
  ASSERT_FALSE(w.queries.empty());
  OptimizerOptions opt;
  ASSERT_OK(AnnotateWorkload(&w, opt));
  for (WorkloadQuery& q : w.queries) {
    // Every node must carry a cardinality estimate after annotation.
    q.plan.root->Visit([&](const PlanNode& n) {
      EXPECT_GE(n.est_rows, 0.0) << w.name << "/" << q.name << " node " << n.id;
      EXPECT_GE(n.est_cpu_ms + n.est_io_ms, 0.0);
    });
    ExecOptions exec;
    exec.snapshot_interval_ms = min_interval_ms;
    auto result = ExecuteQuery(q.plan, w.catalog.get(), exec);
    ASSERT_TRUE(result.ok()) << w.name << "/" << q.name << ": "
                             << result.status().ToString();
    EXPECT_GT(result->duration_ms, 0.0) << q.name;

    // Snapshot invariants: counters monotone, times increasing.
    uint64_t prev_total_k = 0;
    double prev_time = -1;
    for (const auto& snap : result->trace.snapshots) {
      EXPECT_GT(snap.time_ms, prev_time);
      prev_time = snap.time_ms;
      uint64_t total_k = 0;
      for (const auto& op : snap.operators) total_k += op.row_count;
      EXPECT_GE(total_k, prev_total_k) << q.name;
      prev_total_k = total_k;
    }
    // Final snapshot: root row count equals rows returned; every operator
    // that opened has coherent activity timestamps.
    const auto& fin = result->trace.final_snapshot;
    EXPECT_EQ(fin.operators[0].row_count, result->rows_returned) << q.name;
    for (const auto& op : fin.operators) {
      if (op.opened && op.row_count > 0) {
        EXPECT_GE(op.first_row_ms, 0.0) << q.name;
        EXPECT_GE(op.last_active_ms, op.open_time_ms) << q.name;
      }
    }
  }
}

TEST(WorkloadTest, TpchRowstoreBuildsAndRuns) {
  TpchOptions opt;
  opt.scale = 0.15;
  auto w = MakeTpchWorkload(opt);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_EQ(w->queries.size(), 22u);
  RunWorkload(*w);
}

TEST(WorkloadTest, TpchColumnstoreBuildsAndRuns) {
  TpchOptions opt;
  opt.scale = 0.15;
  opt.design = PhysicalDesign::kColumnstore;
  auto w = MakeTpchWorkload(opt);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_EQ(w->queries.size(), 22u);
  RunWorkload(*w);
}

TEST(WorkloadTest, TpcdsBuildsAndRuns) {
  TpcdsOptions opt;
  opt.scale = 0.1;
  auto w = MakeTpcdsWorkload(opt);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_GE(w->queries.size(), 18u);
  RunWorkload(*w);
}

class RealWorkloadTest : public ::testing::TestWithParam<int> {};

TEST_P(RealWorkloadTest, BuildsAndRuns) {
  RealWorkloadOptions opt;
  opt.which = GetParam();
  opt.scale = 0.1;
  opt.num_queries = 12;
  auto w = MakeRealWorkload(opt);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_EQ(w->queries.size(), 12u);
  RunWorkload(*w);
}

INSTANTIATE_TEST_SUITE_P(AllReal, RealWorkloadTest,
                         ::testing::Values(1, 2, 3));

TEST(WorkloadTest, SkewedGenerationIsDeterministic) {
  TpchOptions opt;
  opt.scale = 0.05;
  auto w1 = MakeTpchWorkload(opt);
  auto w2 = MakeTpchWorkload(opt);
  ASSERT_TRUE(w1.ok() && w2.ok());
  const Table* a = w1->catalog->GetTable("lineitem");
  const Table* b = w2->catalog->GetTable("lineitem");
  ASSERT_EQ(a->num_rows(), b->num_rows());
  for (uint64_t i = 0; i < a->num_rows(); i += 97) {
    EXPECT_EQ(a->row(i)[1].AsInt(), b->row(i)[1].AsInt());
  }
}

TEST(WorkloadTest, ZipfSkewConcentratesForeignKeys) {
  TpchOptions opt;
  opt.scale = 0.2;
  auto w = MakeTpchWorkload(opt);
  ASSERT_TRUE(w.ok());
  // Under Z=1 skew, the most frequent part key should appear far more often
  // than the uniform share.
  const Table* li = w->catalog->GetTable("lineitem");
  const Table* part = w->catalog->GetTable("part");
  std::vector<uint64_t> counts(part->num_rows(), 0);
  for (uint64_t i = 0; i < li->num_rows(); ++i) {
    counts[li->row(i)[1].AsInt()]++;
  }
  uint64_t max_count = *std::max_element(counts.begin(), counts.end());
  double uniform_share =
      static_cast<double>(li->num_rows()) / static_cast<double>(part->num_rows());
  EXPECT_GT(static_cast<double>(max_count), 20.0 * uniform_share);
}

}  // namespace
}  // namespace testing
}  // namespace lqs
