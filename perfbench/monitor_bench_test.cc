// The benchmark's own tests: its percentile helper, its §5 error figures
// against lqs::EvaluateQuery, and its determinism and correctness checks on
// small fleets.

#include <gtest/gtest.h>

#include <vector>

#include "lqs/metrics.h"
#include "monitor_bench.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(StatsTest, NearestRankQuantilesOfKnownSample) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);  // unsorted 1..100
  EXPECT_EQ(Quantile(values, 0.5), 50);
  EXPECT_EQ(Quantile(values, 0.99), 99);
  EXPECT_EQ(Quantile(values, 1.0), 100);
  EXPECT_EQ(Quantile(values, 0.0), 1);
  EXPECT_EQ(Quantile({7}, 0.99), 7);
  EXPECT_EQ(Quantile({}, 0.5), 0);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(LowerQuartile(values), 25);
  EXPECT_EQ(LowerQuartile({3, 1, 2}), 1);
}

TEST(StatsTest, TailLevelKeepsTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(TailQuantileLevel(10000, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(TailQuantileLevel(1000, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(TailQuantileLevel(500, 0.99), 0.98);
  EXPECT_DOUBLE_EQ(TailQuantileLevel(5, 0.99), 0.5);
  // 10 of 500 samples lie strictly above the p98 nearest-rank sample.
  std::vector<double> values;
  for (int i = 1; i <= 500; ++i) values.push_back(i);
  EXPECT_EQ(Quantile(values, TailQuantileLevel(values.size(), 0.99)), 490);
}

TEST(StatsTest, StepwiseLowerQuartileFiltersBursts) {
  // Four repetitions of three steps; a burst slows each step in one or two
  // repetitions. The last repetition has one more step, which is dropped.
  const std::vector<double> a = {1, 20, 3};
  const std::vector<double> b = {10, 2, 30};
  const std::vector<double> c = {1, 2, 3};
  const std::vector<double> d = {2, 2, 40, 5};
  EXPECT_EQ(StepwiseLowerQuartile({&a, &b, &c, &d}),
            (std::vector<double>{1, 2, 3}));
  EXPECT_TRUE(StepwiseLowerQuartile({}).empty());
}

class ReplayLocalTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto built = BuildCorpus(/*seed=*/3, /*scale=*/0.1);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    corpus_ = new Corpus(std::move(built).value());
  }
  static void TearDownTestSuite() {
    delete corpus_;
    corpus_ = nullptr;
  }
  static Corpus* corpus_;
};
Corpus* ReplayLocalTest::corpus_ = nullptr;

// Ticked exactly at each snapshot of its trace, a monitor session's error
// figures as the benchmark computes them are EvaluateQuery's, query by query,
// under the monitor's default estimator options.
TEST_F(ReplayLocalTest, ErrorFiguresMatchEvaluateQuery) {
  ASSERT_GT(corpus_->queries.size(), 20u);
  for (size_t q = 0; q < corpus_->queries.size(); ++q) {
    const ExecutedQuery& query = corpus_->queries[q];
    lqs::MonitorOptions options;
    options.num_threads = 1;
    lqs::MonitorService monitor(options);
    monitor.RegisterSession("s0", &query.query->plan, query.catalog,
                            &query.trace, /*start_offset_ms=*/0);
    ErrorAccumulator errors;
    for (const lqs::ProfileSnapshot& snap : query.trace.snapshots) {
      const std::vector<lqs::SessionStatus> statuses =
          monitor.Tick(snap.time_ms);
      ASSERT_EQ(statuses[0].snapshot, &snap) << query.query->name;
      errors.Add(query, snap, statuses[0].progress);
    }
    const lqs::QueryEvaluation expected =
        lqs::EvaluateQuery(query.query->plan, *query.catalog, query.trace,
                           lqs::EstimatorOptions::Lqs());
    EXPECT_EQ(errors.n, static_cast<uint64_t>(expected.observations));
    EXPECT_DOUBLE_EQ(errors.error_time(), expected.error_time)
        << query.query->name;
    EXPECT_DOUBLE_EQ(errors.error_count(), expected.error_count)
        << query.query->name;
  }
}

// The workload's own 5 ms ticks sample each trace on a grid rather than at
// its snapshots, so its figures track EvaluateQuery's closely, not exactly.
TEST_F(ReplayLocalTest, PassErrorsTrackEvaluateQuery) {
  const FleetPlan plan =
      PlanFleet(WorkloadKind::kReplayLocal, *corpus_, /*seed=*/3);
  Fleet fleet = RegisterFleet(*corpus_, plan, plan.workers, /*tap=*/false);
  const PassResult pass = RunPass(*corpus_, plan, &fleet);
  ASSERT_EQ(pass.failed_sessions, 0u) << pass.first_issue;
  // Every replayed query has the same number of copies, so the pass's
  // per-session mean weighs the replayed queries alike.
  std::vector<bool> replayed(corpus_->queries.size(), false);
  for (const SessionSpec& spec : plan.sessions) replayed[spec.query] = true;
  double error_time = 0;
  double error_count = 0;
  double n = 0;
  for (size_t q = 0; q < corpus_->queries.size(); ++q) {
    if (!replayed[q]) continue;
    const ExecutedQuery& query = corpus_->queries[q];
    const lqs::QueryEvaluation e =
        lqs::EvaluateQuery(query.query->plan, *query.catalog, query.trace,
                           lqs::EstimatorOptions::Lqs());
    error_time += e.error_time;
    error_count += e.error_count;
    ++n;
  }
  ASSERT_GT(n, 20);
  EXPECT_NEAR(pass.error_time, error_time / n, 0.1 * error_time / n);
  EXPECT_NEAR(pass.error_count, error_count / n, 0.1 * error_count / n);
}

TEST_F(ReplayLocalTest, TracedPassReproducesTheTick) {
  const FleetPlan plan =
      PlanFleet(WorkloadKind::kReplayLocal, *corpus_, /*seed=*/5);
  Fleet plain = RegisterFleet(*corpus_, plan, plan.workers, /*tap=*/false);
  const PassResult reference = RunPass(*corpus_, plan, &plain);
  Fleet fleet = RegisterFleet(*corpus_, plan, plan.workers, /*tap=*/false);
  std::vector<Span> spans;
  Tracer tracer(*corpus_, plan, &spans);
  const PassResult traced =
      RunPass(*corpus_, plan, &fleet, &tracer, SIZE_MAX, &spans);
  tracer.Finish(fleet);
  EXPECT_EQ(traced.digest, reference.digest);
  EXPECT_EQ(tracer.totals().beside_failures, 0u);
  EXPECT_EQ(tracer.totals().reports, reference.reports);
  EXPECT_GT(tracer.totals().frames, 0u);
  EXPECT_GT(tracer.totals().delta_frames, 0u);
  EXPECT_FALSE(spans.empty());
}

class FleetTest : public ::testing::TestWithParam<WorkloadKind> {};

// A small fleet of either kind finishes cleanly, and its statuses are the
// same for 1 and 4 workers and for a traced pass.
TEST_P(FleetTest, SmallFleetIsCorrectAndDeterministic) {
  auto built = BuildCorpus(/*seed=*/2);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const Corpus& corpus = built.value();
  PassResult results[2];
  for (int workers : {1, 4}) {
    const FleetPlan plan =
        PlanFleet(GetParam(), corpus, /*seed=*/2, /*sessions=*/300, workers);
    const bool traced = workers == 4;
    Fleet fleet = RegisterFleet(corpus, plan, workers, /*tap=*/traced);
    std::vector<Span> spans;
    Tracer tracer(corpus, plan, &spans);
    results[traced] = RunPass(corpus, plan, &fleet,
                              traced ? &tracer : nullptr, SIZE_MAX, &spans);
    tracer.Finish(fleet);
    EXPECT_EQ(tracer.totals().beside_failures, 0u);
    if (traced) {
      EXPECT_GT(tracer.totals().delta_frames, 0u);
    }
    const PassResult& r = results[traced];
    EXPECT_EQ(r.failed_sessions, 0u) << r.first_issue;
    EXPECT_GT(r.reports, 0u);
    EXPECT_GT(r.stats.transport_bytes, 0u);
  }
  EXPECT_EQ(results[0].digest, results[1].digest);
  EXPECT_EQ(results[0].error_time, results[1].error_time);
  EXPECT_EQ(results[0].staleness_ms, results[1].staleness_ms);
  EXPECT_EQ(results[0].stats.transport_bytes, results[1].stats.transport_bytes);
  if (GetParam() == WorkloadKind::kFleetChurn) {
    EXPECT_GT(results[0].stats.transport_retries, 0u);
    EXPECT_GT(results[0].stale_reports, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, FleetTest,
                         ::testing::Values(WorkloadKind::kFleetSteady,
                                           WorkloadKind::kFleetChurn));

TEST(SeedTest, SeedDrivesGeneratorsAndArrivals) {
  auto a = BuildCorpus(1, 0.05);
  auto b = BuildCorpus(2, 0.05);
  ASSERT_TRUE(a.ok() && b.ok());
  const FleetPlan pa = PlanFleet(WorkloadKind::kFleetSteady, *a, 1, 50);
  const FleetPlan pb = PlanFleet(WorkloadKind::kFleetSteady, *b, 2, 50);
  const FleetPlan pa2 = PlanFleet(WorkloadKind::kFleetSteady, *a, 1, 50);
  EXPECT_NE(pa.sessions[0].offset_ms, pb.sessions[0].offset_ms);
  EXPECT_EQ(pa.sessions[0].offset_ms, pa2.sessions[0].offset_ms);
  bool traces_differ = false;
  for (size_t q = 0; q < a->queries.size() && q < b->queries.size(); ++q) {
    traces_differ |= a->queries[q].trace.total_elapsed_ms !=
                     b->queries[q].trace.total_elapsed_ms;
  }
  EXPECT_TRUE(traces_differ);
}

}  // namespace
}  // namespace perfbench
