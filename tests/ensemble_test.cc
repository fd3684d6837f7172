// Behavioural contract of the robust ensemble estimator (src/ensemble/):
//  - degenerate single-candidate ensembles are BIT-IDENTICAL to the plain
//    estimator, including under shuffled out-of-order replay;
//  - candidate scores are a pure function of the fed snapshot sequence
//    (deterministic across runs and workspaces);
//  - the uncertainty band always brackets the selected estimate and stays
//    within [0, 1];
//  - hysteresis prevents winner flap on a crafted alternating score
//    sequence;
//  - monitor sessions in EstimatorOptions::ensemble mode surface the
//    winner + band per session.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "gtest/gtest.h"

#include "ensemble/ensemble.h"
#include "ensemble/ensemble_metrics.h"
#include "lqs/estimator.h"
#include "monitor/monitor_service.h"
#include "optimizer/annotate.h"
#include "tests/test_util.h"
#include "workload/plan_builder.h"

namespace lqs {
namespace testing {
namespace {

using namespace pb;  // NOLINT

/// Exact comparison, field by field — the contract is bit-identity, not
/// tolerance (same rationale as estimator_workspace_test.cc).
void ExpectReportsIdentical(const ProgressReport& a, const ProgressReport& b,
                            const char* context) {
  EXPECT_EQ(a.query_progress, b.query_progress) << context;
  ASSERT_EQ(a.operator_progress.size(), b.operator_progress.size()) << context;
  for (size_t i = 0; i < a.operator_progress.size(); ++i) {
    EXPECT_EQ(a.operator_progress[i], b.operator_progress[i])
        << context << " operator " << i;
    EXPECT_EQ(a.refined_rows[i], b.refined_rows[i])
        << context << " refined " << i;
  }
  ASSERT_EQ(a.pipeline_progress.size(), b.pipeline_progress.size()) << context;
  for (size_t i = 0; i < a.pipeline_progress.size(); ++i) {
    EXPECT_EQ(a.pipeline_progress[i], b.pipeline_progress[i])
        << context << " pipeline " << i;
    EXPECT_EQ(a.pipeline_weight[i], b.pipeline_weight[i])
        << context << " weight " << i;
  }
}

/// Deterministic shuffle (no RNG): alternating front/back pick.
std::vector<const ProfileSnapshot*> ShuffledOrder(const ProfileTrace& trace) {
  std::vector<const ProfileSnapshot*> order;
  order.reserve(trace.snapshots.size());
  size_t lo = 0, hi = trace.snapshots.size();
  bool front = false;
  while (lo < hi) {
    if (front) {
      order.push_back(&trace.snapshots[lo++]);
    } else {
      order.push_back(&trace.snapshots[--hi]);
    }
    front = !front;
  }
  return order;
}

class EnsembleTest : public ::testing::Test {
 protected:
  void SetUp() override { catalog_ = MakeTestCatalog(); }

  Plan Annotated(std::unique_ptr<PlanNode> root) {
    Plan plan = MustFinalize(std::move(root), *catalog_);
    EXPECT_OK(AnnotatePlan(&plan, *catalog_, OptimizerOptions{}));
    return plan;
  }

  ExecutionResult Run(const Plan& plan) {
    ExecOptions exec;
    exec.snapshot_interval_ms = 2.0;
    return MustExecute(plan, catalog_.get(), exec);
  }

  std::unique_ptr<Catalog> catalog_;
};

TEST_F(EnsembleTest, SingleCandidateMatchesPlainEstimatorBitIdentical) {
  Plan plan = Annotated(
      HashAgg(HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0},
                       {1}),
              {2}, {Count()}));
  auto result = Run(plan);
  ASSERT_GT(result.trace.snapshots.size(), 5u);

  EnsembleOptions options;
  options.candidates = {{"lqs", EstimatorOptions::Lqs()}};
  EnsembleEstimator ensemble(&plan, catalog_.get(), options);
  ProgressEstimator plain(&plan, catalog_.get(), EstimatorOptions::Lqs());

  EnsembleEstimator::Workspace ews;
  ProgressEstimator::Workspace pws;
  EnsembleReport ereport;
  ProgressReport preport;
  for (const ProfileSnapshot& snap : result.trace.snapshots) {
    ensemble.EstimateInto(snap, &ews, &ereport);
    plain.EstimateInto(snap, &pws, &preport);
    ExpectReportsIdentical(ereport.selected, preport, "in-order");
    EXPECT_EQ(ereport.winner, 0);
    EXPECT_STREQ(ereport.winner_name, "lqs");
    EXPECT_EQ(ereport.query_progress, preport.query_progress);
  }
}

TEST_F(EnsembleTest, SingleCandidateMatchesUnderShuffledReplay) {
  Plan plan = Annotated(Sort(Scan("t_big"), {2}));
  auto result = Run(plan);
  ASSERT_GT(result.trace.snapshots.size(), 5u);

  EnsembleOptions options;
  options.candidates = {{"lqs", EstimatorOptions::Lqs()}};
  EnsembleEstimator ensemble(&plan, catalog_.get(), options);
  ProgressEstimator plain(&plan, catalog_.get(), EstimatorOptions::Lqs());

  EnsembleEstimator::Workspace ews;
  ProgressEstimator::Workspace pws;
  EnsembleReport ereport;
  ProgressReport preport;
  for (const ProfileSnapshot* snap : ShuffledOrder(result.trace)) {
    ensemble.EstimateInto(*snap, &ews, &ereport);
    plain.EstimateInto(*snap, &pws, &preport);
    ExpectReportsIdentical(ereport.selected, preport, "shuffled");
  }
}

TEST_F(EnsembleTest, ScoresAreDeterministicAcrossRuns) {
  Plan plan = Annotated(
      HashAgg(HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0},
                       {1}),
              {2}, {Count()}));
  auto result = Run(plan);

  auto replay = [&](std::vector<std::vector<double>>* scores,
                    std::vector<int>* winners) {
    EnsembleEstimator ensemble(&plan, catalog_.get(), EnsembleOptions{});
    EnsembleEstimator::Workspace ws;
    EnsembleReport report;
    for (const ProfileSnapshot& snap : result.trace.snapshots) {
      ensemble.EstimateInto(snap, &ws, &report);
      scores->push_back(report.candidate_score);
      winners->push_back(report.winner);
    }
  };
  std::vector<std::vector<double>> scores_a, scores_b;
  std::vector<int> winners_a, winners_b;
  replay(&scores_a, &winners_a);
  replay(&scores_b, &winners_b);
  ASSERT_EQ(scores_a.size(), scores_b.size());
  for (size_t t = 0; t < scores_a.size(); ++t) {
    ASSERT_EQ(scores_a[t].size(), scores_b[t].size());
    for (size_t c = 0; c < scores_a[t].size(); ++c) {
      // Bit-identity (infinities included): EXPECT_EQ on purpose.
      EXPECT_EQ(scores_a[t][c], scores_b[t][c])
          << "tick " << t << " candidate " << c;
    }
    EXPECT_EQ(winners_a[t], winners_b[t]) << "tick " << t;
  }
}

TEST_F(EnsembleTest, BandBracketsSelectionAndStaysInRange) {
  Plan plan = Annotated(
      Sort(HashAgg(HashJoin(JoinKind::kInner, Scan("t_small"),
                            CsScan("t_big"), {0}, {1}),
                   {2}, {Count()}),
           {0}));
  auto result = Run(plan);

  EnsembleEstimator ensemble(&plan, catalog_.get(), EnsembleOptions{});
  EnsembleEstimator::Workspace ws;
  EnsembleReport report;
  for (const ProfileSnapshot& snap : result.trace.snapshots) {
    ensemble.EstimateInto(snap, &ws, &report);
    EXPECT_GE(report.band_lo, 0.0);
    EXPECT_LE(report.band_hi, 1.0);
    EXPECT_LE(report.band_lo, report.band_hi);
    // The headline estimate (selected or blended) always lies in the band.
    EXPECT_GE(report.query_progress, report.band_lo);
    EXPECT_LE(report.query_progress, report.band_hi);
    // The winner is always in the trusted set behind the band.
    ASSERT_GE(report.winner, 0);
    ASSERT_LT(static_cast<size_t>(report.winner),
              report.candidate_trusted.size());
    EXPECT_EQ(report.candidate_trusted[static_cast<size_t>(report.winner)], 1);
    // Blended mode too: the blend is a convex combination of trusted
    // candidates, so it must sit inside the same band.
    EXPECT_GE(report.blended_progress, report.band_lo);
    EXPECT_LE(report.blended_progress, report.band_hi);
  }
}

TEST_F(EnsembleTest, HysteresisPreventsWinnerFlap) {
  // Crafted alternating workload: candidates 0 and 1 swap the lead every
  // round by a margin big enough to start a challenge (>25%) but never
  // sustained for switch_ticks consecutive rounds — a selector without
  // hysteresis would flap every tick; ours must never switch.
  HysteresisSelector selector;
  const double round_a[] = {0.10, 0.20};
  const double round_b[] = {0.20, 0.10};
  EXPECT_EQ(selector.Update(round_a, 2, 0.25, 3), 0);
  for (int t = 0; t < 50; ++t) {
    const double* round = (t % 2 == 0) ? round_b : round_a;
    EXPECT_EQ(selector.Update(round, 2, 0.25, 3), 0) << "tick " << t;
  }
  EXPECT_EQ(selector.switches, 0u);

  // A sustained challenger does take over — after exactly switch_ticks
  // consecutive winning rounds, and only once.
  for (int t = 0; t < 2; ++t) {
    EXPECT_EQ(selector.Update(round_b, 2, 0.25, 3), 0) << "streak " << t;
  }
  EXPECT_EQ(selector.Update(round_b, 2, 0.25, 3), 1);
  EXPECT_EQ(selector.switches, 1u);
  // The dethroned incumbent immediately challenging back must also sustain.
  EXPECT_EQ(selector.Update(round_a, 2, 0.25, 3), 1);
  EXPECT_EQ(selector.switches, 1u);
}

TEST_F(EnsembleTest, TieBreaksToLowestIndexAndWarmupFallsBackToFirst) {
  HysteresisSelector selector;
  const double kInf = std::numeric_limits<double>::infinity();
  // All-unscored warm-up: first candidate wins by default.
  const double warmup[] = {kInf, kInf, kInf};
  EXPECT_EQ(selector.Update(warmup, 3, 0.25, 3), 0);
  // Exact ties resolve to the lowest index, deterministically.
  HysteresisSelector tie;
  const double tied[] = {0.5, 0.5, 0.5};
  EXPECT_EQ(tie.Update(tied, 3, 0.25, 3), 0);
}

TEST_F(EnsembleTest, MonitorSessionSurfacesWinnerAndBand) {
  Plan plan = Annotated(
      HashAgg(HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0},
                       {1}),
              {2}, {Count()}));
  auto result = Run(plan);

  EstimatorOptions ensemble_mode;
  ensemble_mode.ensemble = true;
  MonitorService monitor;
  const int ens_id = monitor.RegisterSession("ens", &plan, catalog_.get(),
                                             &result.trace, 0.0,
                                             ensemble_mode);
  const int plain_id = monitor.RegisterSession("plain", &plan, catalog_.get(),
                                               &result.trace, 0.0);
  int running_ticks = 0;
  monitor.RunToCompletion([&](double, const std::vector<SessionStatus>& st) {
    const SessionStatus& ens = st[static_cast<size_t>(ens_id)];
    const SessionStatus& plain = st[static_cast<size_t>(plain_id)];
    EXPECT_FALSE(plain.ensemble);
    EXPECT_TRUE(ens.ensemble || ens.state != SessionState::kRunning);
    if (ens.state != SessionState::kRunning || ens.snapshot == nullptr) return;
    ++running_ticks;
    // DMV view: winner + band surface per session and the band brackets
    // the rendered progress.
    EXPECT_GE(ens.ensemble_winner, 0);
    EXPECT_STRNE(ens.ensemble_winner_name, "");
    EXPECT_GE(ens.progress, ens.band_lo);
    EXPECT_LE(ens.progress, ens.band_hi);
    EXPECT_GE(ens.band_lo, 0.0);
    EXPECT_LE(ens.band_hi, 1.0);
  });
  ASSERT_GT(running_ticks, 0);
  EXPECT_TRUE(monitor.FinalCheck().ok());

  const MonitorStats stats = monitor.stats();
  EXPECT_EQ(stats.ensemble_sessions, 1u);
  EXPECT_EQ(stats.ensembles_cached, 1u);
  EXPECT_GT(stats.ensemble_candidate_estimates, 0u);
  ASSERT_FALSE(stats.ensemble_candidate_names.empty());
  ASSERT_EQ(stats.ensemble_candidate_latency_ms.size(),
            stats.ensemble_candidate_names.size());
  ASSERT_EQ(stats.ensemble_selected_ticks.size(),
            stats.ensemble_candidate_names.size());
  // Selected-preset counters: the ensemble session's ticks distribute over
  // the candidates; their sum is the session's estimate count.
  uint64_t selected_total = 0;
  for (uint64_t ticks : stats.ensemble_selected_ticks) selected_total += ticks;
  EXPECT_EQ(selected_total,
            stats.ensemble_candidate_estimates /
                stats.ensemble_candidate_names.size());
  // Per-candidate latency telemetry accumulated through the injected clock.
  double latency_total = 0;
  for (double ms : stats.ensemble_candidate_latency_ms) latency_total += ms;
  EXPECT_GE(latency_total, 0.0);
}

TEST_F(EnsembleTest, EvaluateEnsembleProducesComparableMetrics) {
  Plan plan = Annotated(
      HashAgg(HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0},
                       {1}),
              {2}, {Count()}));
  auto result = Run(plan);

  const EnsembleEvaluation eval =
      EvaluateEnsemble(plan, *catalog_, result.trace, EnsembleOptions{});
  EXPECT_GT(eval.observations, 0);
  EXPECT_GE(eval.error_time, 0.0);
  EXPECT_LE(eval.error_time, 1.0);
  EXPECT_GE(eval.error_count, 0.0);
  EXPECT_GE(eval.final_winner, 0);
  EXPECT_GE(eval.band_coverage, 0.0);
  EXPECT_LE(eval.band_coverage, 1.0);
}

}  // namespace
}  // namespace testing
}  // namespace lqs
