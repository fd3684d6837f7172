// MonitorService: session lifecycle on the shared timeline, the estimator
// cache, the zero-horizon guard (the old example's infinite loop), the
// determinism contract (1-thread and N-thread runs produce identical
// results), aggregate stats, held reports for repeat snapshots, the indexed
// (drift-free) tick loop, and the ThreadPool underneath it all.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "common/stringf.h"
#include "monitor/monitor_service.h"
#include "monitor/thread_pool.h"
#include "optimizer/annotate.h"
#include "tests/test_util.h"
#include "workload/plan_builder.h"

namespace lqs {
namespace testing {
namespace {

using namespace pb;  // NOLINT

class MonitorTest : public ::testing::Test {
 protected:
  void SetUp() override { catalog_ = MakeTestCatalog(); }

  Plan Annotated(std::unique_ptr<PlanNode> root) {
    Plan plan = MustFinalize(std::move(root), *catalog_);
    EXPECT_OK(AnnotatePlan(&plan, *catalog_, OptimizerOptions{}));
    return plan;
  }

  ExecutionResult Run(const Plan& plan, double interval_ms = 2.0) {
    ExecOptions exec;
    exec.snapshot_interval_ms = interval_ms;
    return MustExecute(plan, catalog_.get(), exec);
  }

  std::unique_ptr<Catalog> catalog_;
};

TEST_F(MonitorTest, SessionLifecycleOnSharedTimeline) {
  Plan plan = Annotated(Sort(Scan("t_big"), {2}));
  ExecutionResult result = Run(plan);
  ASSERT_GT(result.duration_ms, 0);

  MonitorService monitor;
  const double offset = result.duration_ms * 2;
  monitor.RegisterSession("first", &plan, catalog_.get(), &result.trace, 0);
  monitor.RegisterSession("late", &plan, catalog_.get(), &result.trace,
                          offset);
  EXPECT_DOUBLE_EQ(monitor.HorizonMs(), offset + result.duration_ms);

  // Mid-flight of session 0: it is running, the late arrival still waits.
  auto statuses = monitor.Tick(result.duration_ms / 2);
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(statuses[0].state, SessionState::kRunning);
  ASSERT_NE(statuses[0].snapshot, nullptr);
  EXPECT_GT(statuses[0].progress, 0.0);
  EXPECT_LE(statuses[0].progress, 1.0);
  EXPECT_EQ(statuses[1].state, SessionState::kWaiting);
  EXPECT_DOUBLE_EQ(statuses[1].progress, 0.0);
  EXPECT_LT(statuses[1].local_time_ms, 0.0);

  // After session 0 finished and session 1 started.
  statuses = monitor.Tick(offset + result.duration_ms / 2);
  EXPECT_EQ(statuses[0].state, SessionState::kDone);
  EXPECT_DOUBLE_EQ(statuses[0].progress, 1.0);
  EXPECT_EQ(statuses[1].state, SessionState::kRunning);

  // Horizon: everything done.
  statuses = monitor.Tick(monitor.HorizonMs());
  EXPECT_EQ(statuses[0].state, SessionState::kDone);
  EXPECT_EQ(statuses[1].state, SessionState::kDone);

  MonitorStats stats = monitor.stats();
  EXPECT_EQ(stats.sessions, 2u);
  EXPECT_EQ(stats.ticks, 3u);
  EXPECT_EQ(stats.done, 2u);
  EXPECT_EQ(stats.active + stats.waiting + stats.done, stats.sessions);
  EXPECT_GT(stats.reports_computed, 0u);
  EXPECT_TRUE(monitor.FinalCheck().ok());
}

TEST_F(MonitorTest, EstimatorCacheSharesAcrossSessionsPerPlanAndOptions) {
  Plan plan_a = Annotated(Scan("t_big"));
  Plan plan_b = Annotated(Scan("t_small"));
  ExecutionResult result_a = Run(plan_a);
  ExecutionResult result_b = Run(plan_b);

  MonitorService monitor;
  // 4 sessions over plan_a with identical options: one estimator.
  for (int i = 0; i < 4; ++i) {
    monitor.RegisterSession(StringF("a%d", i), &plan_a, catalog_.get(),
                            &result_a.trace, 10.0 * i);
  }
  EXPECT_EQ(monitor.stats().estimators_cached, 1u);
  // Same plan, different options: a second estimator.
  monitor.RegisterSession("a_tgn", &plan_a, catalog_.get(), &result_a.trace,
                          0, EstimatorOptions::TotalGetNext());
  EXPECT_EQ(monitor.stats().estimators_cached, 2u);
  // A different plan: a third.
  monitor.RegisterSession("b", &plan_b, catalog_.get(), &result_b.trace, 0);
  EXPECT_EQ(monitor.stats().estimators_cached, 3u);
  EXPECT_EQ(monitor.session_count(), 6u);

  monitor.RunToCompletion({});
  EXPECT_TRUE(monitor.FinalCheck().ok());
}

TEST_F(MonitorTest, ZeroHorizonDoesNotLoopForever) {
  // Regression: all sessions empty => horizon == 0 => the old example's
  // `tick = horizon / 12; t += tick` never advanced. RunToCompletion must
  // terminate and still report the degenerate sessions as done.
  ProfileTrace empty;  // total_elapsed_ms == 0, no snapshots
  Plan plan = Annotated(Scan("t_small"));

  MonitorService monitor;
  monitor.RegisterSession("empty", &plan, catalog_.get(), &empty, 0);
  int renders = 0;
  std::vector<SessionStatus> last;
  monitor.RunToCompletion(
      [&](double t, const std::vector<SessionStatus>& statuses) {
        EXPECT_DOUBLE_EQ(t, 0.0);
        ++renders;
        last = statuses;
      });
  EXPECT_EQ(renders, 1);
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].state, SessionState::kDone);
  EXPECT_EQ(monitor.stats().ticks, 1u);
}

TEST_F(MonitorTest, NoSessionsTerminatesWithoutTicks) {
  MonitorService monitor;
  EXPECT_DOUBLE_EQ(monitor.HorizonMs(), 0.0);
  int renders = 0;
  monitor.RunToCompletion(
      [&](double, const std::vector<SessionStatus>&) { ++renders; });
  EXPECT_EQ(renders, 0);
  EXPECT_EQ(monitor.stats().ticks, 0u);
  EXPECT_TRUE(monitor.FinalCheck().ok());
}

// The determinism contract: the full per-session report stream and the
// published stats must be identical whatever the thread count. Render every
// status into one string (progress at full double precision) and compare
// serial vs parallel, then compare stats() with the thread count zeroed.
TEST_F(MonitorTest, OutputIdenticalAcrossThreadCounts) {
  Plan join = Annotated(
      HashAgg(HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0},
                       {1}),
              {2}, {Count()}));
  Plan sort = Annotated(Sort(Scan("t_big"), {2}));
  ExecutionResult join_result = Run(join);
  ExecutionResult sort_result = Run(sort);

  auto run = [&](int threads) {
    MonitorOptions options;
    options.num_threads = threads;
    options.ticks_per_horizon = 16;
    MonitorService monitor(options);
    for (int i = 0; i < 8; ++i) {
      monitor.RegisterSession(StringF("j%d", i), &join, catalog_.get(),
                              &join_result.trace, 3.5 * i);
      monitor.RegisterSession(StringF("s%d", i), &sort, catalog_.get(),
                              &sort_result.trace, 2.5 * i);
    }
    std::string rendered;
    monitor.RunToCompletion(
        [&rendered](double t, const std::vector<SessionStatus>& statuses) {
          rendered += StringF("t=%.17g\n", t);
          for (const SessionStatus& s : statuses) {
            rendered += StringF("  %d state=%d p=%.17g", s.session_id,
                                static_cast<int>(s.state), s.progress);
            if (s.report != nullptr) {
              for (double op : s.report->operator_progress) {
                rendered += StringF(" %.17g", op);
              }
            }
            rendered += "\n";
          }
        });
    EXPECT_TRUE(monitor.FinalCheck().ok());
    MonitorStats stats = monitor.stats();
    EXPECT_EQ(stats.num_threads, threads);
    stats.num_threads = 0;
    return std::make_pair(rendered, stats);
  };

  const auto serial = run(1);
  EXPECT_FALSE(serial.first.empty());
  EXPECT_GT(serial.second.reports_computed, 0u);
  for (int threads : {2, 5}) {
    const auto parallel = run(threads);
    EXPECT_EQ(serial.first, parallel.first) << threads << " threads";
    EXPECT_EQ(serial.second, parallel.second) << threads << " threads";
  }
}

TEST_F(MonitorTest, StatsCountTicksAndReports) {
  Plan plan = Annotated(Sort(Scan("t_big"), {2}));
  ExecutionResult result = Run(plan);
  MonitorService monitor;
  for (int i = 0; i < 3; ++i) {
    monitor.RegisterSession(StringF("q%d", i), &plan, catalog_.get(),
                            &result.trace, 5.0 * i);
  }
  monitor.RunToCompletion({});
  MonitorStats stats = monitor.stats();
  EXPECT_EQ(stats.ticks, 12u);  // default ticks_per_horizon
  EXPECT_GT(stats.reports_computed, 0u);
  EXPECT_GT(stats.num_threads, 0);
}

TEST_F(MonitorTest, StatsCarryLifetimeTotalsAndRecountEachTick) {
  // Each Tick() publishes a fresh recount of the session states while the
  // registration counts and lifetime totals carry over: reports_computed
  // sums every estimate that ran — a running session's tick whose snapshot
  // (address and time) differs from the one it estimated last —
  // active/waiting/done describe the latest tick only.
  Plan plan = Annotated(Sort(Scan("t_big"), {2}));
  ExecutionResult result = Run(plan);
  MonitorService monitor;
  for (int i = 0; i < 3; ++i) {
    monitor.RegisterSession(StringF("q%d", i), &plan, catalog_.get(),
                            &result.trace, 5.0 * i);
  }
  const double horizon = monitor.HorizonMs();
  EstimateCounter estimates;
  for (int i = 1; i <= 8; ++i) {
    const std::vector<SessionStatus> statuses =
        monitor.Tick(horizon * i / 8);
    size_t running = 0;
    for (const SessionStatus& s : statuses) {
      if (s.state != SessionState::kRunning) continue;
      ++running;
      if (s.snapshot != nullptr) estimates.Add(s.session_id, *s.snapshot);
    }
    const MonitorStats stats = monitor.stats();
    EXPECT_EQ(stats.active, running) << "tick " << i;
    EXPECT_EQ(stats.active + stats.waiting + stats.done, 3u) << "tick " << i;
    EXPECT_EQ(stats.reports_computed, estimates.count()) << "tick " << i;
    EXPECT_EQ(stats.ticks, static_cast<uint64_t>(i));
    EXPECT_EQ(stats.sessions, 3u);
    EXPECT_EQ(stats.estimators_cached, 1u);
  }
  EXPECT_GT(estimates.count(), 3u);
}

// True when both reports hold the same bits in all five fields.
bool SameBits(const ProgressReport& a, const ProgressReport& b) {
  const auto same = [](const std::vector<double>& x,
                       const std::vector<double>& y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                      [](double l, double r) {
                        return std::bit_cast<uint64_t>(l) ==
                               std::bit_cast<uint64_t>(r);
                      });
  };
  return std::bit_cast<uint64_t>(a.query_progress) ==
             std::bit_cast<uint64_t>(b.query_progress) &&
         same(a.operator_progress, b.operator_progress) &&
         same(a.refined_rows, b.refined_rows) &&
         same(a.pipeline_progress, b.pipeline_progress) &&
         same(a.pipeline_weight, b.pipeline_weight);
}

// A tick that shows the snapshot a session estimated last serves the
// session's held report. Ticked every 0.5 ms over traces sampled every
// 2 ms, most ticks repeat the snapshot of the tick before. Every report a
// running status points at must still equal, bit for bit, what a fresh
// workspace estimates from its snapshot; only ticks whose snapshot changed
// count as estimates; and no other status carries a report.
TEST_F(MonitorTest, RepeatSnapshotsServeTheHeldReport) {
  Plan join = Annotated(
      HashAgg(HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0},
                       {1}),
              {2}, {Count()}));
  ExecutionResult result = Run(join, /*interval_ms=*/2.0);
  // The same trace without its first three snapshots: its session runs
  // without a snapshot for its first few ticks.
  ProfileTrace late = result.trace;
  ASSERT_GT(late.snapshots.size(), 6u);
  late.snapshots.erase(late.snapshots.begin(), late.snapshots.begin() + 3);
  const ProgressEstimator oracle(&join, catalog_.get(),
                                 EstimatorOptions::Lqs());

  for (int threads : {1, 4}) {
    SCOPED_TRACE(StringF("%d thread(s)", threads));
    MonitorOptions options;
    options.num_threads = threads;
    MonitorService monitor(options);
    for (int i = 0; i < 6; ++i) {
      monitor.RegisterSession(StringF("s%d", i), &join, catalog_.get(),
                              &result.trace, 1.25 * i);
    }
    monitor.RegisterSession("late", &join, catalog_.get(), &late, 0.75);
    EstimateCounter estimates;
    uint64_t served = 0;
    size_t no_snapshot = 0;
    std::vector<SessionStatus> statuses;
    for (int k = 1; !monitor.AllSessionsDone(); ++k) {
      ASSERT_LT(k, 100000) << "sessions never finished";
      monitor.TickInto(0.5 * k, &statuses);
      for (const SessionStatus& s : statuses) {
        if (s.state != SessionState::kRunning || s.snapshot == nullptr) {
          EXPECT_EQ(s.report, nullptr) << "tick " << k << " session "
                                       << s.session_id;
          if (s.state == SessionState::kRunning) ++no_snapshot;
          continue;
        }
        ASSERT_NE(s.report, nullptr);
        ++served;
        ProgressEstimator::Workspace fresh;
        ProgressReport expected;
        oracle.EstimateInto(*s.snapshot, &fresh, &expected);
        EXPECT_TRUE(SameBits(*s.report, expected))
            << "tick " << k << " session " << s.session_id;
        EXPECT_EQ(s.progress, expected.query_progress);
        estimates.Add(s.session_id, *s.snapshot);
      }
      EXPECT_EQ(monitor.stats().reports_computed, estimates.count())
          << "tick " << k;
    }
    EXPECT_GT(no_snapshot, 0u);
    EXPECT_LT(estimates.count(), served);
    EXPECT_TRUE(monitor.FinalCheck().ok());
  }
}

// Regression test for the accumulated-tick drift bug. With tick_ms = 6.7 —
// inexact in binary — 3000 repeated additions accumulate to
// 20100.000000001135, which is past horizon + 1e-9, so the drifting loop
// skipped the final on-horizon tick and then issued an overtime tick
// *beyond* the horizon. The indexed loop computes t = i * tick with one
// rounding per tick: 3000 * 6.7 is exactly 20100.0.
TEST_F(MonitorTest, IndexedTickLoopHitsExactHorizon) {
  Plan plan = Annotated(Sort(Scan("t_small"), {0}));
  ExecutionResult result = Run(plan);
  // Stretch the virtual timeline so the horizon is exactly 3000 ticks of
  // 6.7 ms. Counters are untouched; the session simply idles on its last
  // snapshot until the (much later) final one.
  result.trace.total_elapsed_ms = 20100.0;
  result.trace.final_snapshot.time_ms = 20100.0;
  const double horizon = 20100.0;

  MonitorOptions tick_options;
  tick_options.tick_ms = 6.7;
  tick_options.num_threads = 1;

  MonitorService monitor(tick_options);
  monitor.RegisterSession("drift", &plan, catalog_.get(), &result.trace,
                          /*start_offset_ms=*/0);
  ASSERT_DOUBLE_EQ(monitor.HorizonMs(), horizon);
  std::vector<double> times;
  monitor.RunToCompletion(
      [&](double now_ms, const std::vector<SessionStatus>&) {
        times.push_back(now_ms);
      });
  ASSERT_EQ(times.size(), 3000u) << "final on-horizon tick was skipped";
  EXPECT_DOUBLE_EQ(times.back(), horizon);
  for (double t : times) {
    ASSERT_LE(t, horizon + 1e-9) << "tick drifted past the horizon";
  }
  EXPECT_TRUE(monitor.AllSessionsDone())
      << "session left for overtime ticks the horizon pass should cover";
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.ParallelFor(kN, [&hits](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(std::memory_order_relaxed), 1) << "i=" << i;
    }
  }
}

TEST(ThreadPoolTest, ReusableAcrossJobsAndHandlesEdgeSizes) {
  ThreadPool pool(4);
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(0, [&](size_t) { sum.fetch_add(1); });
  EXPECT_EQ(sum.load(), 0u);
  pool.ParallelFor(1, [&](size_t i) { sum.fetch_add(i + 1); });
  EXPECT_EQ(sum.load(), 1u);
  // Many back-to-back jobs exercise the generation handshake.
  for (int job = 0; job < 50; ++job) {
    pool.ParallelFor(37, [&](size_t i) { sum.fetch_add(i); });
  }
  EXPECT_EQ(sum.load(), 1u + 50u * (36u * 37u / 2));
}

TEST(ThreadPoolTest, DefaultThreadCountIsBoundedAndPositive) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1);
  EXPECT_LE(pool.num_threads(), 16);
}

// Shutdown regression (DESIGN.md §9 audit): destroying the pool immediately
// after ParallelFor returns races the destructor's shutdown_ handshake
// against workers that are still re-entering the wait (a slow waker can
// observe the generation bump only after the job has been retired). Churn
// that window repeatedly — exact-once index coverage and a clean join must
// hold every time; TSan covers the memory orders in CI.
TEST(ThreadPoolTest, ShutdownImmediatelyAfterQueuedJobsCompletes) {
  constexpr size_t kN = 128;
  for (int iter = 0; iter < 25; ++iter) {
    std::vector<std::atomic<int>> hits(kN);
    {
      ThreadPool pool(4);
      pool.ParallelFor(kN, [&hits](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
    }  // destructor runs while workers may still be waking from the job
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1) << "i=" << i;
    }
  }
}

TEST(ThreadPoolTest, ShutdownWithNoJobsEverQueuedIsClean) {
  for (int iter = 0; iter < 10; ++iter) {
    ThreadPool pool(4);  // construct + immediately destroy: pure handshake
  }
}

// The other half of the audit: a destructor overlapping an in-flight
// ParallelFor used to be silent use-after-free territory; it now aborts
// with a diagnostic. The driver thread parks the job on a latch so the
// destructor deterministically observes current_job_ != nullptr.
TEST(ThreadPoolDeathTest, DestructionWithJobInFlightAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        std::atomic<bool> started{false};
        std::atomic<bool> release{false};
        auto* pool = new ThreadPool(2);
        std::thread driver([&] {
          pool->ParallelFor(8, [&](size_t) {
            started.store(true);
            while (!release.load()) std::this_thread::yield();
          });
        });
        while (!started.load()) std::this_thread::yield();
        delete pool;  // ParallelFor still blocked in the job: must abort
        release.store(true);
        driver.join();
      },
      "destroyed while a ParallelFor is still in flight");
}

}  // namespace
}  // namespace testing
}  // namespace lqs
