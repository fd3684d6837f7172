// Allocation audit for the workspace-reusing estimation engine: after the
// first (sizing) call, steady-state EstimateInto must perform ZERO heap
// allocations, for every preset, across a whole recorded trace. Enforced by
// overriding global operator new/delete with counting wrappers — every
// allocation anywhere in the process is observed, including ones hidden
// inside std::vector growth, std::string, or std::map on the hot path.
//
// The overrides forward to std::malloc/std::free, which sanitizers intercept
// below us, so this test runs unchanged under ASan/UBSan and TSan builds.
// Only allocations between StartCounting/StopCounting are charged; gtest's
// own bookkeeping outside the window is free.
//
// Each assertion below is PAIRED with an LQS_NOALLOC annotation in the
// headers via an `LQS_NOALLOC_PAIRED: <qualified-name>` marker comment.
// tools/lqs_verify cross-checks the two sets in both directions: deleting
// an annotation orphans the marker here, and deleting a marker (or the
// test) orphans the annotation — either way the static-analysis CI job
// fails, so the static contract and its runtime enforcement cannot drift
// apart silently.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "gtest/gtest.h"

#include "lqs/estimator.h"
#include "monitor/monitor_service.h"
#include "optimizer/annotate.h"
#include "tests/test_util.h"
#include "workload/plan_builder.h"

#if defined(__GNUC__) && !defined(__clang__)
// GCC flags std::free() on a pointer from our replacement operator new as
// mismatched; the pairing is correct by construction (the replacement
// forwards to std::malloc), so the diagnostic is a false positive here.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_new_calls{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
  }
  void* ptr = nullptr;
  if (posix_memalign(&ptr, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    return nullptr;
  }
  return ptr;
}

}  // namespace

// Replacing these at global scope intercepts every new/delete in the
// process; each variant must be covered or a caller could slip past the
// counter (and mismatch the underlying allocator).
void* operator new(std::size_t size) {
  void* ptr = CountedAlloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
void* operator new[](std::size_t size) {
  void* ptr = CountedAlloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* ptr = CountedAlignedAlloc(size, static_cast<std::size_t>(align));
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  void* ptr = CountedAlignedAlloc(size, static_cast<std::size_t>(align));
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(ptr);
}

namespace lqs {
namespace testing {
namespace {

using namespace pb;  // NOLINT

struct AllocationWindow {
  AllocationWindow() {
    g_new_calls.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationWindow() { g_counting.store(false, std::memory_order_relaxed); }
  uint64_t count() const {
    return g_new_calls.load(std::memory_order_relaxed);
  }
};

class EstimatorAllocTest : public ::testing::Test {
 protected:
  void SetUp() override { catalog_ = MakeTestCatalog(); }

  Plan Annotated(std::unique_ptr<PlanNode> root) {
    Plan plan = MustFinalize(std::move(root), *catalog_);
    EXPECT_OK(AnnotatePlan(&plan, *catalog_, OptimizerOptions{}));
    return plan;
  }

  std::unique_ptr<Catalog> catalog_;
};

TEST_F(EstimatorAllocTest, SteadyStateEstimateIntoAllocatesNothing) {
  // Exercise every operator family the estimator special-cases: hash join
  // build/probe, hash aggregate (two-phase blocking), sort (semi-blocking),
  // and a columnstore scan (§4.7 segments) under a row-mode side.
  Plan plan = Annotated(
      Sort(HashAgg(HashJoin(JoinKind::kInner, Scan("t_small"),
                            CsScan("t_big"), {0}, {1}),
                   {2}, {Count()}),
           {0}));
  ExecOptions exec;
  exec.snapshot_interval_ms = 2.0;
  auto result = MustExecute(plan, catalog_.get(), exec);
  ASSERT_GT(result.trace.snapshots.size(), 5u);

  // Preset list and labels come from the shared registry, so a preset
  // added there is automatically audited here.
  for (int p = 0; p < EstimatorOptions::kPresetCount; ++p) {
    struct NamedPreset {
      const char* name;
      EstimatorOptions options;
    };
    const NamedPreset preset{EstimatorOptions::PresetName(p),
                             EstimatorOptions::PresetByIndex(p)};
    ProgressEstimator estimator(&plan, catalog_.get(), preset.options);
    ProgressEstimator::Workspace workspace;
    ProgressReport report;
    // One sizing call: binds the workspace, grows every flat buffer and the
    // report vectors to this plan's shape. The FINAL snapshot maximizes the
    // observed counters, so no later snapshot can need more capacity.
    estimator.EstimateInto(result.trace.final_snapshot, &workspace, &report);

    AllocationWindow window;
    for (const ProfileSnapshot& snap : result.trace.snapshots) {
      estimator.EstimateInto(snap, &workspace, &report);
    }
    estimator.EstimateInto(result.trace.final_snapshot, &workspace, &report);
    // Runtime side of the static contract (src/lqs/estimator.h, bounds.h):
    // the presets walk every annotated estimation path — bounding_only
    // drives the Appendix-A derivation, lqs drives the §4.6 weight path.
    // LQS_NOALLOC_PAIRED: ProgressEstimator::EstimateInto
    // LQS_NOALLOC_PAIRED: ComputeBoundsInto
    // LQS_NOALLOC_PAIRED: ProgressEstimator::PipelineWeightsInto
    EXPECT_EQ(window.count(), 0u)
        << "preset " << preset.name << ": steady-state EstimateInto "
        << "performed heap allocations";
  }
}

TEST_F(EstimatorAllocTest, SteadyStateLpBoundEnginesAllocateNothing) {
  // Bounds-engine pipeline audit: the LpBound engine and the intersecting
  // dispatcher run per snapshot, so after the sizing call (which also grows
  // the workspace's second-engine scratch) a steady-state estimate under
  // bounds_engine = kLpBound / kIntersect must stay heap-free, exactly
  // like the Appendix-A default. The plan exercises the engine's join
  // degree caps (equijoin over base-table keys) plus filter/aggregate/sort
  // pass-through bounds.
  Plan plan = Annotated(
      Sort(HashAgg(HashJoin(JoinKind::kInner, Scan("t_small"),
                            CsScan("t_big"), {0}, {1}),
                   {2}, {Count()}),
           {0}));
  ExecOptions exec;
  exec.snapshot_interval_ms = 2.0;
  auto result = MustExecute(plan, catalog_.get(), exec);
  ASSERT_GT(result.trace.snapshots.size(), 5u);

  for (BoundsEngineKind kind :
       {BoundsEngineKind::kLpBound, BoundsEngineKind::kIntersect}) {
    EstimatorOptions options = EstimatorOptions::Lqs();
    options.bounds_engine = kind;
    ProgressEstimator estimator(&plan, catalog_.get(), options);
    ProgressEstimator::Workspace workspace;
    ProgressReport report;
    estimator.EstimateInto(result.trace.final_snapshot, &workspace, &report);

    AllocationWindow window;
    for (const ProfileSnapshot& snap : result.trace.snapshots) {
      estimator.EstimateInto(snap, &workspace, &report);
    }
    estimator.EstimateInto(result.trace.final_snapshot, &workspace, &report);
    // Runtime side of the static contract (src/lqs/bounds.h): kLpBound
    // drives the ℓp-norm derivation alone, kIntersect additionally runs
    // the Appendix-A engine and the per-node interval intersection.
    // LQS_NOALLOC_PAIRED: ComputeBoundsPipelineInto
    // LQS_NOALLOC_PAIRED: ComputeLpBoundsInto
    EXPECT_EQ(window.count(), 0u)
        << "bounds engine " << BoundsEngineName(kind)
        << ": steady-state EstimateInto performed heap allocations";
  }
}

TEST_F(EstimatorAllocTest, NonIncrementalEstimateIntoAlsoAllocatesNothing) {
  // incremental=false disables the freeze short-circuits and the hoisted
  // catalog statics but must NOT reintroduce per-call allocation: the bench
  // baseline measures recomputation cost, not allocator noise.
  Plan plan = Annotated(
      HashAgg(HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0},
                       {1}),
              {2}, {Count()}));
  ExecOptions exec;
  exec.snapshot_interval_ms = 2.0;
  auto result = MustExecute(plan, catalog_.get(), exec);

  EstimatorOptions options = EstimatorOptions::Lqs();
  options.incremental = false;
  ProgressEstimator estimator(&plan, catalog_.get(), options);
  ProgressEstimator::Workspace workspace;
  ProgressReport report;
  estimator.EstimateInto(result.trace.final_snapshot, &workspace, &report);

  AllocationWindow window;
  for (const ProfileSnapshot& snap : result.trace.snapshots) {
    estimator.EstimateInto(snap, &workspace, &report);
  }
  EXPECT_EQ(window.count(), 0u);
}

TEST_F(EstimatorAllocTest, MonitorTickStaysWithinAllocationBudget) {
  // Monitor-layer audit of the same property, multi-session: after warmup
  // ticks have sized every session's workspace, a steady-state Tick() may
  // allocate only for its RETURNED statuses — the by-value vector plus the
  // four report-vector copies per session — never for estimation itself.
  // The budget below is a couple of times that envelope (thread-pool job
  // dispatch also allocates); a regressed estimation path costs upwards of
  // a dozen vectors per session per tick and blows well past it.
  Plan plan = Annotated(
      HashAgg(HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0},
                       {1}),
              {2}, {Count()}));
  ExecOptions exec;
  exec.snapshot_interval_ms = 2.0;
  auto result = MustExecute(plan, catalog_.get(), exec);

  constexpr size_t kSessions = 8;
  MonitorService monitor;
  for (size_t i = 0; i < kSessions; ++i) {
    monitor.RegisterSession("s" + std::to_string(i), &plan, catalog_.get(),
                            &result.trace, 3.0 * static_cast<double>(i));
  }
  const double horizon = monitor.HorizonMs();
  constexpr int kWarmupTicks = 4;
  constexpr int kMeasuredTicks = 80;
  const double step = horizon / (kWarmupTicks + kMeasuredTicks + 1);
  double now = 0;
  for (int i = 0; i < kWarmupTicks; ++i) {
    now += step;
    (void)monitor.Tick(now);
  }

  AllocationWindow window;
  for (int i = 0; i < kMeasuredTicks; ++i) {
    now += step;
    (void)monitor.Tick(now);
  }
  const uint64_t per_tick_budget = 8 * kSessions + 64;
  // Runtime side of the static contract (src/monitor/monitor_service.h):
  // the measured ticks run the annotated steady-state session body.
  // LQS_NOALLOC_PAIRED: MonitorService::ComputeStatus
  EXPECT_LE(window.count(),
            per_tick_budget * static_cast<uint64_t>(kMeasuredTicks))
      << "steady-state monitor ticks allocated "
      << window.count() / kMeasuredTicks << " times per tick";
}

TEST_F(EstimatorAllocTest, FreshEstimateAllocatesAsExpected) {
  // Sanity check on the instrument itself: the first EstimateInto into a
  // new workspace and report sizes every buffer, so it MUST allocate. If
  // this ever reads zero the counting overrides are not linked in and the
  // zero-allocation tests above are vacuous.
  Plan plan = Annotated(Sort(Scan("t_big"), {2}));
  auto result = MustExecute(plan, catalog_.get());
  ProgressEstimator estimator(&plan, catalog_.get(), EstimatorOptions::Lqs());
  ProgressEstimator::Workspace workspace;
  ProgressReport report;

  AllocationWindow window;
  estimator.EstimateInto(result.trace.final_snapshot, &workspace, &report);
  EXPECT_GT(window.count(), 0u);
  EXPECT_GT(report.query_progress, 0.99);
}

}  // namespace
}  // namespace testing
}  // namespace lqs
