#ifndef PERFBENCH_MONITOR_BENCH_H_
#define PERFBENCH_MONITOR_BENCH_H_

// The monitor benchmark's workloads and its closed timing loop. Everything
// here drives the monitor through its public entry points only: the
// workload generators, AnnotateWorkload, ExecuteQuery, a plain
// MonitorService with its default estimator options, the loopback and
// fault-injecting endpoints, the wire codec, ProgressEstimator::EstimateInto
// and ProgressInvariantChecker::CheckReport.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/invariant_checker.h"
#include "common/statusor.h"
#include "dmv/query_profile.h"
#include "lqs/estimator.h"
#include "monitor/monitor_service.h"
#include "remote/endpoint.h"
#include "workload/workload.h"

namespace perfbench {

/// The monitor ticks at the executor's DMV snapshot interval; 5 virtual ms
/// gives the paper's observation density at this repository's scale.
inline constexpr double kTickMs = 5.0;
/// Optimizer-error amplification, the same one the repository's figure
/// benches use to make cardinality estimates err as in §3.3.
inline constexpr double kSelectivityError = 1.2;

/// TPC-H and TPC-DS scale of every workload.
inline constexpr double kScale = 0.2;
/// Workloads replay the executed queries shorter than this (virtual ms);
/// the fleets only those at least kFleetMinQueryMs long. At kScale two
/// queries run about 6 s and are left out; of the rest, every query but
/// kSeedDependentQuery runs under 0.5 s for every seed, and the band
/// [250, 550) holds the same seven queries for every seed.
inline constexpr double kMaxQueryMs = 550;
inline constexpr double kFleetMinQueryMs = 250;
/// The one query whose run time the seed moves across the bands above (from
/// 3 ms to 1.9 s at kScale). Every workload leaves it out, so that the same
/// queries are replayed for every seed and only their data and arrivals vary.
inline constexpr std::string_view kSeedDependentQuery = "ds_q55";
/// Share of fleet_churn's sessions running on a tick once arrivals are under
/// way; the rest wait or are done.
inline constexpr double kChurnRunningShare = 1.0 / 6;
/// Sessions replay_local keeps running on a typical tick.
inline constexpr double kReplayRunning = 1024;
/// Monitor worker threads, the caller's included, on every workload. With
/// one, Tick() runs wholly on the driver thread, so that thread's CPU time
/// is the tick's whole cost (see BusyNs). On a shared 4-core machine, 4
/// workers contended with outside load for every core at every tick
/// barrier: across seeds fleet_churn's wall-clock reports_per_s spread 20%
/// (quartiles over median) with 4 workers and 7% with 2.
inline constexpr int kWorkers = 1;
/// The worker count of the replay that must reproduce the statuses tick for
/// tick.
inline constexpr int kOtherWorkers = 2;

enum class WorkloadKind { kFleetSteady, kFleetChurn, kReplayLocal };

lqs::StatusOr<WorkloadKind> ParseWorkload(std::string_view name);
const char* WorkloadName(WorkloadKind kind);

/// One executed query: its plan, its catalog and the DMV trace the monitor
/// replays, plus the Error_count denominator Σ N_i^true.
struct ExecutedQuery {
  const lqs::WorkloadQuery* query = nullptr;
  const lqs::Catalog* catalog = nullptr;
  lqs::ProfileTrace trace;
  double final_rows = 0;
};

/// The generated, annotated and executed queries of one workload, with the
/// CPU time of each of the three set-up steps.
struct Corpus {
  std::vector<lqs::Workload> workloads;
  std::vector<ExecutedQuery> queries;
  double generate_s = 0;
  double annotate_s = 0;
  double execute_s = 0;
};

/// The skewed TPC-H and the TPC-DS workload of §5 at `scale`, every
/// generator seeded from `seed`. The REAL-1/2/3 stand-ins are left out:
/// their generators draw new plan shapes per seed, which moves every figure
/// by 12-33% between seeds.
lqs::StatusOr<Corpus> BuildCorpus(uint64_t seed, double scale = kScale);

/// Which query a session replays and when it arrives on the shared timeline.
struct SessionSpec {
  size_t query = 0;
  double offset_ms = 0;
};

/// Everything a pass needs besides the corpus: the sessions, how they reach
/// the monitor, and the worker count. Built from the seed alone.
struct FleetPlan {
  uint64_t seed = 1;
  int workers = kWorkers;
  bool remote = false;
  bool faults = false;
  std::vector<SessionSpec> sessions;
};

/// `sessions` = 0 picks the workload's default (10,000 for the fleets, for
/// replay_local enough copies of every query to keep kReplayRunning
/// sessions running); `workers` = 0 picks kWorkers.
FleetPlan PlanFleet(WorkloadKind kind, const Corpus& corpus, uint64_t seed,
                    size_t sessions = 0, int workers = 0);

/// Timing decorator around the server end of a session: times each inner
/// Poll and keeps a copy of every frame it served since the last drain, so
/// the traced run can repeat the client's decode/apply beside the tick.
/// Like every endpoint it belongs to one session and is touched by one pool
/// worker per tick; the driver reads it only between ticks.
class TimingEndpoint : public lqs::SnapshotEndpoint {
 public:
  TimingEndpoint(std::unique_ptr<lqs::SnapshotEndpoint> inner,
                 const lqs::ProfileTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  lqs::PollResult Poll(const lqs::PollRequest& request) override;
  double KnownHorizonMs() const override { return inner_->KnownHorizonMs(); }

  const lqs::ProfileTrace& trace() const { return *trace_; }
  /// Frames served since the last ClearFrames().
  size_t frame_count() const { return frame_count_; }
  const std::string& frame(size_t i) const { return frames_[i]; }
  void ClearFrames() { frame_count_ = 0; }
  uint64_t busy_ns() const { return busy_ns_; }
  uint64_t polls() const { return polls_; }

 private:
  std::unique_ptr<lqs::SnapshotEndpoint> inner_;
  const lqs::ProfileTrace* trace_;
  std::vector<std::string> frames_;  // reused buffers; first frame_count_ live
  size_t frame_count_ = 0;
  uint64_t busy_ns_ = 0;
  uint64_t polls_ = 0;
};

/// A registered monitor, ready for its first tick.
struct Fleet {
  std::unique_ptr<lqs::MonitorService> monitor;
  /// Traced fleets of remote sessions only: the timing decorator of each
  /// session, owned by the session's polling client.
  std::vector<TimingEndpoint*> taps;
  double register_s = 0;
};

Fleet RegisterFleet(const Corpus& corpus, const FleetPlan& plan, int workers,
                    bool tap);

/// Per-layer figures of a traced pass. Child layers are timed beside the
/// tick on the tick's own inputs, except the server poll, which the timing
/// decorator measures inside it.
struct LayerTotals {
  uint64_t reports = 0;
  double tick_busy_ns = 0;
  double server_poll_ns = 0;
  uint64_t server_polls = 0;
  uint64_t frames = 0;
  uint64_t frame_bytes = 0;
  uint64_t snapshot_frames = 0;  ///< frames carrying a full snapshot or delta
  uint64_t delta_frames = 0;
  double client_apply_ns = 0;
  double crc_ns = 0;
  uint64_t crc_bytes = 0;
  double estimate_ns = 0;
  std::vector<double> estimate_samples_ns;
  double check_ns = 0;
  double lookup_ns = 0;
  uint64_t lookups = 0;
  /// Beside-the-tick repeats that did not reproduce the tick's result: an
  /// estimate whose progress differs from the monitor's for the same
  /// snapshot, or a served frame that fails to decode or apply (must be 0).
  uint64_t beside_failures = 0;
};

/// One span of the in-memory trace, written out when the run ends.
struct Span {
  std::string name;
  double start_ms = 0;  ///< since process start, steady clock
  double end_ms = 0;
  int parent = -1;      ///< index of the causing span, -1 for roots
  uint64_t count = 0;   ///< work items inside the span
};

/// Repeats the tick's hidden calls beside it for a traced pass: a private
/// estimator + checker per session, the trace lookup for local sessions,
/// and CRC/decode/apply over the frames the decorators saw. Local sessions
/// get a tracer-owned timed loopback polled at the session's clock, so the
/// wire figures price the same reports on replay_local too (the monitor
/// itself moves no bytes there; those figures stay out of the tick's
/// accounting).
class Tracer {
 public:
  Tracer(const Corpus& corpus, const FleetPlan& plan, std::vector<Span>* spans);

  /// Beside-tick work for the statuses one Tick just returned.
  void AfterTick(const Fleet& fleet, double tick_ns,
                 const std::vector<lqs::SessionStatus>& statuses,
                 int tick_span);
  /// Folds the decorators' in-tick server time into the totals.
  void Finish(const Fleet& fleet);

  const LayerTotals& totals() const { return totals_; }

 private:
  void DrainFrames(const std::vector<TimingEndpoint*>& taps, int tick_span);

  const Corpus& corpus_;
  const FleetPlan& plan_;
  std::vector<Span>* spans_;
  std::vector<std::unique_ptr<lqs::ProgressEstimator>> estimators_;
  std::vector<lqs::ProgressEstimator::Workspace> workspaces_;
  std::vector<lqs::ProgressReport> reports_;
  std::vector<std::unique_ptr<lqs::ProgressInvariantChecker>> checkers_;
  /// Local sessions only: the priced loopback of each session.
  std::vector<std::unique_ptr<TimingEndpoint>> local_taps_;
  std::vector<TimingEndpoint*> local_tap_ptrs_;
  /// Time of the snapshot each local session's priced client holds; -1
  /// before its first poll.
  std::vector<double> local_acks_;
  /// Folds results of the beside-tick calls so none can be optimized away.
  uintptr_t sink_ = 0;
  std::vector<size_t> live_;  // scratch: indexes with a report this tick
  LayerTotals totals_;
};

/// What one pass over the whole timeline produced.
struct PassResult {
  std::vector<double> tick_ms;  ///< CPU time (BusyMs) of each Tick() call
  uint64_t reports = 0;         ///< running statuses with an estimate
  uint64_t stale_reports = 0;
  uint64_t visits = 0;          ///< statuses returned, all states
  uint64_t idle_visits = 0;     ///< waiting + done statuses
  std::vector<double> staleness_ms;
  double error_time = 0;
  double error_count = 0;
  size_t sessions = 0;
  size_t failed_sessions = 0;   ///< not done, or flagged by FinalCheck
  std::string first_issue;
  uint64_t digest = 0;          ///< every tick's states and progress bits
  std::vector<uint64_t> tick_digests;  ///< the digest after each tick
  double virtual_ms = 0;        ///< last tick time
  uint64_t allocs = 0;          ///< operator new calls inside Tick()
  lqs::MonitorStats stats;      ///< counters only; never its timings
};

/// Ticks `fleet` back to back at kTickMs through the horizon, then for at
/// most 256 overtime ticks while a remote session still awaits its final
/// snapshot, timing each Tick() call; `max_ticks` cuts the pass short (for
/// the worker-count determinism prefix). With a tracer, the hidden calls are
/// repeated beside every tick.
PassResult RunPass(const Corpus& corpus, const FleetPlan& plan, Fleet* fleet,
                   Tracer* tracer = nullptr, size_t max_ticks = SIZE_MAX,
                   std::vector<Span>* spans = nullptr);

/// Running §5 error of one session against its trace: one observation per
/// report, |progress − time fraction| and |progress − Σ K_i / Σ N_i^true|
/// at the snapshot the report was computed from (EvaluateQuery's terms).
struct ErrorAccumulator {
  double time_sum = 0;
  double count_sum = 0;
  uint64_t n = 0;

  void Add(const ExecutedQuery& query, const lqs::ProfileSnapshot& shown,
           double progress);
  double error_time() const { return n > 0 ? time_sum / n : 0; }
  double error_count() const { return n > 0 ? count_sum / n : 0; }
};

/// Operator-new calls counted by the benchmark binary's allocation hook
/// (alloc_hook.cc calls CountAllocation) while counting is on. Tests link
/// no hook, so the count stays 0 there.
void CountAllocation();
uint64_t AllocationCount();
void SetAllocationCounting(bool on);

/// Milliseconds on the steady clock since an arbitrary fixed origin: span
/// timestamps and the run's time budget.
double NowMs();

/// CPU time of the calling thread, for every busy time the benchmark
/// reports (ticks, set-up, layers). A busy thread's CPU time is its wall
/// time, less the time it was not running: on a virtual machine that
/// includes the time the host ran something else on the virtual CPU
/// (steal), which moved wall-clock figures by up to 2x between runs.
int64_t BusyNs();
double BusyMs();

}  // namespace perfbench

#endif  // PERFBENCH_MONITOR_BENCH_H_
