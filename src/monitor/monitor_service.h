#ifndef LQS_MONITOR_MONITOR_SERVICE_H_
#define LQS_MONITOR_MONITOR_SERVICE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/invariant_checker.h"
#include "analysis/validator.h"
#include "common/deterministic.h"
#include "common/mutex.h"
#include "common/noalloc.h"
#include "common/thread_annotations.h"
#include "dmv/query_profile.h"
#include "exec/plan.h"
#include "lqs/estimator.h"
#include "monitor/thread_pool.h"
#include "remote/polling_client.h"
#include "storage/catalog.h"

namespace lqs {

/// Knobs of the multi-query monitor.
struct MonitorOptions {
  /// Worker threads computing per-session reports; <= 0 picks a hardware
  /// default. Output is identical for every value — see the determinism
  /// contract on MonitorService.
  int num_threads = 0;
  /// Ticks RunToCompletion spreads over the horizon when tick_ms is 0.
  int ticks_per_horizon = 12;
  /// Explicit tick spacing in virtual ms; 0 derives it from the horizon.
  double tick_ms = 0;
};

enum class SessionState {
  kWaiting,  ///< shared timeline has not reached the session's arrival yet
  kRunning,
  kDone,
};

/// What the monitor knows about one session at one tick — the row a
/// dashboard renders under that query's window (§2.1).
struct SessionStatus {
  int session_id = -1;
  SessionState state = SessionState::kWaiting;
  /// Tick time on the session's own clock (now - start offset; negative
  /// while waiting).
  double local_time_ms = 0;
  /// The DMV poll the estimate was computed from (null while waiting, the
  /// final snapshot once done).
  const ProfileSnapshot* snapshot = nullptr;
  /// Full estimator output for `snapshot`, held by the session: null unless
  /// the status is kRunning with a snapshot, and valid until the next tick.
  const ProgressReport* report = nullptr;
  /// [0, 1]; 0 while waiting, 1 once done, report->query_progress otherwise.
  double progress = 0;

  // --- Transport condition (endpoint-backed sessions only) ---
  /// True when the session polls a SnapshotEndpoint instead of reading a
  /// local trace. The fields below stay at their defaults for local ones.
  bool remote = false;
  /// This tick's estimate came from a held snapshot (no fresh data crossed
  /// the link this tick).
  bool stale = false;
  /// Age of the snapshot behind the estimate: tick time minus the accepted
  /// snapshot's own timestamp.
  double staleness_ms = 0;
  /// The session exhausted its consecutive-failure budget; it keeps being
  /// polled (degraded is recoverable) but its estimate may be arbitrarily
  /// old.
  bool degraded = false;
  int consecutive_failures = 0;
};

/// Aggregate counters across the life of one MonitorService. Apart from
/// num_threads, every field is a pure function of the registered sessions
/// and the tick times, and the counters of two partitions merge by
/// addition. The service keeps no timings; perfbench times ticks and
/// layers from outside.
struct MonitorStats {
  size_t sessions = 0;
  /// Session states as of the most recent tick.
  size_t active = 0;
  size_t waiting = 0;
  size_t done = 0;
  uint64_t ticks = 0;
  /// Estimates that ran. A running session with a snapshot estimates only
  /// when the snapshot differs from the one it estimated last; a repeat
  /// serves the held report and is not counted.
  uint64_t reports_computed = 0;
  /// Distinct (plan, catalog, options) estimators built — the cache keeps
  /// this below the session count when sessions share a plan.
  size_t estimators_cached = 0;
  int num_threads = 0;

  // --- Remote transport aggregates (sum over endpoint-backed sessions) ---
  size_t remote_sessions = 0;
  /// Sessions currently in the degraded state (as of the last tick).
  size_t degraded_sessions = 0;
  uint64_t transport_polls = 0;
  uint64_t transport_retries = 0;
  /// Attempts lost to timeouts/drops at the transport level.
  uint64_t transport_failures = 0;
  /// Frames that arrived but failed framing/CRC/decode.
  uint64_t decode_errors = 0;
  uint64_t snapshots_accepted = 0;
  uint64_t duplicates_ignored = 0;
  uint64_t regressions_rejected = 0;
  /// Ticks on which a session served a held snapshot.
  uint64_t stale_reports = 0;
  /// Wire bytes received across all remote sessions — the number the delta
  /// protocol drives down (remote_test's fleet case holds delta under a
  /// third of full).
  uint64_t transport_bytes = 0;
  /// Snapshot deltas applied against acked bases, resyncs that fell back
  /// to a keyframe, and responses answering a different request_id than
  /// the one in flight (late/misrouted deliveries).
  uint64_t deltas_applied = 0;
  uint64_t delta_resyncs = 0;
  uint64_t request_id_mismatches = 0;

  bool operator==(const MonitorStats&) const = default;
};

/// Owns many concurrently-monitored query sessions and replays their DMV
/// traces against one shared virtual timeline — the reproduction of the LQS
/// front-end tracking "multiple, concurrently executing queries, each of
/// them being given their own dedicated window" (§2.1).
///
/// Each registered session pairs an executed query's trace with a start
/// offset on the shared timeline. Tick(t) computes a ProgressReport for
/// every session active at time t on a worker pool, one checked estimator
/// call per session whose snapshot changed since its last estimate (each
/// session owns a ProgressInvariantChecker, the always-on <5% overhead
/// configuration of DESIGN.md §7); waiting and done sessions are filled
/// from a packed per-session slot (DESIGN.md §8). Estimators are
/// cached per distinct (plan, catalog, options) and shared across sessions —
/// safely, because estimators are const after construction and every
/// session drives EstimateInto through its own private Workspace — while
/// the per-session ProgressInvariantChecker state stays private to its
/// session.
///
/// Determinism contract: results depend only on the registered sessions and
/// the tick times, never on options.num_threads or scheduling. Work is
/// computed in parallel into per-session status entries and returned in
/// session registration order, so rendering the returned statuses produces
/// byte-identical output for 1 thread and N threads (remote_test's fleet
/// case verifies this on every run).
///
/// Threading: register and tick from one driver thread (sessions_ and the
/// estimator cache are driver-only by design). The aggregate counters are
/// the exception — they live behind stats_mu_
/// (lock_rank::kMonitorStats), so stats() may be called from any thread
/// while the driver ticks, the way a dashboard thread samples a live
/// monitor. The discipline is compile-time checked via the annotations
/// below (DESIGN.md §9).
class MonitorService {
 public:
  explicit MonitorService(MonitorOptions options = {});
  ~MonitorService();

  MonitorService(const MonitorService&) = delete;
  MonitorService& operator=(const MonitorService&) = delete;

  /// Registers one monitored session and returns its id (dense, starting
  /// at 0). `plan`, `catalog` and `trace` must outlive the service.
  int RegisterSession(std::string name, const Plan* plan,
                      const Catalog* catalog, const ProfileTrace* trace,
                      double start_offset_ms,
                      const EstimatorOptions& estimator_options =
                          EstimatorOptions::Lqs());

  /// Registers a session whose snapshots arrive through `endpoint` — over
  /// the wire format, with the PollingClient's timeout/retry/backoff and
  /// duplicate/regression filtering between the link and the estimator
  /// (DESIGN.md §10). `plan` and `catalog` must outlive the service; the
  /// endpoint is owned by the session. The trace-backed RegisterSession
  /// above stays the in-process fast path: its sessions read the trace
  /// directly and are byte-identical to pre-transport behaviour.
  int RegisterRemoteSession(std::string name, const Plan* plan,
                            const Catalog* catalog,
                            std::unique_ptr<SnapshotEndpoint> endpoint,
                            double start_offset_ms,
                            const PollingClientOptions& client_options = {},
                            const EstimatorOptions& estimator_options =
                                EstimatorOptions::Lqs());

  /// Transport counters of one endpoint-backed session (e.g. to inspect the
  /// fault mix a test injected). Must be a remote session id. Driver thread
  /// only — the client is session state, not behind stats_mu_.
  const ClientStats& session_client_stats(int session_id) const {
    return sessions_[static_cast<size_t>(session_id)].client->stats();
  }

  size_t session_count() const { return sessions_.size(); }
  const std::string& session_name(int session_id) const {
    return sessions_[static_cast<size_t>(session_id)].name;
  }

  /// Virtual time at which the last session finishes (0 when no session
  /// does any work). Remote sessions contribute their endpoint's advertised
  /// horizon; an endpoint that does not know one contributes nothing (its
  /// session completes during RunToCompletion's overtime ticks).
  double HorizonMs() const;

  /// True when every session has reached kDone as of the last tick.
  bool AllSessionsDone() const;

  /// Advances the shared timeline to `now_ms` and writes every session's
  /// status into `*statuses`, resized to the session count, indexed by
  /// session id, every element overwritten. Call with non-decreasing times
  /// — the invariant checkers require in-order replay. A reused vector
  /// makes a steady-state tick of local sessions allocation-free.
  void TickInto(double now_ms, std::vector<SessionStatus>* statuses)
      LQS_EXCLUDES(stats_mu_);

  /// TickInto into a fresh vector.
  std::vector<SessionStatus> Tick(double now_ms) LQS_EXCLUDES(stats_mu_);

  /// Runs the whole timeline: ticks from the first tick mark through the
  /// horizon, invoking `render` (may be empty) after each tick. A
  /// degenerate horizon of zero virtual ms — every session empty — renders
  /// a single t=0 tick instead of looping forever on a zero tick width.
  void RunToCompletion(
      const std::function<void(double now_ms,
                               const std::vector<SessionStatus>&)>& render);

  /// End-of-timeline invariant verdict: every violation accumulated during
  /// ticking plus each session's CheckFinal against its final snapshot, and
  /// a remote_session_incomplete finding for each remote session whose
  /// final snapshot never arrived.
  ValidationReport FinalCheck();

  /// Aggregate counters as of the last tick or registration. Safe to call
  /// from any thread concurrently with the driver's Tick().
  MonitorStats stats() const LQS_EXCLUDES(stats_mu_);

 private:
  /// What a tick reads first for each session, packed apart from Session:
  /// a waiting or done session is filled from its slot alone, without
  /// touching Session or polling its client.
  struct Slot {
    double start_offset_ms;
    bool remote;
    /// Null until the tick the session turns done; then the final snapshot
    /// every later tick shows.
    const ProfileSnapshot* final_snapshot;
  };

  struct Session {
    std::string name;
    /// Local sessions read this trace directly; null for remote sessions.
    const ProfileTrace* trace;
    /// Holds the session's cached estimator.
    std::unique_ptr<ProgressInvariantChecker> checker;
    /// Remote sessions poll through this client; null for local sessions.
    /// Like `checker`, it is per-session mutable state: touched by exactly
    /// one pool worker per tick, ticks ordered by the ParallelFor barrier.
    std::unique_ptr<PollingClient> client;
    /// The report running statuses point at: made on the first estimate,
    /// released on the tick the session turns done.
    std::unique_ptr<ProgressReport> report;
    /// The snapshot `report` was estimated from — its address and the bits
    /// of its time_ms. A tick that shows the same snapshot serves `report`.
    const ProfileSnapshot* estimated = nullptr;
    uint64_t estimated_time_bits = 0;
    /// Estimates run over the session's life: its share of
    /// MonitorStats::reports_computed.
    uint64_t estimates = 0;
    /// Estimation scratch reused across ticks, bound to the checker's
    /// estimator on the first estimate. Estimators are shared across
    /// sessions via the cache, but each session owns its workspace —
    /// exactly the one-workspace-per-estimator-per-thread contract, because
    /// a session is touched by exactly one pool worker per tick and ticks
    /// are ordered by the ParallelFor barrier (the same ownership rule as
    /// `checker`/`client`).
    ProgressEstimator::Workspace workspace;
  };

  /// Cache key: estimator identity is the plan + catalog + the full option
  /// set, ordered by EstimatorOptions' field-by-field comparison.
  using EstimatorKey =
      std::tuple<const Plan*, const Catalog*, EstimatorOptions>;
  const ProgressEstimator* CachedEstimator(const Plan* plan,
                                           const Catalog* catalog,
                                           const EstimatorOptions& options);

  /// Registration body shared by the local and remote entry points: exactly
  /// one of `trace` and `client` is non-null. Binds the cached estimator and
  /// the invariant checker, and publishes the registration counts.
  int AddSession(std::string name, const Plan* plan, const Catalog* catalog,
                 const ProfileTrace* trace,
                 std::unique_ptr<PollingClient> client, double start_offset_ms,
                 const EstimatorOptions& estimator_options);

  /// Adds the session's lifetime totals to `*into`: its estimates and, for
  /// a remote session, its client's transport counters.
  static void AddLifetimeTotals(const Session& session, MonitorStats* into);

  /// Computes one session's status at `now_ms` (runs on a pool worker).
  /// A waiting or done session is filled from its slot. Otherwise local
  /// sessions read their trace, remote ones poll their client; both then
  /// share one done / running / no-snapshot / estimate tail, and a repeat
  /// of the last estimated snapshot serves the held report.
  /// LQS_NOALLOC: this is the steady-state body of TickInto() — one call per
  /// session per tick, fanned out across the pool. Its deliberate
  /// allocation boundaries (the report made on a session's first estimate,
  /// workspace sizing, transport decode, violation reporting) are
  /// LQS_ALLOC_OK-annotated at the line or the definition; everything else
  /// must stay heap-free (tests/estimator_alloc_test.cc holds a
  /// steady-state TickInto of local sessions at zero allocations).
  /// LQS_DETERMINISTIC: the session-ordered output (`*out`) depends only on
  /// the session's registered inputs and `now_ms`, never on threads or
  /// wall-clock time.
  LQS_NOALLOC LQS_DETERMINISTIC void ComputeStatus(size_t index, double now_ms,
                                                   SessionStatus* out);

  const MonitorOptions options_;
  /// Internally synchronized (owns its own kThreadPool lock); fanned out to
  /// by the driver, joined at the barrier before any state below is read.
  ThreadPool pool_;  // lqs-verify: guard-ok(internally synchronized pool)
  /// Driver-thread-only by the documented threading contract: registration
  /// and ticks happen on one thread; between fan-out and barrier pool
  /// workers read the slots and touch disjoint sessions, and only the
  /// driver writes a slot, after the barrier. stats() never reads these —
  /// it reads `published_` below.
  // lqs-verify: guard-ok(driver-owned; stats() reads published_)
  std::vector<Slot> slots_;  // same indices as sessions_
  // lqs-verify: guard-ok(driver-owned; stats() reads published_)
  std::vector<Session> sessions_;
  /// Lifetime totals of the sessions already done, each added once on the
  /// tick it turned done, so a tick re-sums only its running sessions.
  // lqs-verify: guard-ok(driver-owned; stats() reads published_)
  MonitorStats retired_;
  // lqs-verify: guard-ok(driver-owned; stats() reads published_)
  std::map<EstimatorKey, std::unique_ptr<ProgressEstimator>> estimator_cache_;

  /// Guards the counters behind stats(). The driver updates them at
  /// registration and once per tick after the ParallelFor barrier (never
  /// while holding the pool's lock — kMonitorStats < kThreadPool keeps even
  /// that nesting legal); any thread may read them through stats().
  mutable Mutex stats_mu_{lock_rank::kMonitorStats,
                          "MonitorService::stats_mu_"};
  /// The counters stats() returns, written by AddSession and Tick(). Copies
  /// of driver-owned sizes and totals live here, not in sessions_ or the
  /// cache, so stats() never races a concurrent RegisterSession or Tick()
  /// (sessions_.push_back and map::emplace are not readable mid-mutation
  /// from another thread). stats() fills in the thread count.
  MonitorStats published_ LQS_GUARDED_BY(stats_mu_);
};

}  // namespace lqs

#endif  // LQS_MONITOR_MONITOR_SERVICE_H_
