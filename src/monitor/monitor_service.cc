#include "monitor/monitor_service.h"

#include <algorithm>
#include <chrono>  // lint:allow-wallclock latency telemetry (LatencyClockNowMs)
#include <string>
#include <utility>

namespace lqs {

namespace {

/// Monotonic timestamp in ms for latency telemetry. The one sanctioned
/// wall-clock read on the ComputeStatus path: latencies feed stats() and
/// never the session-ordered statuses, so the determinism contract on the
/// output bytes is unaffected.
double LatencyClockNowMs() {
  // lqs-verify: det-ok(latency telemetry feeds stats(), never the statuses)
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(now.time_since_epoch())
      .count();
}

/// Ticks RunToCompletion keeps issuing past the nominal horizon while remote
/// sessions still await their final snapshot over a lossy link. Once
/// exhausted, unfinished sessions are left degraded rather than looping
/// forever (they surface in FinalCheck). Local trace-backed sessions are
/// always done at the horizon and never need one.
constexpr int kMaxOvertimeTicks = 256;

}  // namespace

MonitorService::MonitorService(MonitorOptions options)
    : options_(options), pool_(options.num_threads) {}

MonitorService::~MonitorService() = default;

const ProgressEstimator* MonitorService::CachedEstimator(
    const Plan* plan, const Catalog* catalog,
    const EstimatorOptions& options) {
  const EstimatorKey key{plan, catalog, options.PackBits()};
  auto it = estimator_cache_.find(key);
  if (it == estimator_cache_.end()) {
    it = estimator_cache_
             .emplace(key, std::make_unique<ProgressEstimator>(plan, catalog,
                                                               options))
             .first;
  }
  return it->second.get();
}

int MonitorService::RegisterSession(std::string name, const Plan* plan,
                                    const Catalog* catalog,
                                    const ProfileTrace* trace,
                                    double start_offset_ms,
                                    const EstimatorOptions& estimator_options) {
  return AddSession(std::move(name), plan, catalog, trace, nullptr,
                    start_offset_ms, estimator_options);
}

int MonitorService::RegisterRemoteSession(
    std::string name, const Plan* plan, const Catalog* catalog,
    std::unique_ptr<SnapshotEndpoint> endpoint, double start_offset_ms,
    const PollingClientOptions& client_options,
    const EstimatorOptions& estimator_options) {
  return AddSession(
      std::move(name), plan, catalog, nullptr,
      std::make_unique<PollingClient>(std::move(endpoint), client_options),
      start_offset_ms, estimator_options);
}

int MonitorService::AddSession(std::string name, const Plan* plan,
                               const Catalog* catalog,
                               const ProfileTrace* trace,
                               std::unique_ptr<PollingClient> client,
                               double start_offset_ms,
                               const EstimatorOptions& estimator_options) {
  Session session;
  session.name = std::move(name);
  session.plan = plan;
  session.catalog = catalog;
  session.trace = trace;
  session.start_offset_ms = start_offset_ms;
  session.estimator = CachedEstimator(plan, catalog, estimator_options);
  session.checker =
      std::make_unique<ProgressInvariantChecker>(session.estimator);
  session.client = std::move(client);
  sessions_.push_back(std::move(session));
  {
    MutexLock lock(&stats_mu_);
    published_.sessions = sessions_.size();
    published_.estimators_cached = estimator_cache_.size();
    if (sessions_.back().client != nullptr) ++published_.remote_sessions;
  }
  return static_cast<int>(sessions_.size()) - 1;
}

double MonitorService::HorizonMs() const {
  double horizon = 0;
  for (const Session& s : sessions_) {
    const double elapsed = s.trace != nullptr
                               ? s.trace->total_elapsed_ms
                               : std::max(0.0, s.client->KnownHorizonMs());
    horizon = std::max(horizon, s.start_offset_ms + elapsed);
  }
  return horizon;
}

bool MonitorService::AllSessionsDone() const {
  for (const Session& s : sessions_) {
    if (s.last_state != SessionState::kDone) return false;
  }
  return true;
}

void MonitorService::ComputeStatus(size_t index, double now_ms,
                                   SessionStatus* out, double* latency_ms) {
  Session& session = sessions_[index];
  out->session_id = static_cast<int>(index);
  out->local_time_ms = now_ms - session.start_offset_ms;
  out->remote = session.client != nullptr;
  *latency_ms = -1;
  if (out->local_time_ms < 0) {
    out->state = SessionState::kWaiting;
    out->progress = 0;
    session.last_state = out->state;
    return;
  }
  // The snapshot source: a local session reads its trace at its own clock;
  // a remote one polls its client, and done means the final snapshot
  // crossed the link (its counters are final).
  bool done;
  if (session.client != nullptr) {
    const ClientView& view = session.client->Poll(out->local_time_ms);
    out->stale = view.stale;
    out->staleness_ms = view.staleness_ms;
    out->degraded = view.health == TransportHealth::kDegraded;
    out->consecutive_failures = view.consecutive_failures;
    done = view.query_complete;
    out->snapshot = view.snapshot;
  } else {
    done = out->local_time_ms >= session.trace->total_elapsed_ms;
    out->snapshot =
        done ? &session.trace->final_snapshot
             : session.trace->SnapshotAtOrBefore(out->local_time_ms);
  }
  out->state = done ? SessionState::kDone : SessionState::kRunning;
  session.last_state = out->state;
  if (done) {
    out->progress = 1.0;
    return;
  }
  if (out->snapshot == nullptr) {
    // Nothing to estimate from yet: the first polls were lost or the server
    // had no sample this early, or a hand-built trace has none (executor
    // traces always do). Progress holds at zero; the session is alive, not
    // wedged.
    out->progress = 0;
    return;
  }
  const double start_ms = LatencyClockNowMs();
  session.checker->EstimateCheckedInto(*out->snapshot, &session.workspace,
                                       &out->report);
  out->progress = out->report.query_progress;
  *latency_ms = LatencyClockNowMs() - start_ms;
}

std::vector<SessionStatus> MonitorService::Tick(double now_ms) {
  // The tick is timed from entry until its counters are published, so the
  // post-barrier pass over every session below counts as tick time.
  const double tick_start_ms = LatencyClockNowMs();
  std::vector<SessionStatus> statuses(sessions_.size());
  std::vector<double> latencies(sessions_.size(), -1);
  pool_.ParallelFor(sessions_.size(), [&](size_t i) {
    ComputeStatus(i, now_ms, &statuses[i], &latencies[i]);
  });
  // Per-session clients and workspaces are quiescent after the barrier (the
  // same ownership rule that lets ComputeStatus mutate them without a lock),
  // so one pass over the sessions, outside stats_mu_, re-counts their states
  // and re-sums the transport and bounds-engine totals.
  MonitorStats next;
  for (size_t i = 0; i < sessions_.size(); ++i) {
    switch (statuses[i].state) {
      case SessionState::kWaiting: ++next.waiting; break;
      case SessionState::kRunning: ++next.active; break;
      case SessionState::kDone: ++next.done; break;
    }
    if (statuses[i].degraded) ++next.degraded_sessions;
    // Only non-default bounds engines ever make the workspace's bounds
    // counters nonzero.
    const Session& s = sessions_[i];
    if (s.estimator->options().bounds_engine != BoundsEngineKind::kAppendixA) {
      ++next.lp_bounds_sessions;
    }
    next.bounds_lp_tightenings += s.workspace.stats.lp_tightenings;
    next.bounds_intersection_inversions +=
        s.workspace.stats.intersection_inversions;
    if (s.client == nullptr) continue;
    const ClientStats& cs = s.client->stats();
    next.transport_polls += cs.polls;
    next.transport_retries += cs.retries;
    next.transport_failures += cs.transport_failures;
    next.decode_errors += cs.decode_errors;
    next.snapshots_accepted += cs.accepted;
    next.duplicates_ignored += cs.duplicates_ignored;
    next.regressions_rejected += cs.regressions_rejected;
    next.stale_reports += cs.stale_polls;
    next.transport_bytes += cs.bytes_received;
    next.deltas_applied += cs.deltas_applied;
    next.delta_resyncs += cs.delta_resyncs;
    next.request_id_mismatches += cs.request_id_mismatches;
  }
  // Publishing happens under stats_mu_ only — the pool's lock is never held
  // here, so the kMonitorStats < kThreadPool rank order is trivially
  // respected. Registration counts and lifetime totals carry over.
  MutexLock lock(&stats_mu_);
  next.sessions = published_.sessions;
  next.estimators_cached = published_.estimators_cached;
  next.remote_sessions = published_.remote_sessions;
  next.ticks = published_.ticks + 1;
  next.reports_computed = published_.reports_computed;
  next.estimate_wall_ms = published_.estimate_wall_ms;
  next.max_estimate_latency_ms = published_.max_estimate_latency_ms;
  for (double latency : latencies) {
    if (latency < 0) continue;
    ++next.reports_computed;
    estimate_latencies_ms_.Add(latency);
    next.estimate_wall_ms += latency;
    next.last_tick_estimate_ms += latency;
    next.max_estimate_latency_ms =
        std::max(next.max_estimate_latency_ms, latency);
  }
  const double tick_wall_ms = LatencyClockNowMs() - tick_start_ms;
  next.wall_ms = published_.wall_ms + tick_wall_ms;
  tick_latencies_ms_.Add(tick_wall_ms);
  published_ = next;
  return statuses;
}

void MonitorService::RunToCompletion(
    const std::function<void(double, const std::vector<SessionStatus>&)>&
        render) {
  const double horizon = HorizonMs();
  const double tick = options_.tick_ms > 0
                          ? options_.tick_ms
                          : horizon / std::max(1, options_.ticks_per_horizon);
  if (tick <= 0) {
    // Degenerate horizon: every session is empty. One t=0 tick still
    // reports their kDone states; looping `t += 0` would never terminate
    // (the bug the old multi_query_monitor example had).
    if (!sessions_.empty()) {
      auto statuses = Tick(0);
      if (render) render(0, statuses);
    }
    return;
  }
  // Tick times are indexed (t = i * tick), never accumulated (t += tick):
  // accumulation compounds one rounding error per iteration, and over
  // thousands of ticks with a binary-inexact tick width the drift exceeds
  // the 1e-9 horizon slack — the final nominal tick lands past the horizon
  // and is silently skipped, leaving every session one tick short of its
  // completion report. One multiply per tick has a single rounding, so the
  // i-th tick is the same double no matter how many preceded it.
  int64_t i = 1;
  double t = tick;
  for (;; ++i) {
    t = static_cast<double>(i) * tick;
    if (t > horizon + 1e-9) break;
    auto statuses = Tick(t);
    if (render) render(t, statuses);
  }
  // Overtime: a lossy link may not have delivered some remote session's
  // final snapshot by the nominal horizon (drops, delays). Keep ticking a
  // bounded number of extra intervals; each one is another delivery
  // opportunity. Local trace-backed sessions are always done at the
  // horizon, so a monitor without remote sessions never enters this loop
  // and its output is unchanged.
  for (int extra = 0; extra < kMaxOvertimeTicks && !AllSessionsDone();
       ++extra) {
    auto statuses = Tick(t);
    if (render) render(t, statuses);
    ++i;
    t = static_cast<double>(i) * tick;
  }
}

ValidationReport MonitorService::FinalCheck() {
  ValidationReport merged;
  for (Session& session : sessions_) {
    const ProfileSnapshot* final_snapshot = nullptr;
    if (session.trace != nullptr) {
      final_snapshot = &session.trace->final_snapshot;
    } else if (session.client->complete()) {
      final_snapshot = session.client->final_snapshot();
    } else {
      // The link never delivered the final snapshot (degraded past every
      // overtime tick). The session did not wedge the service, but its
      // monitoring is incomplete — surface that as a finding.
      merged.Add("remote_session_incomplete", -1, -1,
                 session.name +
                     ": final snapshot never crossed the link "
                     "(consecutive failures: " +
                     std::to_string(session.client->view()
                                        .consecutive_failures) +
                     ")");
    }
    if (final_snapshot == nullptr) continue;
    // The session's own workspace is bound to the checker's estimator and
    // idle on the driver thread once ticking has stopped.
    session.checker->CheckFinal(*final_snapshot, &session.workspace);
    for (const ValidationIssue& issue : session.checker->report().issues()) {
      merged.Add(issue.check, issue.node_id, issue.pipeline_id,
                 session.name + ": " + issue.detail);
    }
  }
  return merged;
}

MonitorStats MonitorService::stats() const {
  MutexLock lock(&stats_mu_);
  MonitorStats stats = published_;
  stats.num_threads = pool_.num_threads();
  if (stats.wall_ms > 0) {
    stats.reports_per_sec =
        static_cast<double>(stats.reports_computed) / (stats.wall_ms / 1000.0);
  }
  if (stats.estimate_wall_ms > 0) {
    stats.estimates_per_sec = static_cast<double>(stats.reports_computed) /
                              (stats.estimate_wall_ms / 1000.0);
  }
  auto percentiles = [](const LatencyReservoir& values, double* p50,
                        double* p95) {
    if (values.empty()) return;
    *p50 = values.Quantile(0.50);
    *p95 = values.Quantile(0.95);
  };
  percentiles(estimate_latencies_ms_, &stats.p50_estimate_latency_ms,
              &stats.p95_estimate_latency_ms);
  percentiles(tick_latencies_ms_, &stats.p50_tick_latency_ms,
              &stats.p95_tick_latency_ms);
  return stats;
}

}  // namespace lqs
