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

const EnsembleEstimator* MonitorService::CachedEnsemble(
    const Plan* plan, const Catalog* catalog,
    const EstimatorOptions& options) {
  const EstimatorKey key{plan, catalog, options.PackBits()};
  auto it = ensemble_cache_.find(key);
  if (it == ensemble_cache_.end()) {
    EnsembleOptions ensemble_options;  // default candidate pool
    ensemble_options.incremental = options.incremental;
    // Per-candidate latency telemetry through the monitor's sanctioned
    // clock; it feeds Workspace::Stats (aggregated post-barrier into
    // stats()), never the reports.
    ensemble_options.latency_clock_ms = &LatencyClockNowMs;
    it = ensemble_cache_
             .emplace(key, std::make_unique<EnsembleEstimator>(
                               plan, catalog, std::move(ensemble_options)))
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
  if (estimator_options.ensemble) {
    // Ensemble sessions estimate through the cached EnsembleEstimator and
    // carry no invariant checker (see the Session field docs).
    session.estimator = nullptr;
    session.ensemble = CachedEnsemble(plan, catalog, estimator_options);
  } else {
    session.estimator = CachedEstimator(plan, catalog, estimator_options);
    if (options_.check_invariants) {
      session.checker = std::make_unique<ProgressInvariantChecker>(
          session.estimator, options_.checker_options);
    }
  }
  session.client = std::move(client);
  sessions_.push_back(std::move(session));
  {
    MutexLock lock(&stats_mu_);
    sessions_registered_ = sessions_.size();
    estimators_cached_ = estimator_cache_.size();
    ensembles_cached_ = ensemble_cache_.size();
    if (sessions_.back().ensemble != nullptr) ++ensemble_sessions_;
    if (sessions_.back().client != nullptr) ++remote_sessions_;
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
  if (session.ensemble != nullptr) {
    // Ensemble arm: every candidate estimates into the session-owned
    // report buffer; the selected candidate's report plus the winner/band
    // view land in the status.
    session.ensemble->EstimateInto(*out->snapshot, &session.ensemble_workspace,
                                   &session.ensemble_report);
    const EnsembleReport& er = session.ensemble_report;
    out->ensemble = true;
    out->ensemble_winner = er.winner;
    out->ensemble_winner_name = er.winner_name;
    out->band_lo = er.band_lo;
    out->band_hi = er.band_hi;
    out->report = er.selected;
    out->progress = er.query_progress;
  } else if (session.checker != nullptr) {
    session.checker->EstimateCheckedInto(*out->snapshot, &session.workspace,
                                         &out->report);
    out->progress = out->report.query_progress;
  } else {
    session.estimator->EstimateInto(*out->snapshot, &session.workspace,
                                    &out->report);
    out->progress = out->report.query_progress;
  }
  *latency_ms = LatencyClockNowMs() - start_ms;
}

std::vector<SessionStatus> MonitorService::Tick(double now_ms) {
  // The tick is timed from entry until its counters are published, so the
  // post-barrier loops over every session below count as tick time.
  const double tick_start_ms = LatencyClockNowMs();
  std::vector<SessionStatus> statuses(sessions_.size());
  std::vector<double> latencies(sessions_.size(), -1);
  pool_.ParallelFor(sessions_.size(), [&](size_t i) {
    ComputeStatus(i, now_ms, &statuses[i], &latencies[i]);
  });
  // Transport aggregation runs on the driver after the barrier: per-session
  // clients are quiescent here (the same ownership rule that lets
  // ComputeStatus mutate them without a lock).
  size_t degraded = 0;
  ClientStats transport;
  for (const SessionStatus& s : statuses) {
    if (s.degraded) ++degraded;
  }
  for (const Session& s : sessions_) {
    if (s.client == nullptr) continue;
    const ClientStats& cs = s.client->stats();
    transport.polls += cs.polls;
    transport.attempts += cs.attempts;
    transport.retries += cs.retries;
    transport.transport_failures += cs.transport_failures;
    transport.decode_errors += cs.decode_errors;
    transport.accepted += cs.accepted;
    transport.duplicates_ignored += cs.duplicates_ignored;
    transport.regressions_rejected += cs.regressions_rejected;
    transport.failed_polls += cs.failed_polls;
    transport.stale_polls += cs.stale_polls;
    transport.bytes_received += cs.bytes_received;
    transport.deltas_applied += cs.deltas_applied;
    transport.delta_resyncs += cs.delta_resyncs;
    transport.request_id_mismatches += cs.request_id_mismatches;
  }
  // Bounds-engine aggregation: sum the per-session estimator workspace
  // counters (only non-default engines ever make them nonzero). Same
  // post-barrier quiescence rule as the transport loop above.
  size_t lp_sessions = 0;
  uint64_t lp_tightenings = 0;
  uint64_t lp_inversions = 0;
  for (const Session& s : sessions_) {
    if (s.estimator == nullptr) continue;
    if (s.estimator->options().bounds_engine != BoundsEngineKind::kAppendixA) {
      ++lp_sessions;
    }
    lp_tightenings += s.workspace.stats.lp_tightenings;
    lp_inversions += s.workspace.stats.intersection_inversions;
  }
  // Ensemble aggregation follows the same post-barrier quiescence rule:
  // per-session ensemble workspaces are only touched by their one pool
  // worker between fan-out and barrier.
  uint64_t ens_candidate_estimates = 0;
  uint64_t ens_switches = 0;
  std::vector<std::string> ens_names;
  std::vector<double> ens_latency;
  std::vector<uint64_t> ens_selected;
  for (const Session& s : sessions_) {
    if (s.ensemble == nullptr) continue;
    if (ens_names.empty()) {
      const int n = s.ensemble->candidate_count();
      ens_names.reserve(static_cast<size_t>(n));
      for (int c = 0; c < n; ++c) {
        ens_names.push_back(s.ensemble->candidate(c).name);
      }
      ens_latency.assign(ens_names.size(), 0.0);
      ens_selected.assign(ens_names.size(), 0);
    }
    const EnsembleEstimator::Workspace::Stats& es = s.ensemble_workspace.stats;
    ens_candidate_estimates += es.candidate_estimates;
    ens_switches += es.switches;
    // Workspace stats vectors are empty until the session's first estimate.
    for (size_t c = 0;
         c < es.candidate_latency_ms.size() && c < ens_latency.size(); ++c) {
      ens_latency[c] += es.candidate_latency_ms[c];
    }
    for (size_t c = 0; c < es.selected_ticks.size() && c < ens_selected.size();
         ++c) {
      ens_selected[c] += es.selected_ticks[c];
    }
  }
  // Counter updates happen after the ParallelFor barrier, under stats_mu_
  // only — the pool's lock is never held here, so the kMonitorStats <
  // kThreadPool rank order is trivially respected.
  MutexLock lock(&stats_mu_);
  last_degraded_ = degraded;
  transport_totals_ = transport;
  ensemble_candidate_estimates_ = ens_candidate_estimates;
  ensemble_switches_ = ens_switches;
  ensemble_candidate_names_ = std::move(ens_names);
  ensemble_candidate_latency_ms_ = std::move(ens_latency);
  ensemble_selected_ticks_ = std::move(ens_selected);
  lp_bounds_sessions_ = lp_sessions;
  bounds_lp_tightenings_ = lp_tightenings;
  bounds_intersection_inversions_ = lp_inversions;
  ++ticks_;
  last_active_ = last_waiting_ = last_done_ = 0;
  for (const SessionStatus& s : statuses) {
    switch (s.state) {
      case SessionState::kWaiting: ++last_waiting_; break;
      case SessionState::kRunning: ++last_active_; break;
      case SessionState::kDone: ++last_done_; break;
    }
  }
  last_tick_estimate_ms_ = 0;
  for (double latency : latencies) {
    if (latency >= 0) {
      ++reports_computed_;
      estimate_latencies_ms_.Add(latency);
      estimate_wall_ms_ += latency;
      last_tick_estimate_ms_ += latency;
      max_estimate_latency_ms_ = std::max(max_estimate_latency_ms_, latency);
    }
  }
  const double tick_wall_ms = LatencyClockNowMs() - tick_start_ms;
  wall_ms_ += tick_wall_ms;
  tick_latencies_ms_.Add(tick_wall_ms);
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
  for (int extra = 0;
       extra < options_.max_overtime_ticks && !AllSessionsDone(); ++extra) {
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
    if (session.checker == nullptr || final_snapshot == nullptr) continue;
    session.checker->CheckFinal(*final_snapshot);
    for (const ValidationIssue& issue : session.checker->report().issues()) {
      merged.Add(issue.check, issue.node_id, issue.pipeline_id,
                 session.name + ": " + issue.detail);
    }
  }
  return merged;
}

MonitorStats MonitorService::stats() const {
  MutexLock lock(&stats_mu_);
  MonitorStats stats;
  stats.sessions = sessions_registered_;
  stats.active = last_active_;
  stats.waiting = last_waiting_;
  stats.done = last_done_;
  stats.ticks = ticks_;
  stats.reports_computed = reports_computed_;
  stats.estimators_cached = estimators_cached_;
  stats.num_threads = pool_.num_threads();
  stats.wall_ms = wall_ms_;
  if (wall_ms_ > 0) {
    stats.reports_per_sec =
        static_cast<double>(reports_computed_) / (wall_ms_ / 1000.0);
  }
  auto percentiles = [](const LatencyReservoir& values, double* p50,
                        double* p95) {
    if (values.empty()) return;
    *p50 = values.Quantile(0.50);
    *p95 = values.Quantile(0.95);
  };
  stats.estimate_wall_ms = estimate_wall_ms_;
  stats.max_estimate_latency_ms = max_estimate_latency_ms_;
  stats.last_tick_estimate_ms = last_tick_estimate_ms_;
  if (estimate_wall_ms_ > 0) {
    stats.estimates_per_sec = static_cast<double>(reports_computed_) /
                              (estimate_wall_ms_ / 1000.0);
  }
  percentiles(estimate_latencies_ms_, &stats.p50_estimate_latency_ms,
              &stats.p95_estimate_latency_ms);
  percentiles(tick_latencies_ms_, &stats.p50_tick_latency_ms,
              &stats.p95_tick_latency_ms);
  stats.remote_sessions = remote_sessions_;
  stats.degraded_sessions = last_degraded_;
  stats.transport_polls = transport_totals_.polls;
  stats.transport_retries = transport_totals_.retries;
  stats.transport_failures = transport_totals_.transport_failures;
  stats.decode_errors = transport_totals_.decode_errors;
  stats.snapshots_accepted = transport_totals_.accepted;
  stats.duplicates_ignored = transport_totals_.duplicates_ignored;
  stats.regressions_rejected = transport_totals_.regressions_rejected;
  stats.stale_reports = transport_totals_.stale_polls;
  stats.transport_bytes = transport_totals_.bytes_received;
  stats.deltas_applied = transport_totals_.deltas_applied;
  stats.delta_resyncs = transport_totals_.delta_resyncs;
  stats.request_id_mismatches = transport_totals_.request_id_mismatches;
  stats.ensemble_sessions = ensemble_sessions_;
  stats.ensembles_cached = ensembles_cached_;
  stats.ensemble_candidate_estimates = ensemble_candidate_estimates_;
  stats.ensemble_switches = ensemble_switches_;
  stats.ensemble_candidate_names = ensemble_candidate_names_;
  stats.ensemble_candidate_latency_ms = ensemble_candidate_latency_ms_;
  stats.ensemble_selected_ticks = ensemble_selected_ticks_;
  stats.lp_bounds_sessions = lp_bounds_sessions_;
  stats.bounds_lp_tightenings = bounds_lp_tightenings_;
  stats.bounds_intersection_inversions = bounds_intersection_inversions_;
  return stats;
}

}  // namespace lqs
