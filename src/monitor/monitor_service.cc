#include "monitor/monitor_service.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <string>
#include <utility>

namespace lqs {

namespace {

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
  session.trace = trace;
  session.checker = std::make_unique<ProgressInvariantChecker>(
      CachedEstimator(plan, catalog, estimator_options));
  session.client = std::move(client);
  slots_.push_back({start_offset_ms, session.client != nullptr, nullptr});
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
  for (size_t i = 0; i < sessions_.size(); ++i) {
    const Session& s = sessions_[i];
    const double elapsed = s.trace != nullptr
                               ? s.trace->total_elapsed_ms
                               : std::max(0.0, s.client->KnownHorizonMs());
    horizon = std::max(horizon, slots_[i].start_offset_ms + elapsed);
  }
  return horizon;
}

bool MonitorService::AllSessionsDone() const {
  for (const Slot& slot : slots_) {
    if (slot.final_snapshot == nullptr) return false;
  }
  return true;
}

void MonitorService::ComputeStatus(size_t index, double now_ms,
                                   SessionStatus* out) {
  const Slot& slot = slots_[index];
  *out = SessionStatus{};
  out->session_id = static_cast<int>(index);
  out->local_time_ms = now_ms - slot.start_offset_ms;
  out->remote = slot.remote;
  if (out->local_time_ms < 0) return;  // kWaiting, progress 0
  if (slot.final_snapshot != nullptr) {
    // Done on an earlier tick. A complete client serves its final snapshot
    // without counting anything, healthy and not stale (for any
    // degrade_after_failures >= 1), so neither the session nor its client
    // needs a visit.
    out->state = SessionState::kDone;
    out->snapshot = slot.final_snapshot;
    out->progress = 1.0;
    if (slot.remote) {
      out->staleness_ms =
          std::max(0.0, out->local_time_ms - slot.final_snapshot->time_ms);
    }
    return;
  }
  Session& session = sessions_[index];
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
  if (done) {
    out->progress = 1.0;
    return;
  }
  if (out->snapshot == nullptr) {
    // Nothing to estimate from yet: the first polls were lost or the server
    // had no sample this early, or a hand-built trace has none (executor
    // traces always do). Progress holds at zero; the session is alive, not
    // wedged.
    return;
  }
  // A repeat of the snapshot estimated last — same address, same time_ms
  // bits — serves the held report. Trace snapshots never change, and a
  // client's held snapshot changes only on an accept, which is always
  // strictly newer; so the held report is exactly what estimating again
  // would give, and it was checked when it was made.
  const uint64_t time_bits = std::bit_cast<uint64_t>(out->snapshot->time_ms);
  if (out->snapshot != session.estimated ||
      time_bits != session.estimated_time_bits) {
    if (session.report == nullptr) {
      // LQS_ALLOC_OK("once per session, on its first estimate")
      session.report = std::make_unique<ProgressReport>();
    }
    session.checker->EstimateCheckedInto(*out->snapshot, &session.workspace,
                                         session.report.get());
    session.estimated = out->snapshot;
    session.estimated_time_bits = time_bits;
    ++session.estimates;
  }
  out->report = session.report.get();
  out->progress = session.report->query_progress;
}

void MonitorService::AddLifetimeTotals(const Session& session,
                                       MonitorStats* into) {
  into->reports_computed += session.estimates;
  if (session.client == nullptr) return;
  const ClientStats& cs = session.client->stats();
  into->transport_polls += cs.polls;
  into->transport_retries += cs.retries;
  into->transport_failures += cs.transport_failures;
  into->decode_errors += cs.decode_errors;
  into->snapshots_accepted += cs.accepted;
  into->duplicates_ignored += cs.duplicates_ignored;
  into->regressions_rejected += cs.regressions_rejected;
  into->stale_reports += cs.stale_polls;
  into->transport_bytes += cs.bytes_received;
  into->deltas_applied += cs.deltas_applied;
  into->delta_resyncs += cs.delta_resyncs;
  into->request_id_mismatches += cs.request_id_mismatches;
}

void MonitorService::TickInto(double now_ms,
                              std::vector<SessionStatus>* statuses) {
  statuses->resize(sessions_.size());
  SessionStatus* const out = statuses->data();
  // std::function stores a reference_wrapper in place, so the fan-out
  // allocates nothing whatever the body captures.
  const auto compute = [this, now_ms, out](size_t i) {
    ComputeStatus(i, now_ms, &out[i]);
  };
  pool_.ParallelFor(sessions_.size(), std::ref(compute));
  // Per-session clients are quiescent after the barrier (the same ownership
  // rule that lets ComputeStatus mutate them without a lock), so one pass
  // in index order, outside stats_mu_, counts the states from the statuses
  // and adds the lifetime totals of the running sessions to those of the
  // retired ones. A session that turned done this tick retires here, once:
  // its final snapshot goes into its slot, its totals into retired_, and
  // its report is released.
  MonitorStats next = retired_;
  for (size_t i = 0; i < sessions_.size(); ++i) {
    const SessionStatus& status = out[i];
    if (status.degraded) ++next.degraded_sessions;
    switch (status.state) {
      case SessionState::kWaiting: ++next.waiting; break;
      case SessionState::kRunning:
        ++next.active;
        AddLifetimeTotals(sessions_[i], &next);
        break;
      case SessionState::kDone:
        ++next.done;
        if (slots_[i].final_snapshot == nullptr) {
          Session& session = sessions_[i];
          slots_[i].final_snapshot = status.snapshot;
          session.report.reset();
          AddLifetimeTotals(session, &retired_);
          AddLifetimeTotals(session, &next);
        }
        break;
    }
  }
  // Publishing happens under stats_mu_ only — the pool's lock is never held
  // here, so the kMonitorStats < kThreadPool rank order is trivially
  // respected. Registration counts carry over.
  MutexLock lock(&stats_mu_);
  next.sessions = published_.sessions;
  next.estimators_cached = published_.estimators_cached;
  next.remote_sessions = published_.remote_sessions;
  next.ticks = published_.ticks + 1;
  published_ = next;
}

std::vector<SessionStatus> MonitorService::Tick(double now_ms) {
  std::vector<SessionStatus> statuses;
  TickInto(now_ms, &statuses);
  return statuses;
}

void MonitorService::RunToCompletion(
    const std::function<void(double, const std::vector<SessionStatus>&)>&
        render) {
  const double horizon = HorizonMs();
  const double tick = options_.tick_ms > 0
                          ? options_.tick_ms
                          : horizon / std::max(1, options_.ticks_per_horizon);
  // One status buffer serves every tick.
  std::vector<SessionStatus> statuses;
  auto tick_and_render = [&](double now_ms) {
    TickInto(now_ms, &statuses);
    if (render) render(now_ms, statuses);
  };
  if (tick <= 0) {
    // Degenerate horizon: every session is empty. One t=0 tick still
    // reports their kDone states; looping `t += 0` would never terminate
    // (the bug the old multi_query_monitor example had).
    if (!sessions_.empty()) tick_and_render(0);
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
    tick_and_render(t);
  }
  // Overtime: a lossy link may not have delivered some remote session's
  // final snapshot by the nominal horizon (drops, delays). Keep ticking a
  // bounded number of extra intervals; each one is another delivery
  // opportunity. Local trace-backed sessions are always done at the
  // horizon, so a monitor without remote sessions never enters this loop
  // and its output is unchanged.
  for (int extra = 0; extra < kMaxOvertimeTicks && !AllSessionsDone();
       ++extra) {
    tick_and_render(t);
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
  return stats;
}

}  // namespace lqs
