#include "remote/polling_client.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "remote/wire.h"

namespace lqs {

PollingClient::PollingClient(std::unique_ptr<SnapshotEndpoint> endpoint,
                             PollingClientOptions options)
    : endpoint_(std::move(endpoint)),
      options_(options),
      jitter_rng_(options.jitter_seed) {}

namespace {

/// A newer observation of the same execution never runs a DMV counter or
/// activity clock backwards: the executor only ever advances these.
bool Regresses(const OperatorProfile& next, const OperatorProfile& last) {
  return next.row_count < last.row_count ||
         next.rebind_count < last.rebind_count ||
         next.logical_read_count < last.logical_read_count ||
         next.segment_read_count < last.segment_read_count ||
         next.segment_total_count < last.segment_total_count ||
         next.cpu_time_ms < last.cpu_time_ms ||
         next.io_time_ms < last.io_time_ms ||
         next.last_active_ms < last.last_active_ms;
}

}  // namespace

bool PollingClient::PassesTimeGate(double time_ms) {
  if (!std::isfinite(time_ms)) {
    // Orders against nothing: held, +inf would shut out every later
    // snapshot, the final one included, and NaN would let an older one in.
    ++stats_.regressions_rejected;
    return false;
  }
  if (!have_snapshot_ || !(time_ms <= last_accepted_.time_ms)) return true;
  // Same instant: a redelivered duplicate, harmless. Older: a reordered
  // late delivery that must not roll the estimator's view back.
  const double tolerance = 1e-9;
  if (std::abs(time_ms - last_accepted_.time_ms) <= tolerance) {
    ++stats_.duplicates_ignored;
  } else {
    ++stats_.regressions_rejected;
  }
  return false;
}

bool PollingClient::AcceptSnapshot(ProfileSnapshot* snapshot,
                                   bool query_complete) {
  if (!PassesTimeGate(snapshot->time_ms)) return false;
  if (have_snapshot_) {
    // Counters running backwards at a newer timestamp mean the payload is
    // not a later observation of the same execution (a restarted server, a
    // misrouted response); reject.
    const std::vector<OperatorProfile>& last = last_accepted_.operators;
    const std::vector<OperatorProfile>& next = snapshot->operators;
    bool regressed = next.size() != last.size();
    for (size_t i = 0; !regressed && i < next.size(); ++i) {
      regressed = Regresses(next[i], last[i]);
    }
    if (regressed) {
      ++stats_.regressions_rejected;
      return false;
    }
  }
  last_accepted_ = std::move(*snapshot);
  have_snapshot_ = true;
  if (query_complete) complete_ = true;
  ++stats_.accepted;
  return true;
}

bool PollingClient::AcceptDelta(const SnapshotDelta& delta,
                                bool query_complete) {
  if (!PassesTimeGate(delta.time_ms)) return false;
  // Gate every changed operator before touching the held snapshot, so a
  // rejected delta leaves it exactly as it was. Unchanged operators equal
  // their held counterparts and cannot regress.
  for (const OperatorDelta& op : delta.ops) {
    const OperatorProfile& last = last_accepted_.operators[op.index];
    OperatorProfile next = last;
    ApplyOperatorDelta(op, &next);
    if (Regresses(next, last)) {
      ++stats_.regressions_rejected;
      return false;
    }
  }
  for (const OperatorDelta& op : delta.ops) {
    ApplyOperatorDelta(op, &last_accepted_.operators[op.index]);
  }
  last_accepted_.time_ms = delta.time_ms;
  if (query_complete) complete_ = true;
  ++stats_.accepted;
  return true;
}

void PollingClient::BuildView(double now_ms, bool accepted_fresh,
                              bool link_alive) {
  if (link_alive) {
    consecutive_failures_ = 0;
  } else {
    ++consecutive_failures_;
    ++stats_.failed_polls;
  }
  view_.consecutive_failures = consecutive_failures_;
  view_.health = consecutive_failures_ >= kDegradeAfterFailures
                     ? TransportHealth::kDegraded
                     : TransportHealth::kHealthy;
  view_.query_complete = complete_;
  view_.stale = have_snapshot_ && !accepted_fresh;
  if (!have_snapshot_) {
    view_.snapshot = nullptr;
    view_.staleness_ms = 0;
    return;
  }
  view_.snapshot = &last_accepted_;
  view_.staleness_ms = std::max(0.0, now_ms - last_accepted_.time_ms);
  if (view_.stale) ++stats_.stale_polls;
}

const ClientView& PollingClient::Poll(double now_ms) {
  if (complete_) {
    // The final snapshot is in hand; nothing fresher can exist. Serve it
    // without touching the link. accepted_fresh=true: final counters are
    // the current truth, not stale data.
    BuildView(now_ms, /*accepted_fresh=*/true, /*link_alive=*/true);
    return view_;
  }
  ++stats_.polls;
  bool accepted_fresh = false;
  bool link_alive = false;
  double attempt_time = now_ms;
  double backoff = options_.backoff_initial_ms;
  // Exponential backoff with deterministic jitter before the retry; virtual
  // time advances so the next attempt asks a later question.
  auto back_off = [&] {
    const double capped = std::min(backoff, kBackoffMaxMs);
    const double jitter =
        1.0 + kJitterFraction * (2.0 * jitter_rng_.NextDouble() - 1.0);
    attempt_time += std::max(0.0, capped * jitter);
    backoff *= kBackoffMultiplier;
  };
  for (int attempt = 0; attempt < std::max(1, options_.max_attempts);
       ++attempt) {
    if (attempt > 0) ++stats_.retries;
    PollRequest request;
    request.request_id = next_request_id_++;
    request.now_ms = attempt_time;
    request.deadline_ms = attempt_time + options_.timeout_ms;
    // Delta protocol: acknowledge the snapshot we hold so a delta-capable
    // server can diff against it; after an unappliable delta, demand a
    // keyframe instead.
    request.has_ack = have_snapshot_;
    request.ack_time_ms = last_accepted_.time_ms;
    request.want_keyframe = need_keyframe_;
    PollResult result = endpoint_->Poll(request);
    const bool timed_out =
        !result.status.ok() || result.arrival_ms > request.deadline_ms;
    if (timed_out) {
      ++stats_.transport_failures;
      back_off();
      continue;
    }
    stats_.bytes_received += result.frame.size();
    StatusOr<PollResponse> response = DecodePollResponse(result.frame);
    if (!response.ok()) {
      // Bytes arrived damaged (truncated / bit-flipped / CRC). The decoder
      // contained the blast; retry as if the response were lost, but track
      // it separately — persistent decode errors mean version skew or a
      // broken link, not congestion.
      ++stats_.decode_errors;
      back_off();
      continue;
    }
    link_alive = true;
    if (response->request_id != request.request_id) {
      // A response to a request other than the one just sent: a late
      // delivery surfacing from behind the link's queue, or a misroute.
      // Late deliveries are legitimate data, so the payload still goes
      // through the recency filter below — but the event is counted, so a
      // link that systematically answers the wrong question is visible.
      ++stats_.request_id_mismatches;
    }
    bool accepted = false;
    if (response->has_delta) {
      // Checked against the held snapshot without writing anything; only a
      // delta that also passes the accept gate is applied, in place.
      Status checked =
          have_snapshot_
              ? CheckSnapshotDelta(response->delta, last_accepted_)
              : Status::NotFound("remote: delta with no base snapshot");
      if (checked.ok()) {
        ++stats_.deltas_applied;
        accepted = AcceptDelta(response->delta, response->query_complete);
      } else if (checked.code() == Status::Code::kNotFound) {
        // Base mismatch: our ack raced a keyframe, or we never had a base.
        // State is untouched — demand a keyframe on the next request
        // instead of guessing.
        need_keyframe_ = true;
        ++stats_.delta_resyncs;
      } else {
        // Structurally invalid delta (operator count, bad index): the
        // frame passed CRC but the message is nonsense. Same treatment as
        // a decode error.
        ++stats_.decode_errors;
        back_off();
      }
    } else if (response->has_snapshot) {
      // A full snapshot always resynchronizes the delta protocol, accepted
      // or not — the server honored (or pre-empted) the keyframe demand.
      need_keyframe_ = false;
      accepted = AcceptSnapshot(&response->snapshot, response->query_complete);
    } else {
      // The server genuinely has nothing yet (query younger than its first
      // DMV sample). Not a failure; nothing to chase this tick.
      break;
    }
    if (accepted) {
      accepted_fresh = true;
      break;
    }
    // No news: a duplicate or reordered-stale delivery, or a delta that
    // could not be applied. Remaining attempts chase the fresh data that may
    // sit behind it (e.g. behind a late-delivery queue).
  }
  BuildView(now_ms, accepted_fresh, link_alive);
  return view_;
}

}  // namespace lqs
