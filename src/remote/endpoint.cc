#include "remote/endpoint.h"

#include <cstring>

#include "remote/wire.h"

namespace lqs {

namespace {

/// Bit-exact double identity (lint rule 3: no float == in estimator code —
/// and identity, not numeric equality, is what the delta protocol needs:
/// the ack names one specific snapshot, NaN-safe).
bool SameBits(double a, double b) {
  uint64_t ab, bb;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

}  // namespace

PollResult LoopbackEndpoint::Poll(const PollRequest& request) {
  PollResult result;
  result.arrival_ms = request.now_ms;  // loopback delivers instantly
  const ProfileSnapshot* target = nullptr;
  bool complete = false;
  if (request.now_ms >= trace_->total_elapsed_ms) {
    // The query is done: every poll from here on returns the final
    // counters, flagged complete so the client can stop retrying.
    // Completion is always a full snapshot — the one message that must
    // never depend on state the client might have lost.
    target = &trace_->final_snapshot;
    complete = true;
  } else {
    target = trace_->SnapshotAtOrBefore(request.now_ms);
  }
  if (target == nullptr) {
    // Nothing sampled yet: an empty answer, not a keyframe.
    EncodeSnapshotResponse(request.request_id, nullptr,
                           /*query_complete=*/false, &result.frame);
    return result;
  }
  const bool keyframe_due =
      options_.keyframe_interval > 0 &&
      deltas_since_keyframe_ + 1 >= options_.keyframe_interval;
  if (options_.serve_deltas && !complete && request.has_ack &&
      !request.want_keyframe && !keyframe_due) {
    // The ack names a snapshot by bit-exact time; it is a valid base only
    // if this trace actually holds it (an ack from another query's
    // timeline, or one damaged in flight, falls back to a keyframe). The
    // delta goes straight from the two trace snapshots into the frame; a
    // pair that cannot be diffed appends nothing.
    const ProfileSnapshot* base =
        trace_->SnapshotAtOrBefore(request.ack_time_ms);
    if (base != nullptr && SameBits(base->time_ms, request.ack_time_ms)) {
      const Status delta = EncodeDeltaResponse(request.request_id, *base,
                                               *target, &result.frame);
      if (delta.ok()) {
        ++deltas_since_keyframe_;
        return result;
      }
    }
  }
  EncodeSnapshotResponse(request.request_id, target, complete, &result.frame);
  deltas_since_keyframe_ = 0;
  return result;
}

}  // namespace lqs
