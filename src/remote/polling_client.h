#ifndef LQS_REMOTE_POLLING_CLIENT_H_
#define LQS_REMOTE_POLLING_CLIENT_H_

#include <cstdint>
#include <memory>

#include "common/noalloc.h"
#include "common/rng.h"
#include "dmv/query_profile.h"
#include "remote/endpoint.h"

namespace lqs {

struct SnapshotDelta;

struct PollingClientOptions {
  /// Virtual-time budget for one attempt; a response arriving later than
  /// send + timeout_ms counts as timed out even if it carries bytes.
  double timeout_ms = 50;
  /// Attempts per Poll(): 1 initial + (max_attempts - 1) retries.
  int max_attempts = 4;
  /// Exponential backoff between failed attempts, on the virtual timeline:
  /// initial * multiplier^k, capped, then jittered by ±jitter_fraction with
  /// a deterministic seeded draw (all sessions seeded alike would otherwise
  /// retry in lockstep — the classic thundering herd).
  double backoff_initial_ms = 10;
  double backoff_multiplier = 2.0;
  double backoff_max_ms = 200;
  double jitter_fraction = 0.2;
  uint64_t jitter_seed = 1;
  /// Consecutive Poll() calls with no decodable response before the session
  /// is marked degraded. A single decodable response recovers it.
  int degrade_after_failures = 8;
};

enum class TransportHealth {
  kHealthy,
  /// The consecutive-failure budget is exhausted. The client keeps serving
  /// its last accepted snapshot and keeps polling — degraded is a surfaced
  /// state, not a terminal one — so the session never wedges the monitor.
  kDegraded,
};

/// What the monitor sees after one Poll(): the last accepted snapshot plus
/// transport condition. `snapshot` points into client-owned storage and is
/// valid until the next Poll() on this client.
struct ClientView {
  /// The last snapshot the client accepted, exactly as the server sent it;
  /// null before the first accept.
  const ProfileSnapshot* snapshot = nullptr;
  /// The server declared the query complete and `snapshot` holds its final
  /// counters.
  bool query_complete = false;
  /// No fresh snapshot was accepted by this Poll() — `snapshot` is held
  /// from an earlier one.
  bool stale = false;
  /// now - (time of the last *accepted* snapshot); 0 before the first one.
  double staleness_ms = 0;
  TransportHealth health = TransportHealth::kHealthy;
  int consecutive_failures = 0;
};

/// Lifetime counters of one client, surfaced into MonitorStats.
struct ClientStats {
  uint64_t polls = 0;
  uint64_t attempts = 0;
  uint64_t retries = 0;
  /// Attempts that timed out or errored at the transport level.
  uint64_t transport_failures = 0;
  /// Attempts whose bytes arrived but failed framing/CRC/decode.
  uint64_t decode_errors = 0;
  /// Snapshots accepted (fresh, monotone).
  uint64_t accepted = 0;
  /// Redeliveries of the already-accepted snapshot (same timestamp).
  uint64_t duplicates_ignored = 0;
  /// Snapshots rejected as older than the last accepted one (reordered late
  /// deliveries), or carrying a monotone counter that went backwards.
  uint64_t regressions_rejected = 0;
  /// Poll() calls that ended with no decodable response at all.
  uint64_t failed_polls = 0;
  /// Poll() calls that served a held (stale) snapshot.
  uint64_t stale_polls = 0;
  /// Wire bytes that arrived (decodable or not) — the transport cost the
  /// delta protocol exists to shrink.
  uint64_t bytes_received = 0;
  /// Deltas successfully applied to the acked base.
  uint64_t deltas_applied = 0;
  /// Deltas that could not be applied (base mismatch after a lost keyframe,
  /// or no base at all) — each one flips the next request to want_keyframe.
  uint64_t delta_resyncs = 0;
  /// Decodable responses whose request_id was not the one just sent: late
  /// or misrouted deliveries. They still flow through the recency filter
  /// (late deliveries are legitimate data), but are now observable.
  uint64_t request_id_mismatches = 0;
};

/// Polls a SnapshotEndpoint on the virtual timeline with per-request
/// timeouts, bounded retries and seeded exponential backoff, and keeps the
/// estimation seam well-behaved over a lossy link:
///
///  - duplicates (same snapshot timestamp) are ignored;
///  - regressions (snapshot older than the last accepted one, or any
///    monotone counter running backwards) are rejected, so accepted
///    snapshot timestamps are strictly increasing and served counters never
///    move backwards — the monotone replay the invariant checkers demand;
///  - the view serves the last accepted snapshot exactly as the server sent
///    it, lifecycle flags and one-shot timestamps included; on ticks with
///    nothing fresh it is held and flagged stale;
///  - snapshot deltas (wire.h) are checked against the last accepted
///    snapshot, gated like full snapshots, and only then applied to it in
///    place; any gap — unknown base, lost keyframe — makes the next request
///    demand a full keyframe instead of corrupting state;
///  - a consecutive-failure budget flips the session to kDegraded instead
///    of wedging it; one decodable response flips it back.
///
/// Concurrency audit (DESIGN.md §9-§10, checked by the `locks` rules in
/// §14): thread-compatible, deliberately mutex-free. One client belongs to
/// one monitor session; MonitorService computes a session on at most one
/// pool worker per tick and the ParallelFor barrier orders ticks, so no
/// lock is needed (the same ownership argument as the per-session
/// ProgressInvariantChecker). The immutable configuration below is const so
/// the compiler enforces the read-only half of that contract.
class PollingClient {
 public:
  PollingClient(std::unique_ptr<SnapshotEndpoint> endpoint,
                PollingClientOptions options = {});

  /// One monitor tick at virtual time `now_ms`. Calls must use
  /// non-decreasing times. The returned view (and its snapshot pointer) is
  /// valid until the next Poll().
  LQS_ALLOC_OK(
      "per attempt, the endpoint's response frame and the decoded body's "
      "operator vector; deltas apply in place and full snapshots move in. "
      "tests/estimator_alloc_test.cc bounds it at two per attempt")
  const ClientView& Poll(double now_ms);

  /// Last view without polling again.
  const ClientView& view() const { return view_; }

  const ClientStats& stats() const { return stats_; }
  bool complete() const { return complete_; }
  /// Final counters once the server declared the query complete; null
  /// before then.
  const ProfileSnapshot* final_snapshot() const {
    return complete_ ? &last_accepted_ : nullptr;
  }
  double KnownHorizonMs() const { return endpoint_->KnownHorizonMs(); }

 private:
  /// The accept gate's time check, shared by both arms: true when nothing
  /// is held or `time_ms` is newer than the held snapshot; otherwise counts
  /// a duplicate (same instant) or a regression (older) and returns false.
  bool PassesTimeGate(double time_ms);
  /// Full arm: on passing the gate, moves `*snapshot` into last_accepted_
  /// and returns true.
  bool AcceptSnapshot(ProfileSnapshot* snapshot, bool query_complete);
  /// Delta arm, for a delta CheckSnapshotDelta accepted against
  /// last_accepted_: gates every changed operator first, then applies them
  /// in place and returns true. A rejected delta writes nothing.
  bool AcceptDelta(const SnapshotDelta& delta, bool query_complete);
  void BuildView(double now_ms, bool accepted_fresh, bool link_alive);

  std::unique_ptr<SnapshotEndpoint> endpoint_;
  const PollingClientOptions options_;
  Rng jitter_rng_;
  ClientStats stats_;
  ClientView view_;

  uint64_t next_request_id_ = 1;
  bool have_snapshot_ = false;
  /// The snapshot the view serves and the delta protocol's acked base.
  ProfileSnapshot last_accepted_;
  /// Set when a delta could not be applied; the next request demands a
  /// full keyframe and this stays set until one (or any full snapshot)
  /// is accepted.
  bool need_keyframe_ = false;
  bool complete_ = false;
  int consecutive_failures_ = 0;
};

}  // namespace lqs

#endif  // LQS_REMOTE_POLLING_CLIENT_H_
