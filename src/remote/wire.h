#ifndef LQS_REMOTE_WIRE_H_
#define LQS_REMOTE_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/deterministic.h"
#include "common/statusor.h"
#include "dmv/query_profile.h"

namespace lqs {

/// Versioned, compact binary wire format for shipping DMV state across a
/// network hop (DESIGN.md §10). The paper's LQS is a client-side estimator:
/// SSMS polls sys.dm_exec_query_profiles over a TDS connection every 500 ms
/// (§2.1-2.2). The in-process substrate modelled that hop as a pointer read;
/// everything in this header makes the hop explicit — bytes that can be
/// late, lost, duplicated or damaged in flight.
///
/// Frame layout (all integers little-endian):
///
///   offset 0   'L' 'Q'          magic
///   offset 2   version          kWireVersion
///   offset 3   message type     WireType
///   offset 4   payload length   uint32
///   offset 8   payload CRC32    uint32 (IEEE, reflected)
///   offset 12  payload          `payload length` bytes
///
/// The one message that crosses the link is the PollResponse (the answer to
/// one poll). The CRC rejects damaged payloads before any field is
/// interpreted. Payloads use varint (LEB128) for counters, zigzag varints
/// for signed ids, and raw IEEE-754 bit patterns for doubles, so
/// decode→re-encode is byte-identical (virtual timestamps round-trip
/// bit-exactly).
///
/// The decoder is total: malformed input of any shape — truncated, bit
/// flipped, wrong magic/version/type, trailing bytes, overlong or padded
/// varints, out-of-range enum values — returns a non-OK Status. It never
/// reads out of bounds and never aborts.
inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kWireHeaderSize = 12;
inline constexpr char kWireMagic0 = 'L';
inline constexpr char kWireMagic1 = 'Q';

/// Message type carried in the frame header. Values 1-3 and 5 are retired
/// and must not be reused: older builds sent other messages under them.
enum class WireType : uint8_t {
  kPollResponse = 4,
};

/// CRC32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) of `size` bytes.
/// Slice-by-8 over compile-time tables: eight bytes per step, any
/// alignment, the same values as the bytewise definition.
uint32_t WireCrc32(const void* data, size_t size);

/// Per-field presence bits of one OperatorDelta. A set bit means the frame
/// carries that field; clear means "unchanged from the base operator".
/// Counters travel as zigzag varints of (target - base), which is exact in
/// integers; doubles travel as the XOR of the two IEEE-754 bit patterns in
/// a compact trailing-zero encoding (PutXorCompact in wire.cc), which is
/// exact by construction — reassembly reproduces the full snapshot bit for
/// bit, NaNs and signed zeros included.
enum DeltaField : uint32_t {
  kDeltaRowCount = 1u << 0,
  kDeltaRebindCount = 1u << 1,
  kDeltaLogicalReadCount = 1u << 2,
  kDeltaSegmentReadCount = 1u << 3,
  kDeltaSegmentTotalCount = 1u << 4,
  kDeltaTotalPages = 1u << 5,
  kDeltaEstimateRowCount = 1u << 6,
  kDeltaOpenTime = 1u << 7,
  kDeltaCpuTime = 1u << 8,
  kDeltaIoTime = 1u << 9,
  kDeltaLastActive = 1u << 10,
  kDeltaFirstRow = 1u << 11,
  kDeltaCloseTime = 1u << 12,
  kDeltaFlags = 1u << 13,
};
inline constexpr uint32_t kDeltaFieldMask = (1u << 14) - 1;

/// Changes of one operator relative to the base snapshot's operator at the
/// same index, in DeltaField bit order: `counter[i]` is bit i as the signed
/// difference target - base, `bits[i]` is bit 6 + i as the XOR of the two
/// bit patterns, `flags` is the target's packed flag byte. Only entries
/// whose `changed` bit is set are meaningful.
struct OperatorDelta {
  uint32_t index = 0;
  uint32_t changed = 0;  ///< DeltaField bitmap
  int64_t counter[6] = {};
  uint64_t bits[7] = {};
  uint8_t flags = 0;
};

/// One snapshot expressed as changes against an *acknowledged* base
/// snapshot, identified by the base's bit-exact time_ms. Operators absent
/// from `ops` are unchanged. Appendix to the §2 polling model: the server
/// only deltas against a snapshot the client told it (via PollRequest ack)
/// that it holds, so a lost delta never desynchronizes state — the client
/// simply keeps acknowledging the old base.
struct SnapshotDelta {
  double base_time_ms = 0;  ///< bit-exact identity of the base snapshot
  double time_ms = 0;       ///< the reconstructed snapshot's time
  uint64_t operator_count = 0;
  std::vector<OperatorDelta> ops;  ///< ascending by index
};

/// Computes the delta that turns `base` into `target`. Fails with
/// kInvalidArgument when the pair is not delta-encodable: operator count,
/// node ids, parent ids or operator types differ (plans never change shape
/// mid-query, so a mismatch means the two snapshots are not from the same
/// execution — send a keyframe instead). EncodeDeltaResponse writes the
/// same delta without building it; this is its test oracle.
LQS_DETERMINISTIC
StatusOr<SnapshotDelta> MakeSnapshotDelta(const ProfileSnapshot& base,
                                          const ProfileSnapshot& target);

/// Checks that `delta` applies to `base` without writing anything. Fails
/// with kNotFound when `base` is not the snapshot the delta was computed
/// against (bit-exact time_ms mismatch — the caller's resync/keyframe
/// path), and kInvalidArgument on structural mismatch (operator count, an
/// index out of order or range, undefined field or flag bits), checked in
/// that order, operator by operator.
LQS_DETERMINISTIC
Status CheckSnapshotDelta(const SnapshotDelta& delta,
                          const ProfileSnapshot& base);

/// Applies one operator's changes to `op`, which must be the base operator
/// at `delta.index` of a snapshot CheckSnapshotDelta accepted.
LQS_DETERMINISTIC
void ApplyOperatorDelta(const OperatorDelta& delta, OperatorProfile* op);

/// Reconstructs the target snapshot from `base` + `delta`: the statuses of
/// CheckSnapshotDelta, `*out` untouched on failure. On success `*out` equals
/// the original target bit for bit: a PollResponse carrying it as a full
/// snapshot encodes to the same bytes.
LQS_DETERMINISTIC
Status ApplySnapshotDelta(const SnapshotDelta& delta,
                          const ProfileSnapshot& base, ProfileSnapshot* out);

/// One poll answer from a SnapshotEndpoint: the freshest snapshot the server
/// holds — as a full snapshot or as a delta against the client's
/// acknowledged base — or "nothing yet" for a query that has not produced
/// one. `query_complete` marks the snapshot as the final one — counters are
/// final, the query is done (completion responses are always full
/// snapshots, never deltas).
struct PollResponse {
  uint64_t request_id = 0;
  bool has_snapshot = false;
  bool query_complete = false;
  ProfileSnapshot snapshot;  ///< meaningful only when has_snapshot
  /// Delta arm: exactly one of has_snapshot / has_delta may be set.
  bool has_delta = false;
  SnapshotDelta delta;  ///< meaningful only when has_delta
};

/// Appends exactly one complete frame to `*out` (existing content is
/// preserved). LQS_DETERMINISTIC: identical input produces byte-identical
/// frames — the golden tests pin the bytes; the static checker pins the call
/// graph.
LQS_DETERMINISTIC
void EncodePollResponse(const PollResponse& response, std::string* out);

/// Appends the frame EncodePollResponse writes for a full-arm response
/// carrying `*snapshot`, or for "nothing yet" when `snapshot` is null,
/// without copying the snapshot into a PollResponse.
LQS_DETERMINISTIC
void EncodeSnapshotResponse(uint64_t request_id,
                            const ProfileSnapshot* snapshot,
                            bool query_complete, std::string* out);

/// Appends the frame EncodePollResponse writes for the delta arm carrying
/// MakeSnapshotDelta(base, target), without building the delta. On the
/// statuses MakeSnapshotDelta fails with it appends nothing.
LQS_DETERMINISTIC
Status EncodeDeltaResponse(uint64_t request_id, const ProfileSnapshot& base,
                           const ProfileSnapshot& target, std::string* out);

/// Requires `frame` to be exactly one well-formed PollResponse frame:
/// header checks, CRC check, full payload consumption. LQS_DETERMINISTIC
/// like the encoder: same frame, same result (including the exact Status on
/// malformed input).
LQS_DETERMINISTIC
StatusOr<PollResponse> DecodePollResponse(std::string_view frame);

}  // namespace lqs

#endif  // LQS_REMOTE_WIRE_H_
