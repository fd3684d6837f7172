#include "remote/wire.h"

#include <array>
#include <bit>
#include <cstring>
#include <iterator>
#include <type_traits>

#include "common/stringf.h"

namespace lqs {

namespace {

// ---------------------------------------------------------------------------
// Low-level primitives. The writer appends one frame to a std::string; the
// reader is a bounds-checked cursor over a string_view — every Get* returns
// a Status and refuses to advance past the end, which is what makes the
// decoders total.
// ---------------------------------------------------------------------------

uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void StoreFixed32(char* at, uint32_t v) {
  for (int i = 0; i < 4; ++i) at[i] = static_cast<char>(v >> (8 * i));
}

/// Writes one PollResponse frame at the end of a std::string, keeping what
/// was there. Bytes collect in a stack buffer that reaches the string one
/// `append` at a time; each Put* makes room for its widest form up front,
/// so the per-byte stores need no bounds check. The header goes out first
/// with a zero length and CRC, which Finish() patches in place.
class WireWriter {
 public:
  explicit WireWriter(std::string* out) : out_(out), header_at_(out->size()) {
    char* p = buf_;
    *p++ = kWireMagic0;
    *p++ = kWireMagic1;
    *p++ = static_cast<char>(kWireVersion);
    *p++ = static_cast<char>(WireType::kPollResponse);
    std::memset(p, 0, kWireHeaderSize - 4);  // length and CRC, patched
    len_ = kWireHeaderSize;
  }

  void PutByte(uint8_t b) {
    char* p = Room(1);
    *p++ = static_cast<char>(b);
    Commit(p);
  }

  void PutVarint(uint64_t v) {
    char* p = Room(kMaxVarintBytes);
    while (v >= 0x80) {
      *p++ = static_cast<char>(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    *p++ = static_cast<char>(v);
    Commit(p);
  }

  void PutZigzag(int64_t v) { PutVarint(ZigzagEncode(v)); }

  /// Raw IEEE-754 bit pattern, little-endian: bit-exact round trips.
  void PutDouble(double v) {
    const uint64_t bits = DoubleBits(v);
    char* p = Room(8);
    for (int i = 0; i < 8; ++i) {
      *p++ = static_cast<char>(bits >> (8 * i));
    }
    Commit(p);
  }

  /// Compact encoding of an XOR of two IEEE-754 bit patterns: one prefix
  /// byte packing (trailing-zero-byte count << 4 | significant-byte count),
  /// then the significant bytes little-endian. Clock-like doubles differ in
  /// a handful of mantissa bytes, so a changed timestamp usually costs 3-4
  /// bytes instead of 8; the worst case is 9. Zero encodes as the single
  /// byte 0x00. The form is canonical (maximal trailing-zero count, minimal
  /// significant count), so decode→re-encode is byte-identical.
  void PutXorCompact(uint64_t x) {
    if (x == 0) {
      PutByte(0);
      return;
    }
    int tz = 0;
    while ((x & 0xFF) == 0) {
      x >>= 8;
      ++tz;
    }
    uint64_t probe = x;
    int sig = 0;
    while (probe != 0) {
      probe >>= 8;
      ++sig;
    }
    char* p = Room(9);
    *p++ = static_cast<char>((tz << 4) | sig);
    for (int i = 0; i < sig; ++i) {
      *p++ = static_cast<char>(x >> (8 * i));
    }
    Commit(p);
  }

  /// Appends what is buffered and writes the payload length and CRC into
  /// the header. Call once, after the last Put*.
  void Finish() {
    Flush();
    char* header = out_->data() + header_at_;
    const size_t payload_size = out_->size() - header_at_ - kWireHeaderSize;
    StoreFixed32(header + 4, static_cast<uint32_t>(payload_size));
    StoreFixed32(header + 8, WireCrc32(header + kWireHeaderSize, payload_size));
  }

 private:
  static constexpr size_t kBufferSize = 256;
  static constexpr size_t kMaxVarintBytes = 10;

  /// Where the next `n` bytes go, flushing first if they would not fit.
  char* Room(size_t n) {
    if (kBufferSize - len_ < n) Flush();
    return buf_ + len_;
  }
  void Commit(const char* end) { len_ = static_cast<size_t>(end - buf_); }
  void Flush() {
    out_->append(buf_, len_);
    len_ = 0;
  }

  std::string* out_;
  const size_t header_at_;
  size_t len_ = 0;
  char buf_[kBufferSize];
};

class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

  Status GetByte(uint8_t* out) {
    if (remaining() < 1) return Truncated("byte");
    *out = static_cast<uint8_t>(data_[pos_++]);
    return Status::OK();
  }

  Status GetVarint(uint64_t* out) {
    uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      uint8_t byte;
      LQS_RETURN_IF_ERROR(GetByte(&byte));
      value |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        // The tenth byte may contribute at most one bit (shift 63).
        if (shift == 63 && byte > 1) {
          return Status::InvalidArgument("wire: varint overflows 64 bits");
        }
        // A zero final byte after the first only pads the value: PutVarint
        // never writes one, so accepting it would break decode→re-encode
        // byte identity.
        if (shift > 0 && byte == 0) {
          return Status::InvalidArgument("wire: varint padded with zeros");
        }
        *out = value;
        return Status::OK();
      }
    }
    return Status::InvalidArgument("wire: varint longer than 10 bytes");
  }

  Status GetZigzag(int64_t* out) {
    uint64_t raw;
    LQS_RETURN_IF_ERROR(GetVarint(&raw));
    *out = ZigzagDecode(raw);
    return Status::OK();
  }

  Status GetDouble(double* out) {
    if (remaining() < 8) return Truncated("double");
    uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
              << (8 * i);
    }
    pos_ += 8;
    std::memcpy(out, &bits, sizeof(*out));
    return Status::OK();
  }

  /// Inverse of WireWriter::PutXorCompact. Rejects non-canonical forms
  /// (zero with a nonzero prefix, leading/trailing zero significant bytes,
  /// counts that overflow 8 bytes) so decode→re-encode stays byte-identical.
  Status GetXorCompact(uint64_t* out) {
    uint8_t prefix;
    LQS_RETURN_IF_ERROR(GetByte(&prefix));
    if (prefix == 0) {
      *out = 0;
      return Status::OK();
    }
    const int tz = prefix >> 4;
    const int sig = prefix & 0x0F;
    if (sig == 0 || sig > 8 || tz > 7 || tz + sig > 8) {
      return Status::InvalidArgument(
          StringF("wire: malformed xor-compact prefix 0x%02x", prefix));
    }
    uint64_t value = 0;
    for (int i = 0; i < sig; ++i) {
      uint8_t byte;
      LQS_RETURN_IF_ERROR(GetByte(&byte));
      if (i == 0 && byte == 0) {
        return Status::InvalidArgument(
            "wire: xor-compact trailing zeros not maximal");
      }
      if (i == sig - 1 && byte == 0) {
        return Status::InvalidArgument(
            "wire: xor-compact significant count not minimal");
      }
      value |= static_cast<uint64_t>(byte) << (8 * i);
    }
    *out = value << (8 * tz);
    return Status::OK();
  }

 private:
  static Status Truncated(const char* what) {
    return Status::OutOfRange(StringF("wire: payload truncated reading %s",
                                      what));
  }

  std::string_view data_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------------

/// CRC-32 lookup tables for slice-by-8, computed at compile time:
/// kCrcTables[0] is the classic bytewise table of the reflected IEEE
/// polynomial, and kCrcTables[k][b] advances byte b's contribution by k
/// further zero bytes.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;
constexpr CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}
constexpr CrcTables kCrcTables = MakeCrcTables();

uint32_t GetFixed32(std::string_view data, size_t offset) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data[offset + i]))
         << (8 * i);
  }
  return v;
}

/// Header checks: magic, version, declared type, exact length, CRC. Returns
/// the payload view on success.
StatusOr<std::string_view> CheckFrame(std::string_view frame) {
  if (frame.size() < kWireHeaderSize) {
    return Status::OutOfRange(
        StringF("wire: frame shorter than header (%zu bytes)", frame.size()));
  }
  if (frame[0] != kWireMagic0 || frame[1] != kWireMagic1) {
    return Status::InvalidArgument("wire: bad magic");
  }
  const uint8_t version = static_cast<uint8_t>(frame[2]);
  if (version != kWireVersion) {
    return Status::Unimplemented(
        StringF("wire: version %u not supported (speaking %u)", version,
                kWireVersion));
  }
  const uint8_t type = static_cast<uint8_t>(frame[3]);
  if (type != static_cast<uint8_t>(WireType::kPollResponse)) {
    return Status::InvalidArgument(
        StringF("wire: message type %u where %u expected", type,
                static_cast<uint8_t>(WireType::kPollResponse)));
  }
  const uint32_t payload_size = GetFixed32(frame, 4);
  if (frame.size() != kWireHeaderSize + payload_size) {
    return Status::OutOfRange(
        StringF("wire: declared payload %u bytes, frame carries %zu",
                payload_size, frame.size() - kWireHeaderSize));
  }
  const std::string_view payload = frame.substr(kWireHeaderSize);
  const uint32_t crc = GetFixed32(frame, 8);
  if (WireCrc32(payload.data(), payload.size()) != crc) {
    return Status::DataLoss("wire: payload CRC mismatch");
  }
  return payload;
}

// ---------------------------------------------------------------------------
// Message bodies. Bodies are headerless; a PollResponse embeds either a
// snapshot body or a delta body after its request id and flags.
// ---------------------------------------------------------------------------

constexpr uint8_t kProfileFlagOpened = 1u << 0;
constexpr uint8_t kProfileFlagClosed = 1u << 1;
constexpr uint8_t kProfileFlagFinished = 1u << 2;
constexpr uint8_t kProfileFlagPushedPredicate = 1u << 3;
constexpr uint8_t kProfileFlagMask =
    kProfileFlagOpened | kProfileFlagClosed | kProfileFlagFinished |
    kProfileFlagPushedPredicate;

constexpr uint8_t kPollFlagHasSnapshot = 1u << 0;
constexpr uint8_t kPollFlagQueryComplete = 1u << 1;
constexpr uint8_t kPollFlagHasDelta = 1u << 2;
constexpr uint8_t kPollFlagMask =
    kPollFlagHasSnapshot | kPollFlagQueryComplete | kPollFlagHasDelta;

uint8_t PackProfileFlags(const OperatorProfile& op) {
  uint8_t flags = 0;
  if (op.opened) flags |= kProfileFlagOpened;
  if (op.closed) flags |= kProfileFlagClosed;
  if (op.finished) flags |= kProfileFlagFinished;
  if (op.has_pushed_predicate) flags |= kProfileFlagPushedPredicate;
  return flags;
}

Status CheckProfileFlags(uint8_t flags) {
  if ((flags & ~kProfileFlagMask) != 0) {
    return Status::InvalidArgument(
        StringF("wire: undefined operator flag bits 0x%02x", flags));
  }
  return Status::OK();
}

/// The inverse of PackProfileFlags, for flags CheckProfileFlags accepted.
void SetProfileFlags(uint8_t flags, OperatorProfile* op) {
  op->opened = (flags & kProfileFlagOpened) != 0;
  op->closed = (flags & kProfileFlagClosed) != 0;
  op->finished = (flags & kProfileFlagFinished) != 0;
  op->has_pushed_predicate = (flags & kProfileFlagPushedPredicate) != 0;
}

void PutResponsePrefix(WireWriter* w, uint64_t request_id, bool has_snapshot,
                       bool query_complete, bool has_delta) {
  uint8_t flags = 0;
  if (has_snapshot) flags |= kPollFlagHasSnapshot;
  if (query_complete) flags |= kPollFlagQueryComplete;
  if (has_delta) flags |= kPollFlagHasDelta;
  w->PutVarint(request_id);
  w->PutByte(flags);
}

void PutOperatorProfile(WireWriter* w, const OperatorProfile& op) {
  w->PutZigzag(op.node_id);
  w->PutZigzag(op.parent_node_id);
  w->PutVarint(static_cast<uint64_t>(op.op_type));
  w->PutVarint(op.row_count);
  w->PutDouble(op.estimate_row_count);
  w->PutVarint(op.rebind_count);
  w->PutVarint(op.logical_read_count);
  w->PutVarint(op.segment_read_count);
  w->PutVarint(op.segment_total_count);
  w->PutDouble(op.open_time_ms);
  w->PutDouble(op.cpu_time_ms);
  w->PutDouble(op.io_time_ms);
  w->PutDouble(op.last_active_ms);
  w->PutDouble(op.first_row_ms);
  w->PutDouble(op.close_time_ms);
  w->PutByte(PackProfileFlags(op));
  w->PutVarint(op.total_pages);
}

Status GetOperatorProfile(WireReader* r, OperatorProfile* op) {
  int64_t node_id, parent_node_id;
  LQS_RETURN_IF_ERROR(r->GetZigzag(&node_id));
  LQS_RETURN_IF_ERROR(r->GetZigzag(&parent_node_id));
  op->node_id = static_cast<int>(node_id);
  op->parent_node_id = static_cast<int>(parent_node_id);
  uint64_t op_type;
  LQS_RETURN_IF_ERROR(r->GetVarint(&op_type));
  if (op_type >= static_cast<uint64_t>(OpType::kNumOpTypes)) {
    return Status::InvalidArgument(
        StringF("wire: operator type %llu out of range",
                static_cast<unsigned long long>(op_type)));
  }
  op->op_type = static_cast<OpType>(op_type);
  LQS_RETURN_IF_ERROR(r->GetVarint(&op->row_count));
  LQS_RETURN_IF_ERROR(r->GetDouble(&op->estimate_row_count));
  LQS_RETURN_IF_ERROR(r->GetVarint(&op->rebind_count));
  LQS_RETURN_IF_ERROR(r->GetVarint(&op->logical_read_count));
  LQS_RETURN_IF_ERROR(r->GetVarint(&op->segment_read_count));
  LQS_RETURN_IF_ERROR(r->GetVarint(&op->segment_total_count));
  LQS_RETURN_IF_ERROR(r->GetDouble(&op->open_time_ms));
  LQS_RETURN_IF_ERROR(r->GetDouble(&op->cpu_time_ms));
  LQS_RETURN_IF_ERROR(r->GetDouble(&op->io_time_ms));
  LQS_RETURN_IF_ERROR(r->GetDouble(&op->last_active_ms));
  LQS_RETURN_IF_ERROR(r->GetDouble(&op->first_row_ms));
  LQS_RETURN_IF_ERROR(r->GetDouble(&op->close_time_ms));
  uint8_t flags;
  LQS_RETURN_IF_ERROR(r->GetByte(&flags));
  LQS_RETURN_IF_ERROR(CheckProfileFlags(flags));
  SetProfileFlags(flags, op);
  LQS_RETURN_IF_ERROR(r->GetVarint(&op->total_pages));
  return Status::OK();
}

void PutSnapshotBody(WireWriter* w, const ProfileSnapshot& snapshot) {
  w->PutDouble(snapshot.time_ms);
  w->PutVarint(snapshot.operators.size());
  for (const OperatorProfile& op : snapshot.operators) {
    PutOperatorProfile(w, op);
  }
}

Status GetSnapshotBody(WireReader* r, ProfileSnapshot* snapshot) {
  LQS_RETURN_IF_ERROR(r->GetDouble(&snapshot->time_ms));
  uint64_t count;
  LQS_RETURN_IF_ERROR(r->GetVarint(&count));
  // Each operator occupies at least one byte; a count beyond the remaining
  // payload cannot be honest. Rejecting it here fails fast instead of
  // looping to the truncation error (memory stays bounded either way — the
  // vector grows only per successfully decoded operator).
  if (count > r->remaining()) {
    return Status::OutOfRange(
        StringF("wire: snapshot declares %llu operators, %zu bytes left",
                static_cast<unsigned long long>(count), r->remaining()));
  }
  snapshot->operators.clear();
  snapshot->operators.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    OperatorProfile op;
    LQS_RETURN_IF_ERROR(GetOperatorProfile(r, &op));
    snapshot->operators.push_back(std::move(op));
  }
  return Status::OK();
}

// Delta bodies. Changed operators are keyed by index with gap encoding
// (first op writes its index, each later op writes the distance to its
// predecessor minus one), which both compresses dense change sets and makes
// "strictly ascending" a structural property of the encoding rather than a
// check. Field payloads appear in DeltaField bit order: counters as zigzag
// varints of (target - base), doubles as xor-compact bit patterns, flags as
// one packed byte. The tables below list the OperatorProfile members in that
// order: counter i travels under bit i, double i under bit
// kCounterFieldCount + i, and OperatorDelta::counter and ::bits are indexed
// the same way.
constexpr uint64_t OperatorProfile::*kCounterFields[] = {
    &OperatorProfile::row_count,           &OperatorProfile::rebind_count,
    &OperatorProfile::logical_read_count,  &OperatorProfile::segment_read_count,
    &OperatorProfile::segment_total_count, &OperatorProfile::total_pages,
};
constexpr double OperatorProfile::*kDoubleFields[] = {
    &OperatorProfile::estimate_row_count, &OperatorProfile::open_time_ms,
    &OperatorProfile::cpu_time_ms,        &OperatorProfile::io_time_ms,
    &OperatorProfile::last_active_ms,     &OperatorProfile::first_row_ms,
    &OperatorProfile::close_time_ms,
};
constexpr size_t kCounterFieldCount = std::size(kCounterFields);
constexpr size_t kDoubleFieldCount = std::size(kDoubleFields);
static_assert(kCounterFieldCount ==
              std::extent_v<decltype(OperatorDelta::counter)>);
static_assert(kDoubleFieldCount ==
              std::extent_v<decltype(OperatorDelta::bits)>);
static_assert(1u << kCounterFieldCount == kDeltaEstimateRowCount);
static_assert(1u << (kCounterFieldCount + kDoubleFieldCount) == kDeltaFlags);

constexpr uint32_t CounterBit(size_t i) { return 1u << i; }
constexpr uint32_t DoubleBit(size_t i) {
  return 1u << (kCounterFieldCount + i);
}

/// The counter and double entries a `changed` bitmap names, each as a mask
/// with bit i for table entry i; iterating set bits visits them in wire
/// order.
uint32_t ChangedCounters(uint32_t changed) {
  return changed & (CounterBit(kCounterFieldCount) - 1);
}
uint32_t ChangedDoubles(uint32_t changed) {
  return (changed >> kCounterFieldCount) & ((1u << kDoubleFieldCount) - 1);
}

void PutOperatorDelta(WireWriter* w, const OperatorDelta& op, uint64_t gap) {
  w->PutVarint(gap);
  w->PutVarint(op.changed);
  for (uint32_t m = ChangedCounters(op.changed); m != 0; m &= m - 1) {
    w->PutZigzag(op.counter[std::countr_zero(m)]);
  }
  for (uint32_t m = ChangedDoubles(op.changed); m != 0; m &= m - 1) {
    w->PutXorCompact(op.bits[std::countr_zero(m)]);
  }
  if (op.changed & kDeltaFlags) w->PutByte(op.flags);
}

Status GetOperatorDelta(WireReader* r, OperatorDelta* op) {
  uint64_t changed;
  LQS_RETURN_IF_ERROR(r->GetVarint(&changed));
  if (changed == 0 || (changed & ~static_cast<uint64_t>(kDeltaFieldMask))) {
    return Status::InvalidArgument(
        StringF("wire: bad delta field bitmap 0x%llx",
                static_cast<unsigned long long>(changed)));
  }
  op->changed = static_cast<uint32_t>(changed);
  for (uint32_t m = ChangedCounters(op->changed); m != 0; m &= m - 1) {
    LQS_RETURN_IF_ERROR(r->GetZigzag(&op->counter[std::countr_zero(m)]));
  }
  for (uint32_t m = ChangedDoubles(op->changed); m != 0; m &= m - 1) {
    LQS_RETURN_IF_ERROR(r->GetXorCompact(&op->bits[std::countr_zero(m)]));
  }
  if (op->changed & kDeltaFlags) {
    LQS_RETURN_IF_ERROR(r->GetByte(&op->flags));
    LQS_RETURN_IF_ERROR(CheckProfileFlags(op->flags));
  }
  return Status::OK();
}

void PutDeltaHeader(WireWriter* w, double base_time_ms, double time_ms,
                    uint64_t operator_count, uint64_t changed_count) {
  w->PutDouble(base_time_ms);
  w->PutDouble(time_ms);
  w->PutVarint(operator_count);
  w->PutVarint(changed_count);
}

void PutDeltaBody(WireWriter* w, const SnapshotDelta& delta) {
  PutDeltaHeader(w, delta.base_time_ms, delta.time_ms, delta.operator_count,
                 delta.ops.size());
  uint64_t next_index = 0;
  for (const OperatorDelta& op : delta.ops) {
    PutOperatorDelta(w, op, op.index - next_index);
    next_index = static_cast<uint64_t>(op.index) + 1;
  }
}

/// The per-operator diff both delta writers share: sets `op->changed` and
/// the entries it names. Counters subtract with wrapping unsigned
/// arithmetic; doubles XOR their bit patterns, so NaNs and signed zeros
/// count as changes exactly when their bits differ.
void DiffOperator(const OperatorProfile& b, const OperatorProfile& t,
                  OperatorDelta* op) {
  op->changed = 0;
  for (size_t f = 0; f < kCounterFieldCount; ++f) {
    const uint64_t tv = t.*kCounterFields[f];
    const uint64_t bv = b.*kCounterFields[f];
    if (tv != bv) {
      op->changed |= CounterBit(f);
      op->counter[f] = static_cast<int64_t>(tv - bv);
    }
  }
  for (size_t f = 0; f < kDoubleFieldCount; ++f) {
    const uint64_t x =
        DoubleBits(t.*kDoubleFields[f]) ^ DoubleBits(b.*kDoubleFields[f]);
    if (x != 0) {
      op->changed |= DoubleBit(f);
      op->bits[f] = x;
    }
  }
  const uint8_t flags = PackProfileFlags(t);
  if (flags != PackProfileFlags(b)) {
    op->changed |= kDeltaFlags;
    op->flags = flags;
  }
}

/// Whether DiffOperator would set any bit, stopping at the first change.
bool OperatorChanged(const OperatorProfile& b, const OperatorProfile& t) {
  for (uint64_t OperatorProfile::*field : kCounterFields) {
    if (b.*field != t.*field) return true;
  }
  for (double OperatorProfile::*field : kDoubleFields) {
    if (DoubleBits(b.*field) != DoubleBits(t.*field)) return true;
  }
  return PackProfileFlags(b) != PackProfileFlags(t);
}

/// First pass of both delta writers: the pair's shape (operator count,
/// then each operator's identity in index order) and how many operators
/// changed.
Status CountChangedOperators(const ProfileSnapshot& base,
                             const ProfileSnapshot& target, size_t* changed) {
  if (base.operators.size() != target.operators.size()) {
    return Status::InvalidArgument(
        StringF("wire: delta base has %zu operators, target %zu",
                base.operators.size(), target.operators.size()));
  }
  *changed = 0;
  for (size_t i = 0; i < base.operators.size(); ++i) {
    const OperatorProfile& b = base.operators[i];
    const OperatorProfile& t = target.operators[i];
    if (b.node_id != t.node_id || b.parent_node_id != t.parent_node_id ||
        b.op_type != t.op_type) {
      return Status::InvalidArgument(
          StringF("wire: delta operator %zu identity mismatch "
                  "(plans never change shape mid-query)",
                  i));
    }
    if (OperatorChanged(b, t)) ++*changed;
  }
  return Status::OK();
}

Status GetDeltaBody(WireReader* r, SnapshotDelta* delta) {
  LQS_RETURN_IF_ERROR(r->GetDouble(&delta->base_time_ms));
  LQS_RETURN_IF_ERROR(r->GetDouble(&delta->time_ms));
  LQS_RETURN_IF_ERROR(r->GetVarint(&delta->operator_count));
  // Unlike snapshot bodies, operator_count describes the (absent) base, so
  // it cannot be bounded by remaining payload; cap it so indices stay
  // faithful in OperatorDelta::index.
  if (delta->operator_count > 0xFFFFFFFFull) {
    return Status::OutOfRange(
        StringF("wire: delta declares %llu base operators",
                static_cast<unsigned long long>(delta->operator_count)));
  }
  uint64_t count;
  LQS_RETURN_IF_ERROR(r->GetVarint(&count));
  if (count > r->remaining()) {
    return Status::OutOfRange(
        StringF("wire: delta declares %llu changed operators, %zu bytes left",
                static_cast<unsigned long long>(count), r->remaining()));
  }
  delta->ops.clear();
  delta->ops.reserve(count);
  uint64_t next_index = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t gap;
    LQS_RETURN_IF_ERROR(r->GetVarint(&gap));
    // next_index <= operator_count here, so the subtraction cannot wrap and
    // the comparison rejects any gap that would overflow next_index + gap.
    if (gap >= delta->operator_count - next_index) {
      return Status::InvalidArgument(
          StringF("wire: delta operator gap %llu out of range (%llu ops)",
                  static_cast<unsigned long long>(gap),
                  static_cast<unsigned long long>(delta->operator_count)));
    }
    OperatorDelta op;
    op.index = static_cast<uint32_t>(next_index + gap);
    LQS_RETURN_IF_ERROR(GetOperatorDelta(r, &op));
    delta->ops.push_back(op);
    next_index = static_cast<uint64_t>(op.index) + 1;
  }
  return Status::OK();
}

Status RequireExhausted(const WireReader& r) {
  if (!r.exhausted()) {
    return Status::InvalidArgument(
        StringF("wire: %zu trailing payload bytes", r.remaining()));
  }
  return Status::OK();
}

}  // namespace

uint32_t WireCrc32(const void* data, size_t size) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  // Slice-by-8: the CRC register absorbs eight bytes at once, each byte
  // looked up in the table that advances it past the bytes still ahead of
  // it in the slice. Loads are assembled byte by byte, so any alignment and
  // either host byte order work.
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = crc ^ (static_cast<uint32_t>(p[0]) |
                               static_cast<uint32_t>(p[1]) << 8 |
                               static_cast<uint32_t>(p[2]) << 16 |
                               static_cast<uint32_t>(p[3]) << 24);
    const uint32_t hi = static_cast<uint32_t>(p[4]) |
                        static_cast<uint32_t>(p[5]) << 8 |
                        static_cast<uint32_t>(p[6]) << 16 |
                        static_cast<uint32_t>(p[7]) << 24;
    crc = kCrcTables[7][lo & 0xFF] ^ kCrcTables[6][(lo >> 8) & 0xFF] ^
          kCrcTables[5][(lo >> 16) & 0xFF] ^ kCrcTables[4][lo >> 24] ^
          kCrcTables[3][hi & 0xFF] ^ kCrcTables[2][(hi >> 8) & 0xFF] ^
          kCrcTables[1][(hi >> 16) & 0xFF] ^ kCrcTables[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = kCrcTables[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void EncodePollResponse(const PollResponse& response, std::string* out) {
  WireWriter w(out);
  PutResponsePrefix(&w, response.request_id, response.has_snapshot,
                    response.query_complete, response.has_delta);
  if (response.has_snapshot) PutSnapshotBody(&w, response.snapshot);
  if (response.has_delta) PutDeltaBody(&w, response.delta);
  w.Finish();
}

void EncodeSnapshotResponse(uint64_t request_id,
                            const ProfileSnapshot* snapshot,
                            bool query_complete, std::string* out) {
  WireWriter w(out);
  PutResponsePrefix(&w, request_id, snapshot != nullptr, query_complete,
                    /*has_delta=*/false);
  if (snapshot != nullptr) PutSnapshotBody(&w, *snapshot);
  w.Finish();
}

Status EncodeDeltaResponse(uint64_t request_id, const ProfileSnapshot& base,
                           const ProfileSnapshot& target, std::string* out) {
  size_t changed = 0;
  LQS_RETURN_IF_ERROR(CountChangedOperators(base, target, &changed));
  WireWriter w(out);
  PutResponsePrefix(&w, request_id, /*has_snapshot=*/false,
                    /*query_complete=*/false, /*has_delta=*/true);
  PutDeltaHeader(&w, base.time_ms, target.time_ms, base.operators.size(),
                 changed);
  uint64_t next_index = 0;
  OperatorDelta op;  // PutOperatorDelta reads only the entries DiffOperator set
  for (size_t i = 0; i < base.operators.size(); ++i) {
    const OperatorProfile& b = base.operators[i];
    const OperatorProfile& t = target.operators[i];
    if (!OperatorChanged(b, t)) continue;
    DiffOperator(b, t, &op);
    PutOperatorDelta(&w, op, i - next_index);
    next_index = i + 1;
  }
  w.Finish();
  return Status::OK();
}

StatusOr<SnapshotDelta> MakeSnapshotDelta(const ProfileSnapshot& base,
                                          const ProfileSnapshot& target) {
  size_t changed = 0;
  LQS_RETURN_IF_ERROR(CountChangedOperators(base, target, &changed));
  SnapshotDelta delta;
  delta.base_time_ms = base.time_ms;
  delta.time_ms = target.time_ms;
  delta.operator_count = base.operators.size();
  delta.ops.reserve(changed);
  for (size_t i = 0; i < base.operators.size(); ++i) {
    OperatorDelta op;
    op.index = static_cast<uint32_t>(i);
    DiffOperator(base.operators[i], target.operators[i], &op);
    if (op.changed != 0) delta.ops.push_back(op);
  }
  return delta;
}

Status CheckSnapshotDelta(const SnapshotDelta& delta,
                          const ProfileSnapshot& base) {
  if (DoubleBits(delta.base_time_ms) != DoubleBits(base.time_ms)) {
    // The caller's resync path: it holds a different base than the one the
    // delta was computed against (e.g. the ack raced a keyframe).
    return Status::NotFound(
        "wire: delta base snapshot mismatch, keyframe required");
  }
  if (delta.operator_count != base.operators.size()) {
    return Status::InvalidArgument(
        StringF("wire: delta expects %llu operators, base has %zu",
                static_cast<unsigned long long>(delta.operator_count),
                base.operators.size()));
  }
  uint64_t next_index = 0;
  for (const OperatorDelta& op : delta.ops) {
    if (op.index < next_index || op.index >= base.operators.size()) {
      return Status::InvalidArgument(
          StringF("wire: delta operator index %u out of order or range",
                  op.index));
    }
    next_index = static_cast<uint64_t>(op.index) + 1;
    if ((op.changed & ~kDeltaFieldMask) != 0) {
      return Status::InvalidArgument(
          StringF("wire: bad delta field bitmap 0x%x", op.changed));
    }
    if (op.changed & kDeltaFlags) {
      LQS_RETURN_IF_ERROR(CheckProfileFlags(op.flags));
    }
  }
  return Status::OK();
}

void ApplyOperatorDelta(const OperatorDelta& delta, OperatorProfile* op) {
  // Counters add the signed difference with wrapping unsigned arithmetic,
  // the exact inverse of DiffOperator's subtraction; doubles XOR the
  // transmitted bit pattern back in. Both reconstruct the target field
  // bit-for-bit.
  for (uint32_t m = ChangedCounters(delta.changed); m != 0; m &= m - 1) {
    const int f = std::countr_zero(m);
    op->*kCounterFields[f] += static_cast<uint64_t>(delta.counter[f]);
  }
  for (uint32_t m = ChangedDoubles(delta.changed); m != 0; m &= m - 1) {
    const int f = std::countr_zero(m);
    double& field = op->*kDoubleFields[f];
    const uint64_t bits = DoubleBits(field) ^ delta.bits[f];
    std::memcpy(&field, &bits, sizeof(field));
  }
  if (delta.changed & kDeltaFlags) SetProfileFlags(delta.flags, op);
}

Status ApplySnapshotDelta(const SnapshotDelta& delta,
                          const ProfileSnapshot& base, ProfileSnapshot* out) {
  LQS_RETURN_IF_ERROR(CheckSnapshotDelta(delta, base));
  *out = base;
  out->time_ms = delta.time_ms;
  for (const OperatorDelta& op : delta.ops) {
    ApplyOperatorDelta(op, &out->operators[op.index]);
  }
  return Status::OK();
}

StatusOr<PollResponse> DecodePollResponse(std::string_view frame) {
  std::string_view payload;
  LQS_ASSIGN_OR_RETURN(payload, CheckFrame(frame));
  WireReader r(payload);
  PollResponse response;
  LQS_RETURN_IF_ERROR(r.GetVarint(&response.request_id));
  uint8_t flags;
  LQS_RETURN_IF_ERROR(r.GetByte(&flags));
  if ((flags & ~kPollFlagMask) != 0) {
    return Status::InvalidArgument(
        StringF("wire: undefined poll flag bits 0x%02x", flags));
  }
  response.has_snapshot = (flags & kPollFlagHasSnapshot) != 0;
  response.query_complete = (flags & kPollFlagQueryComplete) != 0;
  response.has_delta = (flags & kPollFlagHasDelta) != 0;
  if (response.has_snapshot && response.has_delta) {
    return Status::InvalidArgument(
        "wire: poll response carries both a snapshot and a delta");
  }
  if (response.has_snapshot) {
    LQS_RETURN_IF_ERROR(GetSnapshotBody(&r, &response.snapshot));
  }
  if (response.has_delta) {
    LQS_RETURN_IF_ERROR(GetDeltaBody(&r, &response.delta));
  }
  LQS_RETURN_IF_ERROR(RequireExhausted(r));
  return response;
}

}  // namespace lqs
