// Wire-format contract (src/remote/wire.h, DESIGN.md §10), on the one
// message that crosses the link, the PollResponse, in both its arms (full
// snapshot and delta):
//  - decode→re-encode is byte-identical, including randomized snapshots
//    with adversarial field values (the property the fault-tolerant client
//    leans on: an accepted snapshot is exactly what the server serialized,
//    bit-for-bit doubles included);
//  - the decoder is total: truncation at *every* prefix length, a flip of
//    *every* bit, wrong magic/version/type, trailing bytes, padded varints
//    and garbage all return a clean non-OK Status — never a crash, never an
//    out-of-bounds read (the sanitizer CI jobs run this file under
//    ASan/UBSan);
//  - a seeded mutation loop that reseals the CRC drives damaged payloads
//    into the body decoders: each frame fails or re-encodes byte-identically;
//  - deltas reassemble their target bit for bit;
//  - the fused encoders (EncodeSnapshotResponse, EncodeDeltaResponse) write
//    the bytes EncodePollResponse writes for the same message, on random
//    pairs and on an executed TPC-H trace, and append nothing on failure;
//  - the slice-by-8 CRC agrees with a bitwise reference at every length
//    and alignment;
//  - one hand-built frame per arm matches pinned bytes.

#include <cstddef>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "common/rng.h"
#include "common/stringf.h"
#include "optimizer/annotate.h"
#include "remote/wire.h"
#include "tests/test_util.h"
#include "workload/workload.h"

namespace lqs {
namespace testing {
namespace {

// Fills one operator row with adversarial values: large counters that need
// full varint width, negative sentinel times, doubles whose bit patterns
// must survive exactly, and occasional zeros to exercise the short paths.
OperatorProfile RandomProfile(Rng& rng, int node_id) {
  OperatorProfile p;
  p.node_id = node_id;
  p.parent_node_id = static_cast<int>(rng.NextInRange(-1, node_id));
  p.op_type = static_cast<OpType>(
      rng.NextBelow(static_cast<uint64_t>(OpType::kNumOpTypes)));
  // Counters spanning 1..10 varint bytes.
  p.row_count = rng.Next() >> (rng.NextBelow(64));
  p.rebind_count = rng.Next() >> (rng.NextBelow(64));
  p.logical_read_count = rng.Next() >> (rng.NextBelow(64));
  p.segment_read_count = rng.NextBelow(1000);
  p.segment_total_count = p.segment_read_count + rng.NextBelow(1000);
  p.total_pages = rng.Next() >> (rng.NextBelow(64));
  p.estimate_row_count = rng.NextDouble() * 1e12;
  p.open_time_ms = rng.NextBool(0.3) ? -1.0 : rng.NextDouble() * 1e6;
  p.cpu_time_ms = rng.NextDouble() * 1e5;
  p.io_time_ms = rng.NextDouble() * 1e5;
  p.last_active_ms = rng.NextBool(0.3) ? -1.0 : rng.NextDouble() * 1e6;
  p.first_row_ms = rng.NextBool(0.3) ? -1.0 : rng.NextDouble() * 1e6;
  p.close_time_ms = rng.NextBool(0.5) ? -1.0 : rng.NextDouble() * 1e6;
  p.opened = rng.NextBool(0.8);
  p.closed = rng.NextBool(0.3);
  p.finished = rng.NextBool(0.3);
  p.has_pushed_predicate = rng.NextBool(0.2);
  return p;
}

ProfileSnapshot RandomSnapshot(Rng& rng, double time_ms) {
  ProfileSnapshot snap;
  snap.time_ms = time_ms;
  size_t ops = 1 + rng.NextBelow(12);
  for (size_t i = 0; i < ops; ++i) {
    snap.operators.push_back(RandomProfile(rng, static_cast<int>(i)));
  }
  return snap;
}

// The delta-arm counterpart of SnapshotBytes.
std::string DeltaFrame(uint64_t request_id, const SnapshotDelta& delta) {
  PollResponse response;
  response.request_id = request_id;
  response.has_delta = true;
  response.delta = delta;
  std::string frame;
  EncodePollResponse(response, &frame);
  return frame;
}

// Advances a copy of `base` the way a running query would: same shape, some
// counters grow, some doubles move, some lifecycle flags flip. Leaving
// fields untouched (often the whole operator) exercises the presence bitmap
// and the absent-operator path of the delta codec.
ProfileSnapshot MutateTowards(Rng& rng, const ProfileSnapshot& base,
                              double time_ms) {
  ProfileSnapshot next = base;
  next.time_ms = time_ms;
  for (OperatorProfile& op : next.operators) {
    if (rng.NextBool(0.3)) continue;  // operator entirely unchanged
    if (rng.NextBool(0.7)) op.row_count += rng.NextBelow(100000);
    if (rng.NextBool(0.5)) op.logical_read_count += rng.NextBelow(5000);
    if (rng.NextBool(0.3)) op.rebind_count += rng.NextBelow(4);
    if (rng.NextBool(0.3)) op.segment_read_count += rng.NextBelow(8);
    if (rng.NextBool(0.2)) op.total_pages += rng.NextBelow(512);
    if (rng.NextBool(0.5)) op.cpu_time_ms += rng.NextDouble() * 50;
    if (rng.NextBool(0.4)) op.io_time_ms += rng.NextDouble() * 50;
    if (rng.NextBool(0.5)) op.last_active_ms = time_ms;
    if (rng.NextBool(0.2)) op.estimate_row_count = rng.NextDouble() * 1e9;
    if (rng.NextBool(0.3) && !op.opened) {
      op.opened = true;
      op.open_time_ms = time_ms;
    }
    if (rng.NextBool(0.1) && op.opened && !op.closed) {
      op.closed = true;
      op.close_time_ms = time_ms;
    }
  }
  return next;
}

// One random base snapshot and a later observation of it, shipped both
// ways: as a full-snapshot frame and as a delta frame against the base.
struct ArmFrames {
  ProfileSnapshot base;
  std::string full;
  std::string delta;
};

ArmFrames MakeArmFrames(uint64_t seed) {
  Rng rng(seed);
  ArmFrames arms;
  arms.base = RandomSnapshot(rng, 1 + rng.NextDouble() * 1e5);
  const ProfileSnapshot target =
      MutateTowards(rng, arms.base, arms.base.time_ms + 10);
  arms.full = SnapshotBytes(target);
  auto delta = MakeSnapshotDelta(arms.base, target);
  EXPECT_TRUE(delta.ok()) << delta.status().ToString();
  arms.delta = DeltaFrame(seed, delta.value());
  return arms;
}

// Rewrites the header's payload length and CRC to match the bytes after
// it, so a damaged payload passes the frame checks and reaches the body
// decoders.
void Reseal(std::string* frame) {
  const size_t payload = frame->size() - kWireHeaderSize;
  const uint32_t crc = WireCrc32(frame->data() + kWireHeaderSize, payload);
  for (int i = 0; i < 4; ++i) {
    (*frame)[4 + i] = static_cast<char>(payload >> (8 * i));
    (*frame)[8 + i] = static_cast<char>(crc >> (8 * i));
  }
}

TEST(WireTest, SnapshotRoundTripsByteIdentical) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed);
    ProfileSnapshot snap = RandomSnapshot(rng, rng.NextDouble() * 1e6);
    const std::string frame = SnapshotBytes(snap);

    auto decoded = DecodePollResponse(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_TRUE(decoded.value().has_snapshot);
    // Spot-check semantic equality...
    const ProfileSnapshot& got = decoded.value().snapshot;
    ASSERT_EQ(got.operators.size(), snap.operators.size());
    EXPECT_EQ(got.time_ms, snap.time_ms);
    for (size_t i = 0; i < snap.operators.size(); ++i) {
      EXPECT_EQ(got.operators[i].row_count, snap.operators[i].row_count);
      EXPECT_EQ(got.operators[i].open_time_ms, snap.operators[i].open_time_ms);
    }
    // ...then the full property: re-encoding reproduces the exact bytes.
    std::string reencoded;
    EncodePollResponse(decoded.value(), &reencoded);
    EXPECT_EQ(frame, reencoded) << "seed=" << seed;
  }
}

TEST(WireTest, PollResponseRoundTripsWithAndWithoutSnapshot) {
  Rng rng(7);
  PollResponse with;
  with.request_id = 0xDEADBEEFCAFEull;
  with.has_snapshot = true;
  with.query_complete = true;
  with.snapshot = RandomSnapshot(rng, 123.5);

  PollResponse without;
  without.request_id = 2;

  // The widest varint: ten bytes, the last one carrying bit 63 alone.
  PollResponse widest;
  widest.request_id = ~0ull;

  for (const PollResponse& msg : {with, without, widest}) {
    std::string frame;
    EncodePollResponse(msg, &frame);
    auto decoded = DecodePollResponse(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().request_id, msg.request_id);
    EXPECT_EQ(decoded.value().has_snapshot, msg.has_snapshot);
    EXPECT_EQ(decoded.value().query_complete, msg.query_complete);
    std::string reencoded;
    EncodePollResponse(decoded.value(), &reencoded);
    EXPECT_EQ(frame, reencoded);
  }
}

TEST(WireTest, EveryTruncationFailsCleanly) {
  Rng rng(3);
  const std::string frame = SnapshotBytes(RandomSnapshot(rng, 42.0));
  for (size_t len = 0; len < frame.size(); ++len) {
    std::string_view prefix(frame.data(), len);
    EXPECT_FALSE(DecodePollResponse(prefix).ok())
        << "prefix length " << len << " decoded";
  }
  // The untruncated frame still decodes — the loop above did not depend on
  // a broken encoder.
  EXPECT_TRUE(DecodePollResponse(frame).ok());
}

TEST(WireTest, EveryBitFlipFailsCleanly) {
  Rng rng(5);
  const std::string frame = SnapshotBytes(RandomSnapshot(rng, 17.25));
  for (size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = frame;
      damaged[byte] = static_cast<char>(damaged[byte] ^ (1 << bit));
      EXPECT_FALSE(DecodePollResponse(damaged).ok())
          << "flip of byte " << byte << " bit " << bit << " went unnoticed";
    }
  }
  EXPECT_TRUE(DecodePollResponse(frame).ok());
}

TEST(WireTest, PayloadDamageReportsDataLoss) {
  // Damage past the header is a CRC failure and must carry kDataLoss — the
  // code retry policy keys on (discard payload, do not trust any field).
  const ArmFrames arms = MakeArmFrames(9);
  for (const std::string& frame : {arms.full, arms.delta}) {
    ASSERT_GT(frame.size(), kWireHeaderSize);
    std::string damaged = frame;
    damaged[kWireHeaderSize] =
        static_cast<char>(damaged[kWireHeaderSize] ^ 0x40);
    auto decoded = DecodePollResponse(damaged);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), Status::Code::kDataLoss)
        << decoded.status().ToString();
  }
}

TEST(WireTest, HeaderChecksRejectForeignAndFutureFrames) {
  const ArmFrames arms = MakeArmFrames(13);
  for (const std::string& frame : {arms.full, arms.delta}) {
    std::string wrong_magic = frame;
    wrong_magic[0] = 'X';
    EXPECT_EQ(DecodePollResponse(wrong_magic).status().code(),
              Status::Code::kInvalidArgument);

    std::string future_version = frame;
    future_version[2] = static_cast<char>(kWireVersion + 1);
    EXPECT_EQ(DecodePollResponse(future_version).status().code(),
              Status::Code::kUnimplemented);

    // A retired message type (2 was a standalone snapshot) is foreign.
    std::string wrong_type = frame;
    wrong_type[3] = 2;
    EXPECT_EQ(DecodePollResponse(wrong_type).status().code(),
              Status::Code::kInvalidArgument);

    // Trailing bytes break the exactly-one-frame contract, whether they sit
    // outside the declared length or inside a resealed payload.
    std::string trailing = frame + '\0';
    EXPECT_FALSE(DecodePollResponse(trailing).ok());
    Reseal(&trailing);
    EXPECT_EQ(DecodePollResponse(trailing).status().code(),
              Status::Code::kInvalidArgument);
  }
}

TEST(WireTest, GarbageInputsFailWithoutCrashing) {
  EXPECT_FALSE(DecodePollResponse("").ok());
  EXPECT_FALSE(DecodePollResponse("LQ").ok());
  EXPECT_FALSE(DecodePollResponse(std::string(kWireHeaderSize, '\0')).ok());
  Rng rng(21);
  for (int i = 0; i < 64; ++i) {
    std::string garbage(rng.NextBelow(200), '\0');
    for (auto& c : garbage) c = static_cast<char>(rng.NextBelow(256));
    // Any status is fine; surviving the bytes is the property.
    (void)DecodePollResponse(garbage);  // lqs-verify: status-ok(fuzz loop)
  }
}

// PutVarint writes every value in its shortest form, so a varint padded
// with a zero final byte can only come from damage or a foreign encoder.
// Accepting it would decode to a value that re-encodes one byte shorter.
TEST(WireTest, PaddedVarintIsRejected) {
  std::string canonical;
  PollResponse response;
  response.request_id = 2;
  EncodePollResponse(response, &canonical);
  ASSERT_EQ(canonical.size(), kWireHeaderSize + 2);  // request id, flags
  ASSERT_TRUE(DecodePollResponse(canonical).ok());

  // request id 2 as 0x82 0x00, then the flags byte; CRC resealed.
  std::string padded = canonical.substr(0, kWireHeaderSize);
  padded += '\x82';
  padded += '\0';
  padded += canonical.back();
  Reseal(&padded);
  auto decoded = DecodePollResponse(padded);
  ASSERT_FALSE(decoded.ok()) << "padded varint decoded";
  EXPECT_EQ(decoded.status().code(), Status::Code::kInvalidArgument)
      << decoded.status().ToString();
}

// A seeded mutation loop over both arms. Each mutated frame is resealed so
// the damage gets past the CRC into the body decoders, where it must either
// fail with a Status or decode to a message that re-encodes to exactly the
// mutated bytes. A decoded delta arm must also apply (or fail to apply) to
// its base without crashing.
TEST(WireTest, MutatedFramesFailOrReencodeByteIdentically) {
  constexpr int kIterations = 4000;
  std::vector<ArmFrames> corpus;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    corpus.push_back(MakeArmFrames(seed));
  }
  Rng rng(0x5eed);
  int decoded_full = 0;
  int decoded_delta = 0;
  for (int i = 0; i < kIterations; ++i) {
    const ArmFrames& arms = corpus[rng.NextBelow(corpus.size())];
    std::string frame = rng.NextBool(0.5) ? arms.full : arms.delta;
    const int mutations = 1 + static_cast<int>(rng.NextBelow(3));
    for (int m = 0; m < mutations && frame.size() > kWireHeaderSize; ++m) {
      const size_t payload = frame.size() - kWireHeaderSize;
      const size_t at = kWireHeaderSize + rng.NextBelow(payload);
      switch (rng.NextBelow(5)) {
        case 0:  // flip one bit
          frame[at] = static_cast<char>(frame[at] ^ (1 << rng.NextBelow(8)));
          break;
        case 1:  // overwrite one byte
          frame[at] = static_cast<char>(rng.NextBelow(256));
          break;
        case 2:  // insert one byte
          frame.insert(at, 1, static_cast<char>(rng.NextBelow(256)));
          break;
        case 3:  // delete one byte
          frame.erase(at, 1);
          break;
        case 4:  // pad: set the continuation bit, follow it with a zero
          frame[at] = static_cast<char>(frame[at] | 0x80);
          frame.insert(at + 1, 1, '\0');
          break;
      }
    }
    Reseal(&frame);
    StatusOr<PollResponse> decoded = DecodePollResponse(frame);
    if (!decoded.ok()) continue;
    std::string reencoded;
    EncodePollResponse(decoded.value(), &reencoded);
    ASSERT_TRUE(reencoded == frame)
        << "iteration " << i << ": a " << frame.size()
        << "-byte frame decoded but re-encodes to " << reencoded.size()
        << " different bytes";
    if (decoded.value().has_snapshot) ++decoded_full;
    if (!decoded.value().has_delta) continue;
    ++decoded_delta;
    ProfileSnapshot out;
    Status applied = ApplySnapshotDelta(decoded.value().delta, arms.base, &out);
    EXPECT_TRUE(applied.ok() || applied.code() == Status::Code::kNotFound ||
                applied.code() == Status::Code::kInvalidArgument)
        << "iteration " << i << ": " << applied.ToString();
  }
  // The loop reached the body decoders of both arms, not just the framing.
  EXPECT_GT(decoded_full, kIterations / 20);
  EXPECT_GT(decoded_delta, kIterations / 20);
}

TEST(WireTest, Crc32MatchesKnownVectors) {
  // IEEE 802.3 check value for "123456789".
  EXPECT_EQ(WireCrc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(WireCrc32("", 0), 0x00000000u);
}

// The definition WireCrc32 must agree with: one bit at a time, no tables.
uint32_t BitwiseCrc32(const uint8_t* data, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

// Every length 0-64 at every start offset 0-7 runs the eight-byte loop
// zero to eight times with every tail length and alignment; one 4 KiB
// buffer runs it long.
TEST(WireTest, Crc32SliceBy8MatchesBitwiseReference) {
  Rng rng(0xc7c);
  std::vector<uint8_t> bytes(4096 + 8);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextBelow(256));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t size = 0; size <= 64; ++size) {
      EXPECT_EQ(WireCrc32(bytes.data() + offset, size),
                BitwiseCrc32(bytes.data() + offset, size))
          << "offset " << offset << " size " << size;
    }
  }
  EXPECT_EQ(WireCrc32(bytes.data() + 3, 4096),
            BitwiseCrc32(bytes.data() + 3, 4096));
}

// The fused delta encoder writes the frame EncodePollResponse writes for
// MakeSnapshotDelta's delta, after whatever `out` already held.
void ExpectFusedDeltaMatches(uint64_t request_id, const ProfileSnapshot& base,
                             const ProfileSnapshot& target,
                             const std::string& context) {
  auto delta = MakeSnapshotDelta(base, target);
  ASSERT_TRUE(delta.ok()) << context << ": " << delta.status().ToString();
  const std::string prefix = "kept";
  std::string fused = prefix;
  ASSERT_OK(EncodeDeltaResponse(request_id, base, target, &fused));
  EXPECT_EQ(fused, prefix + DeltaFrame(request_id, delta.value())) << context;
}

TEST(WireTest, FusedDeltaEncoderMatchesMakeSnapshotDelta) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    ProfileSnapshot base = RandomSnapshot(rng, rng.NextDouble() * 1e5);
    ProfileSnapshot target =
        MutateTowards(rng, base, base.time_ms + 1 + rng.NextDouble() * 100);
    ExpectFusedDeltaMatches(seed, base, target, "seed " + std::to_string(seed));
    // Nothing changed but the time: a delta with no operators.
    ProfileSnapshot idle = base;
    idle.time_ms += 1;
    ExpectFusedDeltaMatches(seed, base, idle, "idle pair");
  }

  // Every consecutive pair of one executed TPC-H trace, as the loopback
  // endpoint serves them, and each snapshot against the final one, a wider
  // diff.
  TpchOptions options;
  options.scale = 0.05;
  auto tpch = MakeTpchWorkload(options);
  ASSERT_TRUE(tpch.ok()) << tpch.status().ToString();
  ASSERT_OK(AnnotateWorkload(&tpch.value(), OptimizerOptions{}));
  const WorkloadQuery* query = nullptr;
  for (const WorkloadQuery& q : tpch.value().queries) {
    if (q.name == "q05") query = &q;
  }
  ASSERT_NE(query, nullptr);
  ExecOptions exec;
  exec.snapshot_interval_ms = 2.0;
  const ExecutionResult result =
      MustExecute(query->plan, tpch.value().catalog.get(), exec);
  const std::vector<ProfileSnapshot>& snaps = result.trace.snapshots;
  ASSERT_GT(snaps.size(), 8u);
  for (size_t s = 1; s < snaps.size(); ++s) {
    ExpectFusedDeltaMatches(s, snaps[s - 1], snaps[s],
                            StringF("q05 snapshot %zu", s));
    ExpectFusedDeltaMatches(s, snaps[s - 1], result.trace.final_snapshot,
                            StringF("q05 snapshot %zu to final", s - 1));
  }
}

TEST(WireTest, FusedSnapshotEncoderMatchesEncodePollResponse) {
  Rng rng(53);
  const ProfileSnapshot snap = RandomSnapshot(rng, 88.5);
  for (const bool complete : {false, true}) {
    PollResponse response;
    response.request_id = 0x1234567;
    response.has_snapshot = true;
    response.query_complete = complete;
    response.snapshot = snap;
    std::string expected = "kept";
    EncodePollResponse(response, &expected);
    std::string fused = "kept";
    EncodeSnapshotResponse(response.request_id, &snap, complete, &fused);
    EXPECT_EQ(fused, expected) << "query_complete=" << complete;
  }

  // "Nothing yet": no snapshot, no flags.
  PollResponse empty;
  empty.request_id = 3;
  std::string expected;
  EncodePollResponse(empty, &expected);
  std::string fused;
  EncodeSnapshotResponse(empty.request_id, nullptr, false, &fused);
  EXPECT_EQ(fused, expected);

  // A snapshot wide enough that the writer flushes its buffer mid-frame.
  ProfileSnapshot wide;
  wide.time_ms = 7;
  for (int i = 0; i < 40; ++i) wide.operators.push_back(RandomProfile(rng, i));
  PollResponse wide_response;
  wide_response.request_id = ~0ull;
  wide_response.has_snapshot = true;
  wide_response.snapshot = wide;
  expected.clear();
  EncodePollResponse(wide_response, &expected);
  ASSERT_GT(expected.size(), 2048u);
  fused.clear();
  EncodeSnapshotResponse(wide_response.request_id, &wide, false, &fused);
  EXPECT_EQ(fused, expected);
  auto decoded = DecodePollResponse(fused);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(SnapshotBytes(decoded.value().snapshot), SnapshotBytes(wide));
}

TEST(WireTest, FusedDeltaEncoderAppendsNothingForMismatchedPairs) {
  Rng rng(59);
  const ProfileSnapshot base = RandomSnapshot(rng, 100.0);
  ProfileSnapshot retyped = MutateTowards(rng, base, 110.0);
  retyped.operators.back().parent_node_id += 100;
  ProfileSnapshot extra_op = MutateTowards(rng, base, 110.0);
  extra_op.operators.push_back(
      RandomProfile(rng, static_cast<int>(extra_op.operators.size())));
  for (const ProfileSnapshot* target : {&retyped, &extra_op}) {
    const Status made = MakeSnapshotDelta(base, *target).status();
    ASSERT_EQ(made.code(), Status::Code::kInvalidArgument);
    std::string out = "held bytes";
    const Status fused = EncodeDeltaResponse(9, base, *target, &out);
    EXPECT_EQ(fused.code(), Status::Code::kInvalidArgument);
    EXPECT_EQ(fused.message(), made.message());
    EXPECT_EQ(out, "held bytes");
  }
}

TEST(WireTest, DeltaReassemblyIsByteExactOnRandomizedPairs) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    ProfileSnapshot base = RandomSnapshot(rng, rng.NextDouble() * 1e5);
    ProfileSnapshot target =
        MutateTowards(rng, base, base.time_ms + 1 + rng.NextDouble() * 100);

    auto delta = MakeSnapshotDelta(base, target);
    ASSERT_TRUE(delta.ok()) << "seed=" << seed << ": "
                            << delta.status().ToString();

    // The delta arm round-trips byte-identically like the full arm.
    const std::string frame = DeltaFrame(seed, delta.value());
    auto decoded = DecodePollResponse(frame);
    ASSERT_TRUE(decoded.ok()) << "seed=" << seed << ": "
                              << decoded.status().ToString();
    ASSERT_TRUE(decoded.value().has_delta);
    std::string reencoded;
    EncodePollResponse(decoded.value(), &reencoded);
    EXPECT_EQ(frame, reencoded) << "seed=" << seed;

    // The property the client leans on: applying the decoded delta to the
    // base reproduces the target bit-for-bit — the reassembled snapshot is
    // indistinguishable from a full-snapshot send.
    ProfileSnapshot reassembled;
    ASSERT_OK(ApplySnapshotDelta(decoded.value().delta, base, &reassembled));
    EXPECT_EQ(SnapshotBytes(target), SnapshotBytes(reassembled))
        << "seed=" << seed;
  }
}

TEST(WireTest, DeltaCarriesOnlyChangedOperatorsAndShrinksTheFrame) {
  Rng rng(31);
  // A realistically wide plan (10 operators) — the size claim below is
  // about unchanged operators costing nothing, so the snapshot must
  // actually have some.
  ProfileSnapshot base;
  base.time_ms = 1000.0;
  for (int i = 0; i < 10; ++i) {
    base.operators.push_back(RandomProfile(rng, i));
  }
  // Only operator 0 advances; every other operator must be absent from the
  // delta, and the frame must be much smaller than the full snapshot.
  ProfileSnapshot target = base;
  target.time_ms = 1010.0;
  target.operators[0].row_count += 42;
  target.operators[0].cpu_time_ms += 1.5;

  auto delta = MakeSnapshotDelta(base, target);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  ASSERT_EQ(delta.value().ops.size(), 1u);
  EXPECT_EQ(delta.value().ops[0].index, 0u);
  EXPECT_EQ(delta.value().ops[0].changed,
            static_cast<uint32_t>(kDeltaRowCount) | kDeltaCpuTime);
  EXPECT_EQ(delta.value().ops[0].counter[0], 42);

  const std::string delta_frame = DeltaFrame(1, delta.value());
  const std::string full_frame = SnapshotBytes(target);
  EXPECT_LT(delta_frame.size() * 3, full_frame.size())
      << "steady-state delta should be a small fraction of a full snapshot";

  // An identical pair deltas to "nothing changed": header-only payload.
  ProfileSnapshot same = base;
  same.time_ms = base.time_ms;
  auto empty = MakeSnapshotDelta(base, same);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().ops.empty());
  ProfileSnapshot out;
  ASSERT_OK(ApplySnapshotDelta(empty.value(), base, &out));
  EXPECT_EQ(SnapshotBytes(base), SnapshotBytes(out));
}

TEST(WireTest, DeltaAgainstWrongBaseIsNotFound) {
  Rng rng(37);
  ProfileSnapshot base = RandomSnapshot(rng, 500.0);
  ProfileSnapshot target = MutateTowards(rng, base, 510.0);
  auto delta = MakeSnapshotDelta(base, target);
  ASSERT_TRUE(delta.ok());

  // The client lost the acked base (e.g. it accepted a newer one since):
  // bit-exact time identity fails, and the caller takes the resync path.
  ProfileSnapshot other_base = base;
  other_base.time_ms = base.time_ms + 1.0;
  ProfileSnapshot out;
  Status status = ApplySnapshotDelta(delta.value(), other_base, &out);
  EXPECT_EQ(status.code(), Status::Code::kNotFound) << status.ToString();

  // Structural mismatch is a different failure: the delta cannot possibly
  // describe this plan, acked or not.
  ProfileSnapshot fewer_ops = base;
  fewer_ops.operators.pop_back();
  if (!delta.value().ops.empty()) {
    status = ApplySnapshotDelta(delta.value(), fewer_ops, &out);
    EXPECT_EQ(status.code(), Status::Code::kInvalidArgument)
        << status.ToString();
  }
}

TEST(WireTest, DeltaRefusesStructurallyMismatchedPairs) {
  Rng rng(41);
  ProfileSnapshot base = RandomSnapshot(rng, 100.0);

  ProfileSnapshot extra_op = base;
  extra_op.time_ms = 110.0;
  extra_op.operators.push_back(RandomProfile(
      rng, static_cast<int>(extra_op.operators.size())));
  EXPECT_EQ(MakeSnapshotDelta(base, extra_op).status().code(),
            Status::Code::kInvalidArgument);

  ProfileSnapshot retyped = base;
  retyped.time_ms = 110.0;
  retyped.operators[0].node_id += 100;
  EXPECT_EQ(MakeSnapshotDelta(base, retyped).status().code(),
            Status::Code::kInvalidArgument);
}

TEST(WireTest, DeltaFrameSurvivesTruncationAndBitFlips) {
  const std::string frame = MakeArmFrames(43).delta;
  for (size_t len = 0; len < frame.size(); ++len) {
    std::string_view prefix(frame.data(), len);
    EXPECT_FALSE(DecodePollResponse(prefix).ok())
        << "prefix length " << len << " decoded";
  }
  for (size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = frame;
      damaged[byte] = static_cast<char>(damaged[byte] ^ (1 << bit));
      EXPECT_FALSE(DecodePollResponse(damaged).ok())
          << "flip of byte " << byte << " bit " << bit << " went unnoticed";
    }
  }
  EXPECT_TRUE(DecodePollResponse(frame).ok());
}

TEST(WireTest, PollResponseDeltaArmRoundTripsByteIdentical) {
  Rng rng(47);
  ProfileSnapshot base = RandomSnapshot(rng, 60.0);
  ProfileSnapshot target = MutateTowards(rng, base, 75.0);
  auto delta = MakeSnapshotDelta(base, target);
  ASSERT_TRUE(delta.ok());

  const std::string frame = DeltaFrame(77, delta.value());
  auto decoded = DecodePollResponse(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().request_id, 77u);
  EXPECT_FALSE(decoded.value().has_snapshot);
  ASSERT_TRUE(decoded.value().has_delta);
  EXPECT_EQ(decoded.value().delta.ops.size(), delta.value().ops.size());
  std::string reencoded;
  EncodePollResponse(decoded.value(), &reencoded);
  EXPECT_EQ(frame, reencoded);

  // The reassembly chain works through the response envelope too.
  ProfileSnapshot out;
  ASSERT_OK(ApplySnapshotDelta(decoded.value().delta, base, &out));
  EXPECT_EQ(SnapshotBytes(target), SnapshotBytes(out));
}

std::string Hex(const std::string& bytes) {
  std::string hex;
  for (const char c : bytes) {
    hex += StringF("%02x", static_cast<unsigned char>(c));
  }
  return hex;
}

// The round-trip tests above hold for any self-consistent codec; this one
// pins the bytes themselves, so a change to field order, presence-bit
// assignment, varint/zigzag/xor-compact forms or the gap encoding fails
// here even when encoder and decoder change together.
TEST(WireTest, FramesMatchPinnedBytes) {
  // Full arm: every OperatorProfile field distinct, mixed flags.
  PollResponse full;
  full.request_id = 7;
  full.has_snapshot = true;
  full.query_complete = true;
  full.snapshot.time_ms = 250.5;
  OperatorProfile join;
  join.node_id = 0;
  join.parent_node_id = -1;
  join.op_type = OpType::kHashJoin;
  join.row_count = 1000;
  join.estimate_row_count = 1234.5;
  join.rebind_count = 3;
  join.logical_read_count = 300;
  join.segment_read_count = 4;
  join.segment_total_count = 9;
  join.open_time_ms = 1.25;
  join.cpu_time_ms = 2.5;
  join.io_time_ms = 3.75;
  join.last_active_ms = 12.0;
  join.first_row_ms = 1.5;
  join.close_time_ms = -1.0;
  join.opened = true;
  join.has_pushed_predicate = true;
  join.total_pages = 128;
  OperatorProfile scan;
  scan.node_id = 1;
  scan.parent_node_id = 0;
  scan.op_type = OpType::kColumnstoreScan;
  scan.row_count = 70000;
  scan.estimate_row_count = 65536.0;
  scan.rebind_count = 5;
  scan.logical_read_count = 17;
  scan.segment_read_count = 6;
  scan.segment_total_count = 8;
  scan.open_time_ms = 0.5;
  scan.cpu_time_ms = 7.0;
  scan.io_time_ms = 0.125;
  scan.last_active_ms = 11.0;
  scan.first_row_ms = 0.75;
  scan.close_time_ms = 10.5;
  scan.opened = true;
  scan.closed = true;
  scan.finished = true;
  scan.total_pages = 2;
  full.snapshot.operators = {join, scan};
  std::string full_frame;
  EncodePollResponse(full, &full_frame);
  EXPECT_EQ(Hex(full_frame),
            "4c510104940000004ac3e12807030000000000506f400200010ee80700000000"
            "004a934003ac020409000000000000f43f00000000000004400000000000000e"
            "400000000000002840000000000000f83f000000000000f0bf098001020006f0"
            "a204000000000000f04005110608000000000000e03f0000000000001c400000"
            "00000000c03f0000000000002640000000000000e83f00000000000025400702");

  // Delta arm against a 3-operator base: operator 0 takes scan's values,
  // which changes all 14 fields and sends some counters down (negative
  // zigzags); operator 1 changes nothing; operator 2 changes only
  // io_time_ms, so the index stream has a gap.
  OperatorProfile idle = scan;
  idle.node_id = 2;
  idle.parent_node_id = 1;
  ProfileSnapshot base;
  base.time_ms = 100.0;
  base.operators = {join, scan, idle};
  ProfileSnapshot target = base;
  target.time_ms = 105.0;
  OperatorProfile& moved = target.operators[0];
  moved = scan;
  moved.node_id = join.node_id;
  moved.parent_node_id = join.parent_node_id;
  moved.op_type = join.op_type;
  target.operators[2].io_time_ms = 2.0;
  auto delta = MakeSnapshotDelta(base, target);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  ASSERT_EQ(delta.value().ops.size(), 2u);
  EXPECT_EQ(delta.value().ops[0].changed, kDeltaFieldMask);
  const std::string delta_frame = DeltaFrame(8, delta.value());
  EXPECT_EQ(Hex(delta_frame),
            "4c51010439000000648615ef080400000000000059400000000000405a400302"
            "00ff7f90b60804b5040401fb01524a636114611862ce7f610e611062d5ff0701"
            "800462c07f");
}

}  // namespace
}  // namespace testing
}  // namespace lqs
