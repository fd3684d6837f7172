// Wire-format throughput benchmark: encodes and decodes the DMV snapshot
// stream of the TPC-DS / TPC-H bench workloads as full-snapshot PollResponse
// frames — the bytes a polling client decodes — and reports sustained
// encode/decode bandwidth plus frame sizes, the serialization cost a remote
// monitor pays per 500 ms poll (DESIGN.md §10). The trailing "BENCH {...}"
// JSON line is the machine-readable result (scripts/bench.sh collects it).
//
//   $ ./build/bench/wire_throughput
//
// Every run also re-verifies the round-trip contract on every frame:
// decode(encode(x)) re-encodes byte-identically, or the benchmark fails.

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "remote/wire.h"
#include "workload/workload.h"

using namespace lqs;         // NOLINT: bench code
using namespace lqs::bench;  // NOLINT

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  TpcdsOptions ds;
  ds.scale = 0.2;
  auto wds = MakeTpcdsWorkload(ds);
  TpchOptions h;
  h.scale = 0.2;
  auto wh = MakeTpchWorkload(h);
  if (!wds.ok() || !wh.ok()) {
    std::fprintf(stderr, "workload construction failed\n");
    return 1;
  }
  OptimizerOptions oo;
  oo.selectivity_error = kBenchSelectivityError;
  if (!AnnotateWorkload(&wds.value(), oo).ok() ||
      !AnnotateWorkload(&wh.value(), oo).ok()) {
    return 1;
  }

  ExecOptions exec;
  exec.snapshot_interval_ms = kBenchSnapshotIntervalMs;
  std::vector<ProfileTrace> traces;
  size_t snapshot_count = 0;
  size_t operator_rows = 0;
  for (Workload* w : {&wds.value(), &wh.value()}) {
    for (const WorkloadQuery& q : w->queries) {
      auto result = ExecuteQuery(q.plan, w->catalog.get(), exec);
      if (!result.ok()) continue;
      for (const ProfileSnapshot& s : result.value().trace.snapshots) {
        snapshot_count++;
        operator_rows += s.operators.size();
      }
      traces.push_back(std::move(result.value().trace));
    }
  }
  if (traces.empty() || snapshot_count == 0) {
    std::fprintf(stderr, "no traces produced\n");
    return 1;
  }

  // One full-snapshot PollResponse per snapshot, the unit the client
  // decodes. Correctness first: every frame survives the wire
  // byte-identically.
  std::vector<PollResponse> responses;
  std::vector<std::string> frames;
  size_t snapshot_bytes = 0;
  for (ProfileTrace& trace : traces) {
    for (ProfileSnapshot& snap : trace.snapshots) {
      PollResponse response;
      response.request_id = responses.size() + 1;
      response.has_snapshot = true;
      response.snapshot = std::move(snap);
      std::string frame;
      EncodePollResponse(response, &frame);
      auto decoded = DecodePollResponse(frame);
      std::string reencoded;
      if (decoded.ok()) EncodePollResponse(decoded.value(), &reencoded);
      if (reencoded != frame) {
        std::fprintf(stderr, "frame %zu does not round-trip (decode: %s)\n",
                     responses.size(), decoded.status().ToString().c_str());
        return 1;
      }
      snapshot_bytes += frame.size();
      responses.push_back(std::move(response));
      frames.push_back(std::move(frame));
    }
  }

  // Encode bandwidth: re-serialize the whole response stream until enough
  // wall time has accumulated for a stable rate.
  const double kMinSeconds = 0.3;
  size_t encode_bytes = 0;
  size_t encode_frames = 0;
  auto start = std::chrono::steady_clock::now();
  std::string scratch;
  do {
    for (const PollResponse& response : responses) {
      scratch.clear();
      EncodePollResponse(response, &scratch);
      encode_bytes += scratch.size();
      ++encode_frames;
    }
  } while (SecondsSince(start) < kMinSeconds);
  const double encode_seconds = SecondsSince(start);

  // Decode bandwidth over the pre-encoded frames.
  size_t decode_bytes = 0;
  size_t decode_frames = 0;
  start = std::chrono::steady_clock::now();
  do {
    for (const std::string& frame : frames) {
      auto decoded = DecodePollResponse(frame);
      if (!decoded.ok()) {
        std::fprintf(stderr, "decode failed mid-benchmark\n");
        return 1;
      }
      decode_bytes += frame.size();
      ++decode_frames;
    }
  } while (SecondsSince(start) < kMinSeconds);
  const double decode_seconds = SecondsSince(start);

  const double mb = 1024.0 * 1024.0;
  const double encode_mb_per_sec = encode_bytes / mb / encode_seconds;
  const double decode_mb_per_sec = decode_bytes / mb / decode_seconds;
  const double bytes_per_snapshot =
      static_cast<double>(snapshot_bytes) / static_cast<double>(snapshot_count);
  const double bytes_per_operator_row =
      static_cast<double>(snapshot_bytes) / static_cast<double>(operator_rows);
  // In-memory footprint of the same data, for a wire-compression ratio.
  const double inmemory_bytes =
      static_cast<double>(operator_rows) * sizeof(OperatorProfile);

  std::printf("wire_throughput: %zu traces, %zu snapshots, %zu operator rows\n",
              traces.size(), snapshot_count, operator_rows);
  std::printf("  encode %.1f MB/s (%zu frames), decode %.1f MB/s (%zu frames)\n",
              encode_mb_per_sec, encode_frames, decode_mb_per_sec,
              decode_frames);
  std::printf("  %.1f bytes/snapshot, %.1f bytes/operator-row, %.2fx vs "
              "in-memory\n",
              bytes_per_snapshot, bytes_per_operator_row,
              inmemory_bytes / static_cast<double>(snapshot_bytes));

  std::printf(
      "BENCH {\"bench\":\"wire_throughput\",\"traces\":%zu,"
      "\"snapshots\":%zu,\"operator_rows\":%zu,"
      "\"encode_mb_per_sec\":%.1f,\"decode_mb_per_sec\":%.1f,"
      "\"bytes_per_snapshot\":%.1f,\"bytes_per_operator_row\":%.1f,"
      "\"roundtrip_byte_identical\":true}\n",
      traces.size(), snapshot_count, operator_rows, encode_mb_per_sec,
      decode_mb_per_sec, bytes_per_snapshot, bytes_per_operator_row);
  return 0;
}
