// Behavior of the remote snapshot transport (src/remote/, DESIGN.md §10):
//  - LoopbackEndpoint answers polls from a trace and flags completion;
//  - PollingClient retries with exponential backoff on transport failures,
//    counts decode errors separately, filters duplicates, reordered
//    deliveries and snapshots running any monotone counter backwards, so
//    accepted snapshot timestamps are strictly increasing, degrades
//    (recoverably) after a consecutive-failure budget, and holds the last
//    accepted snapshot, exactly as sent, on stale ticks;
//  - snapshot deltas reassemble byte-exactly against the acked base, with
//    keyframe resync on any gap, pass the same duplicate/regression gate
//    without touching the held snapshot when rejected, and save most of the
//    wire bytes;
//  - FaultInjectingEndpoint's drops/delays/duplicates/corruption never
//    wedge a session or break monotonicity;
//  - the ISSUE acceptance run: 64 monitored sessions over a lossy link
//    (drop=10%, delay up to 3 polling intervals, dup=5%, seeded) all
//    complete, each session's rendered snapshot timestamps are monotone,
//    and every final progress lands within 5 points of the fault-free run;
//  - a 64-session delta fleet under perfbench fleet_churn's fault mix shows
//    the same statuses and stats on one and four threads, and its status
//    digest and transport counters are pinned;
//  - local, full and delta sessions of every TPC-H and TPC-DS query show
//    the same state, progress and snapshot bytes on every tick;
//  - full and delta sessions on one monitor sum exactly into its transport
//    stats;
//  - a 256-session fleet over every TPC-H and TPC-DS query shows the same
//    statuses on every tick under the full transport on one thread and the
//    delta transport on one and eight threads, and the delta transport
//    moves under a third of the full transport's bytes.

#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "common/stringf.h"
#include "monitor/monitor_service.h"
#include "optimizer/annotate.h"
#include "remote/endpoint.h"
#include "remote/fault_injection.h"
#include "remote/polling_client.h"
#include "remote/wire.h"
#include "tests/test_util.h"
#include "workload/plan_builder.h"
#include "workload/workload.h"

namespace lqs {
namespace testing {
namespace {

using namespace pb;  // NOLINT

// Endpoint that replays a scripted list of responses (then times out),
// recording every request it sees. Lets the tests pin down exact retry,
// filter and degradation behavior without probabilistic machinery.
class ScriptedEndpoint : public SnapshotEndpoint {
 public:
  using Step = std::function<PollResult(const PollRequest&)>;

  PollResult Poll(const PollRequest& request) override {
    requests.push_back(request);
    if (script.empty()) {
      PollResult timeout;
      timeout.status = Status::DeadlineExceeded("script exhausted");
      timeout.arrival_ms = request.deadline_ms;
      return timeout;
    }
    Step step = std::move(script.front());
    script.pop_front();
    return step(request);
  }

  std::deque<Step> script;
  std::vector<PollRequest> requests;
};

// One-operator snapshot at `time_ms` with `rows` output rows.
ProfileSnapshot TinySnapshot(double time_ms, uint64_t rows) {
  ProfileSnapshot snap;
  snap.time_ms = time_ms;
  snap.operators.resize(1);
  snap.operators[0].node_id = 0;
  snap.operators[0].row_count = rows;
  snap.operators[0].cpu_time_ms = time_ms;
  return snap;
}

ScriptedEndpoint::Step Respond(ProfileSnapshot snap, bool complete = false) {
  return [snap, complete](const PollRequest& request) {
    PollResponse response;
    response.request_id = request.request_id;
    response.has_snapshot = true;
    response.query_complete = complete;
    response.snapshot = snap;
    PollResult result;
    EncodePollResponse(response, &result.frame);
    result.arrival_ms = request.now_ms;
    return result;
  };
}

// Answers with the delta arm that turns `base` into `target`.
ScriptedEndpoint::Step RespondDelta(const ProfileSnapshot& base,
                                    const ProfileSnapshot& target) {
  StatusOr<SnapshotDelta> made = MakeSnapshotDelta(base, target);
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  SnapshotDelta delta = std::move(made).value();
  return [delta](const PollRequest& request) {
    PollResponse response;
    response.request_id = request.request_id;
    response.has_delta = true;
    response.delta = delta;
    PollResult result;
    EncodePollResponse(response, &result.frame);
    result.arrival_ms = request.now_ms;
    return result;
  };
}

ScriptedEndpoint::Step TimeOut() {
  return [](const PollRequest& request) {
    PollResult result;
    result.status = Status::DeadlineExceeded("scripted timeout");
    result.arrival_ms = request.deadline_ms;
    return result;
  };
}

ScriptedEndpoint::Step Garbage() {
  return [](const PollRequest& request) {
    PollResult result;
    result.status = Status::OK();  // link looks fine; bytes are trash
    result.frame = "not a frame";
    result.arrival_ms = request.now_ms;
    return result;
  };
}

TEST(LoopbackEndpointTest, ServesTraceSnapshotsAndCompletion) {
  ProfileTrace trace;
  trace.snapshots = {TinySnapshot(10, 100), TinySnapshot(20, 200)};
  trace.final_snapshot = TinySnapshot(30, 300);
  trace.total_elapsed_ms = 30;
  LoopbackEndpoint endpoint(&trace);
  EXPECT_DOUBLE_EQ(endpoint.KnownHorizonMs(), 30.0);

  auto poll = [&endpoint](double now) {
    PollRequest request;
    request.now_ms = now;
    request.deadline_ms = now + 50;
    PollResult result = endpoint.Poll(request);
    EXPECT_TRUE(result.status.ok());
    auto response = DecodePollResponse(result.frame);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.value();
  };

  PollResponse early = poll(5);  // before the first DMV sample
  EXPECT_FALSE(early.has_snapshot);

  PollResponse mid = poll(12);
  ASSERT_TRUE(mid.has_snapshot);
  EXPECT_FALSE(mid.query_complete);
  EXPECT_DOUBLE_EQ(mid.snapshot.time_ms, 10.0);

  PollResponse done = poll(31);
  ASSERT_TRUE(done.has_snapshot);
  EXPECT_TRUE(done.query_complete);
  EXPECT_EQ(done.snapshot.operators[0].row_count, 300u);
}

TEST(PollingClientTest, AcceptsFreshHoldsStaleAndCompletes) {
  ProfileTrace trace;
  trace.snapshots = {TinySnapshot(10, 100), TinySnapshot(20, 200)};
  trace.final_snapshot = TinySnapshot(30, 300);
  trace.total_elapsed_ms = 30;
  PollingClientOptions options;
  options.max_attempts = 1;
  PollingClient client(std::make_unique<LoopbackEndpoint>(&trace), options);

  const ClientView& v0 = client.Poll(5);  // server has nothing yet
  EXPECT_EQ(v0.snapshot, nullptr);
  EXPECT_FALSE(v0.stale);
  EXPECT_EQ(client.stats().failed_polls, 0u) << "no data != link failure";

  const ClientView& v1 = client.Poll(12);
  ASSERT_NE(v1.snapshot, nullptr);
  EXPECT_DOUBLE_EQ(v1.snapshot->time_ms, 10.0);
  EXPECT_FALSE(v1.stale);
  EXPECT_DOUBLE_EQ(v1.staleness_ms, 2.0);

  const ClientView& v2 = client.Poll(14);  // nothing new on the server
  ASSERT_NE(v2.snapshot, nullptr);
  EXPECT_DOUBLE_EQ(v2.snapshot->time_ms, 10.0);  // held
  EXPECT_TRUE(v2.stale);
  EXPECT_DOUBLE_EQ(v2.staleness_ms, 4.0);
  EXPECT_EQ(client.stats().duplicates_ignored, 1u);

  const ClientView& v3 = client.Poll(35);
  ASSERT_NE(v3.snapshot, nullptr);
  EXPECT_TRUE(v3.query_complete);
  EXPECT_TRUE(client.complete());
  ASSERT_NE(client.final_snapshot(), nullptr);
  EXPECT_EQ(client.final_snapshot()->operators[0].row_count, 300u);

  // Post-completion polls are served from memory, not the link.
  uint64_t polls_before = client.stats().polls;
  const ClientView& v4 = client.Poll(40);
  EXPECT_TRUE(v4.query_complete);
  EXPECT_FALSE(v4.stale) << "final counters are current truth, not stale";
  EXPECT_EQ(client.stats().polls, polls_before);
}

TEST(PollingClientTest, RetriesWithMonotoneBackoffThenAccepts) {
  auto scripted = std::make_unique<ScriptedEndpoint>();
  ScriptedEndpoint* endpoint = scripted.get();
  endpoint->script.push_back(TimeOut());
  endpoint->script.push_back(TimeOut());
  endpoint->script.push_back(Respond(TinySnapshot(7, 70)));

  PollingClientOptions options;
  options.max_attempts = 4;
  options.backoff_initial_ms = 10;
  options.backoff_multiplier = 2.0;
  options.jitter_fraction = 0.2;
  PollingClient client(std::move(scripted), options);

  const ClientView& view = client.Poll(100);
  ASSERT_NE(view.snapshot, nullptr);
  EXPECT_DOUBLE_EQ(view.snapshot->time_ms, 7.0);
  EXPECT_EQ(client.stats().attempts, 3u);
  EXPECT_EQ(client.stats().retries, 2u);
  EXPECT_EQ(client.stats().transport_failures, 2u);
  EXPECT_EQ(client.stats().accepted, 1u);
  EXPECT_EQ(view.consecutive_failures, 0);

  // The retries advanced virtual time by jittered exponential backoff:
  // attempt k+1 is at least (1 - jitter) * backoff_k after attempt k.
  ASSERT_EQ(endpoint->requests.size(), 3u);
  EXPECT_DOUBLE_EQ(endpoint->requests[0].now_ms, 100.0);
  double gap1 = endpoint->requests[1].now_ms - endpoint->requests[0].now_ms;
  double gap2 = endpoint->requests[2].now_ms - endpoint->requests[1].now_ms;
  EXPECT_GE(gap1, 10.0 * 0.8);
  EXPECT_LE(gap1, 10.0 * 1.2);
  EXPECT_GE(gap2, 20.0 * 0.8);
  EXPECT_LE(gap2, 20.0 * 1.2);
  // Every request respects its per-attempt deadline window.
  for (const PollRequest& r : endpoint->requests) {
    EXPECT_DOUBLE_EQ(r.deadline_ms - r.now_ms, options.timeout_ms);
  }
}

TEST(PollingClientTest, ArrivalPastDeadlineCountsAsTimeout) {
  auto scripted = std::make_unique<ScriptedEndpoint>();
  scripted->script.push_back([](const PollRequest& request) {
    PollResult result;  // bytes arrive, but after the client stopped waiting
    EncodePollResponse(PollResponse{}, &result.frame);
    result.arrival_ms = request.deadline_ms + 1;
    return result;
  });
  PollingClientOptions options;
  options.max_attempts = 1;
  PollingClient client(std::move(scripted), options);
  client.Poll(0);
  EXPECT_EQ(client.stats().transport_failures, 1u);
  EXPECT_EQ(client.stats().failed_polls, 1u);
}

// The gate covers every counter the executor only ever advances: rows,
// and one input per further counter below, each newer but running exactly
// that counter backwards. Lifecycle flags are not gated: a rebound inner
// whose `finished` drops back to false is served exactly as sent.
TEST(PollingClientTest, RejectsRegressionsAndIgnoresDuplicates) {
  // Every monotone counter nonzero, finished: an inner between rebinds.
  ProfileSnapshot accepted = TinySnapshot(30, 300);
  accepted.operators[0].rebind_count = 4;
  accepted.operators[0].logical_read_count = 40;
  accepted.operators[0].segment_read_count = 4;
  accepted.operators[0].segment_total_count = 8;
  accepted.operators[0].io_time_ms = 20;
  accepted.operators[0].last_active_ms = 30;
  accepted.operators[0].finished = true;
  std::vector<ProfileSnapshot> regressions(6, accepted);
  for (size_t field = 0; field < regressions.size(); ++field) {
    regressions[field].time_ms = 31.0 + static_cast<double>(field);
    OperatorProfile& op = regressions[field].operators[0];
    switch (field) {
      case 0: --op.logical_read_count; break;
      case 1: --op.segment_read_count; break;
      case 2: --op.segment_total_count; break;
      case 3: op.cpu_time_ms -= 1; break;
      case 4: op.io_time_ms -= 1; break;
      case 5: op.last_active_ms -= 1; break;
    }
  }
  ProfileSnapshot rebound = accepted;
  rebound.time_ms = 40;
  rebound.operators[0].rebind_count += 1;
  rebound.operators[0].finished = false;

  auto scripted = std::make_unique<ScriptedEndpoint>();
  scripted->script.push_back(Respond(TinySnapshot(20, 200)));
  scripted->script.push_back(Respond(TinySnapshot(10, 100)));  // reordered
  scripted->script.push_back(Respond(TinySnapshot(20, 200)));  // duplicate
  // Newer timestamp but counters ran backwards: not a later observation.
  scripted->script.push_back(Respond(TinySnapshot(25, 150)));
  scripted->script.push_back(Respond(accepted));
  for (const ProfileSnapshot& snap : regressions) {
    scripted->script.push_back(Respond(snap));
  }
  scripted->script.push_back(Respond(rebound));

  PollingClientOptions options;
  options.max_attempts = 1;
  PollingClient client(std::move(scripted), options);

  EXPECT_DOUBLE_EQ(client.Poll(21).snapshot->time_ms, 20.0);
  const ClientView& stale1 = client.Poll(22);
  EXPECT_DOUBLE_EQ(stale1.snapshot->time_ms, 20.0);  // regression filtered
  EXPECT_TRUE(stale1.stale);
  const ClientView& stale2 = client.Poll(23);
  EXPECT_DOUBLE_EQ(stale2.snapshot->time_ms, 20.0);  // duplicate filtered
  const ClientView& stale3 = client.Poll(26);
  EXPECT_DOUBLE_EQ(stale3.snapshot->time_ms, 20.0);  // counter regression
  const ClientView& fresh = client.Poll(31);
  EXPECT_DOUBLE_EQ(fresh.snapshot->time_ms, 30.0);
  EXPECT_FALSE(fresh.stale);

  for (size_t i = 0; i < regressions.size(); ++i) {
    const ClientView& view = client.Poll(regressions[i].time_ms);
    EXPECT_TRUE(view.stale) << "field " << i;
    EXPECT_EQ(SnapshotBytes(*view.snapshot), SnapshotBytes(accepted))
        << "field " << i << " regression changed the view";
    EXPECT_EQ(client.stats().regressions_rejected, i + 3) << "field " << i;
  }
  const ClientView& moved = client.Poll(41);
  EXPECT_FALSE(moved.stale);
  EXPECT_FALSE(moved.snapshot->operators[0].finished);
  EXPECT_EQ(SnapshotBytes(*moved.snapshot), SnapshotBytes(rebound));

  EXPECT_EQ(client.stats().accepted, 3u);
  EXPECT_EQ(client.stats().duplicates_ignored, 1u);
  EXPECT_EQ(client.stats().regressions_rejected, 2 + regressions.size());
}

// The same gate on the delta arm. The regression advances operator 0 before
// operator 1 runs backwards, so a client that applied operators while still
// checking them would leave operator 0 moved in the held snapshot.
TEST(PollingClientTest, DeltaArmRejectsRegressionsAndResyncs) {
  ProfileSnapshot held;
  held.time_ms = 20;
  held.operators.resize(2);
  held.operators[0].node_id = 0;
  held.operators[0].parent_node_id = -1;
  held.operators[1].node_id = 1;
  held.operators[1].parent_node_id = 0;
  for (OperatorProfile& op : held.operators) {
    op.row_count = 200;
    op.cpu_time_ms = 10;
    op.io_time_ms = 5;
    op.last_active_ms = 20;
    op.opened = true;
  }
  ProfileSnapshot regressed = held;
  regressed.time_ms = 30;
  regressed.operators[0].row_count = 300;
  regressed.operators[0].last_active_ms = 30;
  regressed.operators[1].io_time_ms = 4;
  ProfileSnapshot same_time = held;
  same_time.operators[0].row_count = 250;
  ProfileSnapshot advanced = held;
  advanced.time_ms = 40;
  advanced.operators[0].row_count = 400;
  advanced.operators[0].cpu_time_ms = 12.5;
  advanced.operators[1].io_time_ms = 6;
  advanced.operators[1].finished = true;
  ProfileSnapshot later = advanced;
  later.time_ms = 50;
  later.operators[0].row_count = 500;

  auto scripted = std::make_unique<ScriptedEndpoint>();
  ScriptedEndpoint* endpoint = scripted.get();
  endpoint->script.push_back(Respond(held));
  endpoint->script.push_back(RespondDelta(held, regressed));
  endpoint->script.push_back(RespondDelta(held, same_time));
  endpoint->script.push_back(RespondDelta(held, advanced));
  // The client now holds `advanced`; a delta against `held` has no base.
  endpoint->script.push_back(RespondDelta(held, later));
  endpoint->script.push_back(Respond(later));

  PollingClientOptions options;
  options.max_attempts = 1;
  PollingClient client(std::move(scripted), options);
  const std::string held_bytes = SnapshotBytes(held);

  ASSERT_NE(client.Poll(21).snapshot, nullptr);
  EXPECT_EQ(SnapshotBytes(*client.view().snapshot), held_bytes);

  const ClientView& rejected = client.Poll(31);
  EXPECT_TRUE(rejected.stale);
  EXPECT_EQ(client.stats().regressions_rejected, 1u);
  EXPECT_EQ(SnapshotBytes(*rejected.snapshot), held_bytes)
      << "a rejected delta changed the held snapshot";

  const ClientView& duplicate = client.Poll(32);
  EXPECT_TRUE(duplicate.stale);
  EXPECT_EQ(client.stats().duplicates_ignored, 1u);
  EXPECT_EQ(SnapshotBytes(*duplicate.snapshot), held_bytes);

  const ClientView& fresh = client.Poll(41);
  EXPECT_FALSE(fresh.stale);
  EXPECT_EQ(client.stats().accepted, 2u);
  EXPECT_EQ(SnapshotBytes(*fresh.snapshot), SnapshotBytes(advanced));

  const ClientView& resync = client.Poll(51);
  EXPECT_TRUE(resync.stale);
  EXPECT_EQ(client.stats().delta_resyncs, 1u);
  EXPECT_EQ(SnapshotBytes(*resync.snapshot), SnapshotBytes(advanced));
  ASSERT_EQ(endpoint->requests.size(), 5u);
  EXPECT_FALSE(endpoint->requests[4].want_keyframe);

  const ClientView& keyframe = client.Poll(52);
  ASSERT_EQ(endpoint->requests.size(), 6u);
  EXPECT_TRUE(endpoint->requests[5].want_keyframe);
  EXPECT_FALSE(keyframe.stale);
  EXPECT_EQ(SnapshotBytes(*keyframe.snapshot), SnapshotBytes(later));

  EXPECT_EQ(client.stats().accepted, 3u);
  EXPECT_EQ(client.stats().regressions_rejected, 1u);
  EXPECT_EQ(client.stats().duplicates_ignored, 1u);
  EXPECT_EQ(client.stats().decode_errors, 0u);
}

TEST(PollingClientTest, RetryChasesFreshDataBehindStaleDelivery) {
  // First attempt of the poll yields a reordered stale response; the retry
  // budget is spent chasing, and the second attempt lands the fresh one.
  auto scripted = std::make_unique<ScriptedEndpoint>();
  scripted->script.push_back(Respond(TinySnapshot(20, 200)));
  scripted->script.push_back(Respond(TinySnapshot(10, 100)));  // stale first
  scripted->script.push_back(Respond(TinySnapshot(30, 300)));  // then fresh

  PollingClientOptions options;
  options.max_attempts = 2;
  PollingClient client(std::move(scripted), options);
  client.Poll(21);
  const ClientView& view = client.Poll(31);
  ASSERT_NE(view.snapshot, nullptr);
  EXPECT_DOUBLE_EQ(view.snapshot->time_ms, 30.0);
  EXPECT_FALSE(view.stale);
  EXPECT_EQ(client.stats().regressions_rejected, 1u);
}

TEST(PollingClientTest, DecodeErrorsDegradeThenOneResponseRecovers) {
  auto scripted = std::make_unique<ScriptedEndpoint>();
  ScriptedEndpoint* endpoint = scripted.get();
  for (int i = 0; i < 3; ++i) endpoint->script.push_back(Garbage());

  PollingClientOptions options;
  options.max_attempts = 1;
  options.degrade_after_failures = 3;
  PollingClient client(std::move(scripted), options);

  EXPECT_EQ(client.Poll(1).health, TransportHealth::kHealthy);
  EXPECT_EQ(client.Poll(2).health, TransportHealth::kHealthy);
  const ClientView& degraded = client.Poll(3);
  EXPECT_EQ(degraded.health, TransportHealth::kDegraded);
  EXPECT_EQ(degraded.consecutive_failures, 3);
  EXPECT_EQ(client.stats().decode_errors, 3u);
  EXPECT_EQ(client.stats().transport_failures, 0u)
      << "damaged bytes are decode errors, not transport failures";

  // Degraded is recoverable: one decodable response resets the budget.
  endpoint->script.push_back(Respond(TinySnapshot(4, 40)));
  const ClientView& recovered = client.Poll(4);
  EXPECT_EQ(recovered.health, TransportHealth::kHealthy);
  EXPECT_EQ(recovered.consecutive_failures, 0);
  ASSERT_NE(recovered.snapshot, nullptr);
  EXPECT_DOUBLE_EQ(recovered.snapshot->time_ms, 4.0);
}

TEST(PollingClientTest, HoldPolicyNeverFabricatesCounters) {
  auto scripted = std::make_unique<ScriptedEndpoint>();
  scripted->script.push_back(Respond(TinySnapshot(10, 100)));
  scripted->script.push_back(Respond(TinySnapshot(20, 200)));
  PollingClientOptions options;
  options.max_attempts = 1;  // script exhaustion -> timeouts afterwards
  PollingClient client(std::move(scripted), options);
  client.Poll(11);
  client.Poll(21);
  const ClientView& held = client.Poll(35);
  ASSERT_NE(held.snapshot, nullptr);
  EXPECT_TRUE(held.stale);
  EXPECT_DOUBLE_EQ(held.snapshot->time_ms, 20.0);
  EXPECT_EQ(held.snapshot->operators[0].row_count, 200u);
  EXPECT_DOUBLE_EQ(held.staleness_ms, 15.0);
}

TEST(PollingClientTest, CountsRequestIdMismatchesButKeepsLateData) {
  auto scripted = std::make_unique<ScriptedEndpoint>();
  ScriptedEndpoint* endpoint = scripted.get();
  // First response answers some other request id — a late or misrouted
  // delivery. The payload is real data and still flows through the recency
  // filter; the mismatch is counted, not fatal.
  endpoint->script.push_back([](const PollRequest& request) {
    PollResponse response;
    response.request_id = request.request_id + 1000;
    response.has_snapshot = true;
    response.snapshot = TinySnapshot(10, 100);
    PollResult result;
    EncodePollResponse(response, &result.frame);
    result.arrival_ms = request.now_ms;
    return result;
  });
  endpoint->script.push_back(Respond(TinySnapshot(20, 200)));

  PollingClientOptions options;
  options.max_attempts = 1;
  PollingClient client(std::move(scripted), options);

  const ClientView& first = client.Poll(11);
  ASSERT_NE(first.snapshot, nullptr);
  EXPECT_DOUBLE_EQ(first.snapshot->time_ms, 10.0);
  EXPECT_EQ(client.stats().request_id_mismatches, 1u);
  EXPECT_EQ(client.stats().accepted, 1u);
  EXPECT_EQ(client.stats().decode_errors, 0u)
      << "a mismatched id is not a decode failure";

  client.Poll(21);
  EXPECT_EQ(client.stats().request_id_mismatches, 1u);
  EXPECT_EQ(client.stats().accepted, 2u);
}

TEST(FaultInjectionTest, DelayedDeliveriesSurfaceAsRequestIdMismatches) {
  ProfileTrace trace;
  for (int i = 1; i <= 20; ++i) {
    trace.snapshots.push_back(
        TinySnapshot(i * 10.0, static_cast<uint64_t>(i) * 100));
  }
  trace.final_snapshot = TinySnapshot(210, 2100);
  trace.total_elapsed_ms = 210;

  FaultConfig faults;
  faults.delay_probability = 0.5;
  faults.max_delay_ms = 25.0;
  faults.seed = 11;
  auto lossy = std::make_unique<FaultInjectingEndpoint>(
      std::make_unique<LoopbackEndpoint>(&trace), faults);
  const FaultStats& fault_stats = lossy->fault_stats();

  PollingClientOptions options;
  options.timeout_ms = 5.0;
  options.max_attempts = 2;
  PollingClient client(std::move(lossy), options);
  double t = 0;
  for (int tick = 0; tick < 512 && !client.complete(); ++tick, t += 5.0) {
    client.Poll(t);
  }
  EXPECT_TRUE(client.complete());
  ASSERT_GT(fault_stats.late_delivered, 0u);
  // A delayed frame answers a request that has long since been retired, so
  // its request_id cannot match the one in flight.
  EXPECT_GT(client.stats().request_id_mismatches, 0u);
}

// The delta transport is invisible to the consumer: a client fed deltas
// (with periodic keyframes) serves byte-identical views to a client fed
// full snapshots, while receiving a fraction of the bytes.
TEST(PollingClientTest, DeltaTransportMatchesFullTransportAndSavesBytes) {
  std::unique_ptr<Catalog> catalog = MakeTestCatalog();
  Plan plan = MustFinalize(
      HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0}, {1}),
      *catalog);
  ASSERT_OK(AnnotatePlan(&plan, *catalog, OptimizerOptions{}));
  ExecOptions exec;
  exec.snapshot_interval_ms = 2.0;
  ExecutionResult result = MustExecute(plan, catalog.get(), exec);
  ASSERT_GT(result.trace.snapshots.size(), 4u);

  PollingClientOptions options;
  options.max_attempts = 1;
  PollingClient full_client(std::make_unique<LoopbackEndpoint>(&result.trace),
                            options);
  LoopbackOptions delta_serving;
  delta_serving.serve_deltas = true;
  delta_serving.keyframe_interval = 8;
  PollingClient delta_client(
      std::make_unique<LoopbackEndpoint>(&result.trace, delta_serving),
      options);

  double t = 0;
  for (int tick = 0; tick < 4096; ++tick, t += 2.0) {
    const ClientView& full_view = full_client.Poll(t);
    const ClientView& delta_view = delta_client.Poll(t);
    ASSERT_EQ(full_view.snapshot == nullptr, delta_view.snapshot == nullptr)
        << "t=" << t;
    if (full_view.snapshot != nullptr) {
      ASSERT_EQ(SnapshotBytes(*full_view.snapshot),
                SnapshotBytes(*delta_view.snapshot))
          << "served views diverged at t=" << t;
      EXPECT_EQ(full_view.query_complete, delta_view.query_complete);
    }
    if (full_client.complete() && delta_client.complete()) break;
  }
  ASSERT_TRUE(full_client.complete());
  ASSERT_TRUE(delta_client.complete());

  const ClientStats& full_stats = full_client.stats();
  const ClientStats& delta_stats = delta_client.stats();
  EXPECT_EQ(delta_stats.accepted, full_stats.accepted);
  EXPECT_GT(delta_stats.deltas_applied, 0u);
  EXPECT_EQ(delta_stats.delta_resyncs, 0u) << "lossless link never resyncs";
  EXPECT_EQ(full_stats.deltas_applied, 0u);
  EXPECT_GT(full_stats.bytes_received, 0u);
  // The headline property (FleetAgreesAcrossTransportsAndThreads pins the
  // ratio at fleet scale): the same accepted snapshots cost a fraction of
  // the wire bytes.
  EXPECT_LT(delta_stats.bytes_received * 2, full_stats.bytes_received)
      << "delta=" << delta_stats.bytes_received
      << " full=" << full_stats.bytes_received;
}

// Deltas over a lossy link: lost and delayed responses force base
// mismatches; every one must resolve through the want_keyframe resync path
// — never corrupt reassembled state, never wedge the session.
TEST(FaultInjectionTest, DeltaTransportResyncsUnderLossAndStaysExact) {
  std::unique_ptr<Catalog> catalog = MakeTestCatalog();
  Plan plan = MustFinalize(HashAgg(Scan("t_big"), {2}, {Count()}), *catalog);
  ASSERT_OK(AnnotatePlan(&plan, *catalog, OptimizerOptions{}));
  ExecOptions exec;
  exec.snapshot_interval_ms = 2.0;
  ExecutionResult result = MustExecute(plan, catalog.get(), exec);
  ASSERT_GT(result.trace.snapshots.size(), 4u);

  FaultConfig faults;
  faults.drop_probability = 0.2;
  faults.delay_probability = 0.3;
  faults.max_delay_ms = 10.0;
  faults.duplicate_probability = 0.1;
  faults.seed = 17;
  LoopbackOptions delta_serving;
  delta_serving.serve_deltas = true;
  delta_serving.keyframe_interval = 8;
  auto lossy = std::make_unique<FaultInjectingEndpoint>(
      std::make_unique<LoopbackEndpoint>(&result.trace, delta_serving),
      faults);

  PollingClientOptions options;
  options.timeout_ms = 3.0;
  options.max_attempts = 2;
  options.backoff_initial_ms = 1.0;
  PollingClient client(std::move(lossy), options);

  double last_seen = -1;
  double t = 0;
  for (int tick = 0; tick < 4096 && !client.complete(); ++tick, t += 2.0) {
    const ClientView& view = client.Poll(t);
    if (view.snapshot != nullptr) {
      EXPECT_GE(view.snapshot->time_ms, last_seen) << "t=" << t;
      last_seen = view.snapshot->time_ms;
    }
  }
  EXPECT_TRUE(client.complete()) << "delta session wedged under faults";
  ASSERT_NE(client.final_snapshot(), nullptr);
  // Byte-exact reassembly survived the fault mix: the final state equals
  // the trace's final snapshot bit for bit.
  EXPECT_EQ(SnapshotBytes(*client.final_snapshot()),
            SnapshotBytes(result.trace.final_snapshot));
  EXPECT_GT(client.stats().deltas_applied, 0u);
  EXPECT_GT(client.stats().delta_resyncs, 0u)
      << "fault mix never forced a keyframe resync — weaken the faults or "
         "reseed so the resync path is actually exercised";
}

// A lossy link over a genuinely executed trace: whatever the fault mix does,
// the view's snapshot timestamps never move backwards and the client reaches
// the final snapshot (possibly after the nominal horizon).
TEST(FaultInjectionTest, SingleSessionStaysMonotoneAndCompletes) {
  std::unique_ptr<Catalog> catalog = MakeTestCatalog();
  Plan plan = MustFinalize(
      HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0}, {1}),
      *catalog);
  ASSERT_OK(AnnotatePlan(&plan, *catalog, OptimizerOptions{}));
  ExecOptions exec;
  exec.snapshot_interval_ms = 5.0;
  ExecutionResult result = MustExecute(plan, catalog.get(), exec);
  ASSERT_GT(result.trace.snapshots.size(), 3u);

  FaultConfig faults;
  faults.drop_probability = 0.3;
  faults.delay_probability = 0.3;
  faults.max_delay_ms = 15.0;
  faults.duplicate_probability = 0.2;
  faults.corrupt_probability = 0.2;
  faults.seed = 42;
  auto lossy = std::make_unique<FaultInjectingEndpoint>(
      std::make_unique<LoopbackEndpoint>(&result.trace), faults);
  const FaultStats& fault_stats = lossy->fault_stats();

  PollingClientOptions options;
  options.timeout_ms = 5.0;
  options.max_attempts = 3;
  options.backoff_initial_ms = 2.0;
  options.backoff_max_ms = 10.0;
  PollingClient client(std::move(lossy), options);

  double last_seen = -1;
  double t = 0;
  for (int tick = 0; tick < 4096 && !client.complete(); ++tick, t += 5.0) {
    const ClientView& view = client.Poll(t);
    if (view.snapshot != nullptr) {
      EXPECT_GE(view.snapshot->time_ms, last_seen) << "tick t=" << t;
      last_seen = view.snapshot->time_ms;
    }
  }
  EXPECT_TRUE(client.complete()) << "session wedged under fault injection";
  ASSERT_NE(client.final_snapshot(), nullptr);
  EXPECT_EQ(client.final_snapshot()->operators[0].row_count,
            result.trace.final_snapshot.operators[0].row_count);
  // The fault mix actually exercised every channel.
  EXPECT_GT(fault_stats.dropped, 0u);
  EXPECT_GT(fault_stats.delayed + fault_stats.late_delivered, 0u);
  EXPECT_GT(fault_stats.duplicated, 0u);
  EXPECT_GT(fault_stats.corrupted, 0u);
  EXPECT_GT(client.stats().decode_errors, 0u);
  EXPECT_GT(client.stats().transport_failures, 0u);
}

// The four test-catalog queries the lossy fleets below cycle through — a
// hash join, a hash aggregate, a sort and a filter — each executed once
// with `interval_ms` snapshots.
struct LossyFleetQueries {
  std::unique_ptr<Catalog> catalog = MakeTestCatalog();
  std::vector<Plan> plans;
  std::vector<ExecutionResult> traces;
};

void BuildLossyFleetQueries(double interval_ms, LossyFleetQueries* out) {
  const Catalog& catalog = *out->catalog;
  out->plans.push_back(MustFinalize(
      HashJoin(JoinKind::kInner, Scan("t_small"), Scan("t_big"), {0}, {1}),
      catalog));
  out->plans.push_back(
      MustFinalize(HashAgg(Scan("t_big"), {2}, {Count()}), catalog));
  out->plans.push_back(MustFinalize(Sort(Scan("t_big"), {2}), catalog));
  out->plans.push_back(MustFinalize(
      Filter(Scan("t_big"), ColCmp(2, CompareOp::kLt, 50)), catalog));
  for (Plan& plan : out->plans) {
    ASSERT_OK(AnnotatePlan(&plan, catalog, OptimizerOptions{}));
    ExecOptions exec;
    exec.snapshot_interval_ms = interval_ms;
    out->traces.push_back(MustExecute(plan, out->catalog.get(), exec));
    ASSERT_GT(out->traces.back().trace.snapshots.size(), 2u);
  }
}

// Registers session `i` of a lossy delta fleet: query i mod 4 over a delta
// loopback behind perfbench fleet_churn's fault mix (10% dropped, 10%
// delayed up to three intervals, 5% duplicated, 1% corrupted), with its own
// fault and jitter seeds and otherwise default client options.
void RegisterLossyDeltaSession(const LossyFleetQueries& queries, int i,
                               double interval_ms, double start_offset_ms,
                               MonitorService* monitor) {
  const size_t q = static_cast<size_t>(i) % queries.plans.size();
  LoopbackOptions loopback;
  loopback.serve_deltas = true;
  FaultConfig faults;
  faults.drop_probability = 0.10;
  faults.delay_probability = 0.10;
  faults.max_delay_ms = 3 * interval_ms;
  faults.duplicate_probability = 0.05;
  faults.corrupt_probability = 0.01;
  faults.seed = 100 + static_cast<uint64_t>(i);
  PollingClientOptions client_options;
  client_options.jitter_seed = 1000 + static_cast<uint64_t>(i);
  monitor->RegisterRemoteSession(
      "q" + std::to_string(i), &queries.plans[q], queries.catalog.get(),
      std::make_unique<FaultInjectingEndpoint>(
          std::make_unique<LoopbackEndpoint>(&queries.traces[q].trace,
                                             loopback),
          faults),
      start_offset_ms, client_options);
}

// The operator progress a running status shows. A running session with no
// snapshot yet has no report and shows none.
const std::vector<double>& OperatorProgress(const SessionStatus& s) {
  static const std::vector<double> kNone;
  return s.report != nullptr ? s.report->operator_progress : kNone;
}

// The ISSUE acceptance run. 64 sessions over lossy links (drop=10%, delay up
// to 3 polling intervals, dup=5%, per-session seeds) against the identical
// fault-free setup:
//  - RunToCompletion leaves no session wedged (all reach kDone);
//  - each session's rendered snapshot timestamps are monotone;
//  - every session's final progress is within 5 points of fault-free.
TEST(RemoteMonitorTest, SixtyFourLossySessionsCompleteCloseToFaultFree) {
  constexpr double kIntervalMs = 5.0;
  LossyFleetQueries queries;
  ASSERT_NO_FATAL_FAILURE(BuildLossyFleetQueries(kIntervalMs, &queries));

  constexpr int kSessions = 64;
  PollingClientOptions client_options;
  client_options.timeout_ms = kIntervalMs;  // delays can outlive the wait
  client_options.max_attempts = 3;
  client_options.backoff_initial_ms = 1.0;
  client_options.backoff_max_ms = 4.0;

  // Runs the same 64-session layout over `make_endpoint`; returns final
  // progress per session after asserting completion and monotonicity.
  auto run = [&](const std::function<std::unique_ptr<SnapshotEndpoint>(
                     const ProfileTrace*, int)>& make_endpoint) {
    MonitorOptions monitor_options;
    monitor_options.num_threads = 4;
    monitor_options.ticks_per_horizon = 24;
    MonitorService monitor(monitor_options);
    for (int i = 0; i < kSessions; ++i) {
      const size_t q = static_cast<size_t>(i) % queries.plans.size();
      PollingClientOptions per_session = client_options;
      per_session.jitter_seed = 1000 + static_cast<uint64_t>(i);
      std::string name = "q";
      name += std::to_string(i);
      monitor.RegisterRemoteSession(
          std::move(name), &queries.plans[q], queries.catalog.get(),
          make_endpoint(&queries.traces[q].trace, i),
          /*start_offset_ms=*/(i % 8) * 2 * kIntervalMs, per_session);
    }

    std::vector<double> last_snapshot_time(kSessions, -1);
    std::vector<double> final_progress(kSessions, 0);
    monitor.RunToCompletion(
        [&](double now_ms, const std::vector<SessionStatus>& statuses) {
          for (const SessionStatus& status : statuses) {
            EXPECT_TRUE(status.remote);
            final_progress[status.session_id] = status.progress;
            if (status.snapshot == nullptr) continue;
            EXPECT_GE(status.snapshot->time_ms,
                      last_snapshot_time[status.session_id])
                << "session " << status.session_id << " regressed at t="
                << now_ms;
            last_snapshot_time[status.session_id] = status.snapshot->time_ms;
          }
        });
    EXPECT_TRUE(monitor.AllSessionsDone()) << "a session wedged";
    MonitorStats stats = monitor.stats();
    EXPECT_EQ(stats.remote_sessions, static_cast<size_t>(kSessions));
    EXPECT_EQ(stats.done, static_cast<size_t>(kSessions));
    // No unfinished-session issues in the final verdict.
    ValidationReport report = monitor.FinalCheck();
    for (const ValidationIssue& issue : report.issues()) {
      EXPECT_NE(issue.check, "remote_session_incomplete")
          << issue.ToString();
    }
    return std::make_pair(final_progress, stats);
  };

  auto fault_free = run([](const ProfileTrace* trace, int) {
    return std::make_unique<LoopbackEndpoint>(trace);
  });

  FaultConfig faults;
  faults.drop_probability = 0.10;
  faults.delay_probability = 0.25;
  faults.max_delay_ms = 3 * kIntervalMs;
  faults.duplicate_probability = 0.05;
  auto lossy = run([&faults](const ProfileTrace* trace, int session) {
    FaultConfig config = faults;
    config.seed = 100 + static_cast<uint64_t>(session);
    return std::make_unique<FaultInjectingEndpoint>(
        std::make_unique<LoopbackEndpoint>(trace), config);
  });

  for (int i = 0; i < kSessions; ++i) {
    EXPECT_NEAR(lossy.first[i], fault_free.first[i], 0.05)
        << "session " << i << " finished too far from fault-free";
  }
  // The lossy run really was lossy, and the transport aggregates surfaced
  // it: retries happened, snapshots were accepted, nothing degraded by the
  // end of the run.
  EXPECT_GT(lossy.second.transport_failures, 0u);
  EXPECT_GT(lossy.second.transport_retries, 0u);
  EXPECT_GT(lossy.second.snapshots_accepted, 0u);
  EXPECT_GT(lossy.second.stale_reports, 0u);
  EXPECT_EQ(lossy.second.degraded_sessions, 0u);
  EXPECT_EQ(fault_free.second.transport_failures, 0u);
  EXPECT_EQ(fault_free.second.decode_errors, 0u);
}

// The fault path, pinned. 64 delta loopback sessions cycle through the four
// test-catalog queries (5 ms snapshots and ticks, arrivals staggered over 16
// tick slots), each behind perfbench fleet_churn's fault mix — drop 10%,
// delay 10% by up to three intervals, duplicate 5%, corrupt 1% — with its
// own fault and jitter seeds and otherwise default client options. The
// fleet runs on one thread and on four: both show the same statuses on
// every tick (state, progress bits, transport condition and, while running,
// operator progress) and publish the same stats. The status digest and the
// summed transport counters are pinned, so a change that reorders a retry,
// a jitter draw or a counter update under faults fails here.
TEST(RemoteMonitorTest, LossyDeltaFleetIsPinnedAcrossThreads) {
  constexpr double kIntervalMs = 5.0;
  constexpr int kSessions = 64;
  constexpr uint64_t kPinnedDigest = 0x7a20f33efa0ed867ull;
  LossyFleetQueries queries;
  ASSERT_NO_FATAL_FAILURE(BuildLossyFleetQueries(kIntervalMs, &queries));

  struct FleetRun {
    uint64_t digest = 0;
    MonitorStats stats;
  };
  auto run = [&](int threads) {
    SCOPED_TRACE(StringF("%d thread(s)", threads));
    MonitorOptions options;
    options.num_threads = threads;
    options.tick_ms = kIntervalMs;
    MonitorService monitor(options);
    for (int i = 0; i < kSessions; ++i) {
      RegisterLossyDeltaSession(queries, i, kIntervalMs,
                                /*start_offset_ms=*/(i % 16) * kIntervalMs,
                                &monitor);
    }
    BitHash hash;
    monitor.RunToCompletion(
        [&hash](double, const std::vector<SessionStatus>& statuses) {
          for (const SessionStatus& s : statuses) {
            hash.AddWord(static_cast<uint64_t>(s.state));
            hash.AddDouble(s.progress);
            hash.AddWord(s.stale);
            hash.AddDouble(s.staleness_ms);
            hash.AddWord(s.degraded);
            hash.AddWord(static_cast<uint64_t>(s.consecutive_failures));
            if (s.state == SessionState::kRunning) {
              hash.AddVector(OperatorProgress(s));
            }
          }
        });
    FleetRun result{hash.value(), monitor.stats()};
    result.stats.num_threads = 0;
    return result;
  };

  const FleetRun serial = run(1);
  const FleetRun parallel = run(4);
  EXPECT_EQ(serial.digest, parallel.digest);
  EXPECT_EQ(serial.stats, parallel.stats);
  EXPECT_EQ(serial.digest, kPinnedDigest)
      << StringF("statuses moved; the digest is now 0x%016llx",
                 static_cast<unsigned long long>(serial.digest));
  const MonitorStats& s = serial.stats;
  const std::pair<const char*, uint64_t> counters[] = {
      {"polls", s.transport_polls},
      {"retries", s.transport_retries},
      {"failures", s.transport_failures},
      {"decode_errors", s.decode_errors},
      {"accepted", s.snapshots_accepted},
      {"duplicates", s.duplicates_ignored},
      {"regressions", s.regressions_rejected},
      {"stale", s.stale_reports},
      {"bytes", s.transport_bytes},
      {"deltas", s.deltas_applied},
      {"resyncs", s.delta_resyncs},
      {"mismatches", s.request_id_mismatches},
  };
  std::string rendered;
  for (const auto& [name, value] : counters) {
    rendered +=
        StringF(" %s=%llu", name, static_cast<unsigned long long>(value));
  }
  EXPECT_EQ(rendered,
            " polls=650 retries=616 failures=116 decode_errors=13"
            " accepted=444 duplicates=314 regressions=307 stale=152"
            " bytes=86400 deltas=894 resyncs=18 mismatches=49")
      << "transport counters moved";
}

// A tick re-sums only its running sessions and adds each finished
// session's totals once, on the tick it turns done. So over a lossy fleet
// with staggered arrivals, after every tick stats() must equal a recount
// from scratch over every session — states and degraded sessions from the
// statuses, estimates by the repeat-snapshot rule, transport totals from
// every session's client — and AllSessionsDone() must hold exactly when
// every status is kDone. One session registers after ticking has begun and
// must wait, run, finish and be counted like the rest.
TEST(RemoteMonitorTest, StatsEqualARecountAfterEveryTick) {
  constexpr double kIntervalMs = 5.0;
  constexpr int kSessions = 48;
  constexpr int kLateTick = 10;
  LossyFleetQueries queries;
  ASSERT_NO_FATAL_FAILURE(BuildLossyFleetQueries(kIntervalMs, &queries));

  for (int threads : {1, 4}) {
    SCOPED_TRACE(StringF("%d thread(s)", threads));
    MonitorOptions options;
    options.num_threads = threads;
    MonitorService monitor(options);
    for (int i = 0; i < kSessions; ++i) {
      RegisterLossyDeltaSession(queries, i, kIntervalMs,
                                /*start_offset_ms=*/2.5 * i, &monitor);
    }
    EstimateCounter estimates;
    int late = -1;
    std::vector<SessionState> late_states;
    bool saw_every_state = false;
    std::vector<SessionStatus> statuses;
    for (int tick = 1; !monitor.AllSessionsDone(); ++tick) {
      ASSERT_LT(tick, 2000) << "the fleet never finished";
      const double now = tick * kIntervalMs;
      if (tick == kLateTick) {
        late = kSessions;
        RegisterLossyDeltaSession(queries, late, kIntervalMs,
                                  now + 3 * kIntervalMs, &monitor);
      }
      monitor.TickInto(now, &statuses);
      ASSERT_EQ(statuses.size(), monitor.session_count());

      MonitorStats recount;
      recount.sessions = monitor.session_count();
      recount.remote_sessions = monitor.session_count();
      recount.estimators_cached = queries.plans.size();
      recount.ticks = static_cast<uint64_t>(tick);
      for (const SessionStatus& s : statuses) {
        if (s.degraded) ++recount.degraded_sessions;
        switch (s.state) {
          case SessionState::kWaiting: ++recount.waiting; break;
          case SessionState::kRunning: ++recount.active; break;
          case SessionState::kDone: ++recount.done; break;
        }
        if (s.state == SessionState::kRunning && s.snapshot != nullptr) {
          estimates.Add(s.session_id, *s.snapshot);
        }
      }
      recount.reports_computed = estimates.count();
      for (size_t i = 0; i < monitor.session_count(); ++i) {
        const ClientStats& cs =
            monitor.session_client_stats(static_cast<int>(i));
        recount.transport_polls += cs.polls;
        recount.transport_retries += cs.retries;
        recount.transport_failures += cs.transport_failures;
        recount.decode_errors += cs.decode_errors;
        recount.snapshots_accepted += cs.accepted;
        recount.duplicates_ignored += cs.duplicates_ignored;
        recount.regressions_rejected += cs.regressions_rejected;
        recount.stale_reports += cs.stale_polls;
        recount.transport_bytes += cs.bytes_received;
        recount.deltas_applied += cs.deltas_applied;
        recount.delta_resyncs += cs.delta_resyncs;
        recount.request_id_mismatches += cs.request_id_mismatches;
      }
      MonitorStats published = monitor.stats();
      published.num_threads = 0;
      ASSERT_EQ(published, recount) << "tick " << tick;
      EXPECT_EQ(monitor.AllSessionsDone(), recount.done == statuses.size())
          << "tick " << tick;
      saw_every_state = saw_every_state ||
                        (recount.waiting > 0 && recount.active > 0 &&
                         recount.done > 0);
      if (late >= 0) {
        const SessionState state = statuses[static_cast<size_t>(late)].state;
        if (late_states.empty() || late_states.back() != state) {
          late_states.push_back(state);
        }
      }
    }
    EXPECT_TRUE(saw_every_state)
        << "no tick had waiting, running and done sessions at once";
    EXPECT_EQ(late_states,
              (std::vector<SessionState>{SessionState::kWaiting,
                                         SessionState::kRunning,
                                         SessionState::kDone}));
    EXPECT_GT(monitor.session_client_stats(late).polls, 0u);
    EXPECT_TRUE(monitor.FinalCheck().ok());
  }
}

// Names the first thing `remote` shows differently from `local` on one
// tick — state, progress bits or snapshot bytes — or null when they agree.
const char* FirstDifference(const SessionStatus& local,
                            const SessionStatus& remote) {
  if (remote.state != local.state) return "state";
  if (std::memcmp(&remote.progress, &local.progress, sizeof(double)) != 0) {
    return "progress";
  }
  auto bytes = [](const ProfileSnapshot* snapshot) {
    return snapshot == nullptr ? std::string() : SnapshotBytes(*snapshot);
  };
  if (bytes(remote.snapshot) != bytes(local.snapshot)) return "snapshot";
  return nullptr;
}

// Local trace-backed sessions and full and delta loopback sessions of the
// same query show the same thing on every tick: the same state,
// bit-identical progress and the same snapshot, byte for byte. The
// transport seam does not change what the monitor shows. Every TPC-H and
// TPC-DS query runs, ticked at its snapshot interval. Some trace must have
// an operator whose `finished` goes from true back to false (ds_spool's
// rebound Nested Loops inner does), so a client that made flags sticky
// fails here.
TEST(RemoteMonitorTest, LocalFullAndDeltaSessionsAgreeOnEveryTick) {
  constexpr double kIntervalMs = 5.0;
  TpchOptions tpch_options;
  tpch_options.scale = 0.05;
  TpcdsOptions tpcds_options;
  tpcds_options.scale = 0.05;
  auto tpch = MakeTpchWorkload(tpch_options);
  auto tpcds = MakeTpcdsWorkload(tpcds_options);
  ASSERT_TRUE(tpch.ok()) << tpch.status().ToString();
  ASSERT_TRUE(tpcds.ok()) << tpcds.status().ToString();
  ASSERT_OK(AnnotateWorkload(&tpch.value(), OptimizerOptions{}));
  ASSERT_OK(AnnotateWorkload(&tpcds.value(), OptimizerOptions{}));

  size_t queries = 0;
  size_t ticks = 0;
  std::string unfinished_query;
  for (Workload* workload : {&tpch.value(), &tpcds.value()}) {
    for (const WorkloadQuery& q : workload->queries) {
      ExecOptions exec;
      exec.snapshot_interval_ms = kIntervalMs;
      const ExecutionResult result =
          MustExecute(q.plan, workload->catalog.get(), exec);
      const ProfileTrace& trace = result.trace;
      for (size_t s = 1; s < trace.snapshots.size(); ++s) {
        for (size_t i = 0; i < trace.snapshots[s].operators.size(); ++i) {
          if (trace.snapshots[s - 1].operators[i].finished &&
              !trace.snapshots[s].operators[i].finished) {
            unfinished_query = q.name;
          }
        }
      }

      MonitorOptions options;
      options.num_threads = 1;
      options.tick_ms = kIntervalMs;
      MonitorService monitor(options);
      const Catalog* catalog = workload->catalog.get();
      monitor.RegisterSession("local", &q.plan, catalog, &trace,
                              /*start_offset_ms=*/0);
      monitor.RegisterRemoteSession(
          "full", &q.plan, catalog, std::make_unique<LoopbackEndpoint>(&trace),
          /*start_offset_ms=*/0);
      LoopbackOptions deltas;
      deltas.serve_deltas = true;
      monitor.RegisterRemoteSession(
          "delta", &q.plan, catalog,
          std::make_unique<LoopbackEndpoint>(&trace, deltas),
          /*start_offset_ms=*/0);

      bool diverged = false;
      monitor.RunToCompletion(
          [&](double now_ms, const std::vector<SessionStatus>& statuses) {
            ++ticks;
            if (diverged) return;  // one failure per query is enough
            for (size_t r = 1; r < statuses.size(); ++r) {
              const char* what = FirstDifference(statuses[0], statuses[r]);
              if (what == nullptr) continue;
              diverged = true;
              ADD_FAILURE() << q.name << ": the "
                            << monitor.session_name(static_cast<int>(r))
                            << " session's " << what
                            << " differs from the local one at t=" << now_ms;
            }
          });
      EXPECT_TRUE(monitor.AllSessionsDone()) << q.name;
      EXPECT_TRUE(monitor.FinalCheck().ok()) << q.name;
      ++queries;
    }
  }
  EXPECT_EQ(queries, 44u);
  EXPECT_GT(ticks, queries);
  EXPECT_FALSE(unfinished_query.empty())
      << "no operator's finished flag went from true to false; the test "
         "would pass with sticky flags";
}

// Full and delta loopback sessions side by side on one service: all finish,
// the delta half really exercises the delta path, and the transport
// aggregates in stats() are exactly the sum of the per-session clients.
TEST(RemoteMonitorTest, MixedTransportSessionsAggregateTransportStats) {
  std::unique_ptr<Catalog> catalog = MakeTestCatalog();
  Plan plan = MustFinalize(Sort(Scan("t_big"), {2}), *catalog);
  ASSERT_OK(AnnotatePlan(&plan, *catalog, OptimizerOptions{}));
  ExecOptions exec;
  exec.snapshot_interval_ms = 4.0;
  ExecutionResult result = MustExecute(plan, catalog.get(), exec);

  MonitorOptions options;
  options.ticks_per_horizon = 24;
  MonitorService monitor(options);
  constexpr int kSessions = 9;
  for (int i = 0; i < kSessions; ++i) {
    LoopbackOptions loopback;
    loopback.serve_deltas = (i % 2 == 0);  // mix delta and full transports
    monitor.RegisterRemoteSession(
        "session-" + std::to_string(i), &plan, catalog.get(),
        std::make_unique<LoopbackEndpoint>(&result.trace, loopback),
        /*start_offset_ms=*/i * 2.0);
  }
  monitor.RunToCompletion(nullptr);
  EXPECT_TRUE(monitor.AllSessionsDone());
  EXPECT_TRUE(monitor.FinalCheck().ok());

  MonitorStats stats = monitor.stats();
  EXPECT_EQ(stats.remote_sessions, static_cast<size_t>(kSessions));
  EXPECT_EQ(stats.done, static_cast<size_t>(kSessions));
  EXPECT_GT(stats.transport_polls, 0u);
  EXPECT_GT(stats.transport_bytes, 0u);
  EXPECT_GT(stats.snapshots_accepted, 0u);
  EXPECT_GT(stats.deltas_applied, 0u);
  uint64_t bytes_across_sessions = 0;
  for (int i = 0; i < kSessions; ++i) {
    bytes_across_sessions += monitor.session_client_stats(i).bytes_received;
  }
  EXPECT_EQ(bytes_across_sessions, stats.transport_bytes);
}

// A fleet: 256 remote loopback sessions cycling through every TPC-H and
// TPC-DS query at scale 0.2 (selectivity error 1.2, 5 ms snapshots),
// arrivals staggered over 64 tick slots so most sessions are mid-flight on
// any tick. It runs three times: the full transport on one thread, the delta
// transport on one thread and on eight. Every run completes with a clean
// FinalCheck, and all three show the same statuses on every tick — state
// and the exact bits of progress and, while running, operator progress —
// hashing to a pinned digest. The delta transport moves at most a third of
// the full transport's bytes; it measures 3.56x here, the same ratio as at
// 1k-10k sessions, while at scale 0.05 the ratio drops below 3.
TEST(RemoteMonitorTest, FleetAgreesAcrossTransportsAndThreads) {
  constexpr double kIntervalMs = 5.0;
  constexpr size_t kSessions = 256;
  constexpr uint64_t kPinnedDigest = 0x4450483a65d60d06ull;
  TpchOptions tpch_options;
  tpch_options.scale = 0.2;
  TpcdsOptions tpcds_options;
  tpcds_options.scale = 0.2;
  auto tpch = MakeTpchWorkload(tpch_options);
  auto tpcds = MakeTpcdsWorkload(tpcds_options);
  ASSERT_TRUE(tpch.ok()) << tpch.status().ToString();
  ASSERT_TRUE(tpcds.ok()) << tpcds.status().ToString();
  OptimizerOptions optimizer;
  optimizer.selectivity_error = 1.2;
  ASSERT_OK(AnnotateWorkload(&tpcds.value(), optimizer));
  ASSERT_OK(AnnotateWorkload(&tpch.value(), optimizer));

  struct Executed {
    const WorkloadQuery* query;
    const Catalog* catalog;
    ExecutionResult result;
  };
  std::vector<Executed> executed;
  ExecOptions exec;
  exec.snapshot_interval_ms = kIntervalMs;
  for (Workload* workload : {&tpcds.value(), &tpch.value()}) {
    for (const WorkloadQuery& q : workload->queries) {
      executed.push_back({&q, workload->catalog.get(),
                          MustExecute(q.plan, workload->catalog.get(), exec)});
    }
  }

  struct FleetRun {
    uint64_t digest = 0;
    uint64_t transport_bytes = 0;
  };
  auto run = [&](bool serve_deltas, int threads) {
    SCOPED_TRACE(StringF("%s transport on %d thread(s)",
                         serve_deltas ? "delta" : "full", threads));
    MonitorOptions options;
    options.num_threads = threads;
    options.tick_ms = kIntervalMs;
    MonitorService monitor(options);
    PollingClientOptions client_options;
    client_options.max_attempts = 2;
    LoopbackOptions loopback;
    loopback.serve_deltas = serve_deltas;
    for (size_t i = 0; i < kSessions; ++i) {
      const Executed& e = executed[i % executed.size()];
      monitor.RegisterRemoteSession(
          e.query->name, &e.query->plan, e.catalog,
          std::make_unique<LoopbackEndpoint>(&e.result.trace, loopback),
          /*start_offset_ms=*/static_cast<double>(i % 64) * kIntervalMs,
          client_options);
    }
    BitHash hash;
    monitor.RunToCompletion(
        [&hash](double, const std::vector<SessionStatus>& statuses) {
          for (const SessionStatus& s : statuses) {
            hash.AddWord(static_cast<uint64_t>(s.state));
            hash.AddDouble(s.progress);
            if (s.state == SessionState::kRunning) {
              hash.AddVector(OperatorProgress(s));
            }
          }
        });
    EXPECT_TRUE(monitor.AllSessionsDone());
    const ValidationReport report = monitor.FinalCheck();
    EXPECT_TRUE(report.ok()) << report.ToString();
    return FleetRun{hash.value(), monitor.stats().transport_bytes};
  };

  const FleetRun full = run(/*serve_deltas=*/false, 1);
  const FleetRun delta = run(/*serve_deltas=*/true, 1);
  const FleetRun parallel = run(/*serve_deltas=*/true, 8);
  EXPECT_EQ(full.digest, delta.digest);
  EXPECT_EQ(delta.digest, parallel.digest);
  EXPECT_EQ(full.digest, kPinnedDigest)
      << StringF("statuses moved; the digest is now 0x%016llx",
                 static_cast<unsigned long long>(full.digest));
  EXPECT_EQ(delta.transport_bytes, parallel.transport_bytes);
  EXPECT_GE(full.transport_bytes, 3 * delta.transport_bytes)
      << "full=" << full.transport_bytes << " delta=" << delta.transport_bytes;
}

}  // namespace
}  // namespace testing
}  // namespace lqs
