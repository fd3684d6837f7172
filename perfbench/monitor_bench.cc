#include "monitor_bench.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <utility>

#include "exec/executor.h"
#include "remote/fault_injection.h"
#include "remote/wire.h"

namespace perfbench {

using lqs::ProfileSnapshot;
using lqs::SessionState;
using lqs::SessionStatus;
using lqs::Status;
using lqs::StatusOr;

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Independent sub-seed `salt` of the run's seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  return SplitMix64(SplitMix64(seed) ^ salt);
}

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status AddWorkload(StatusOr<lqs::Workload> workload, Corpus* corpus) {
  if (!workload.ok()) return workload.status();
  corpus->workloads.push_back(std::move(workload).value());
  return Status::OK();
}

/// Padded per-slot counters so the hook never contends across threads.
struct alignas(64) AllocSlot {
  std::atomic<uint64_t> count{0};
};
AllocSlot g_alloc_slots[16];
std::atomic<bool> g_count_allocations{false};

}  // namespace

double NowMs() { return static_cast<double>(NowNs()) / 1e6; }

int64_t BusyNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double BusyMs() { return static_cast<double>(BusyNs()) / 1e6; }

void CountAllocation() {
  if (!g_count_allocations.load(std::memory_order_relaxed)) return;
  static std::atomic<unsigned> next_slot{0};
  thread_local const unsigned slot =
      next_slot.fetch_add(1, std::memory_order_relaxed) % 16;
  g_alloc_slots[slot].count.fetch_add(1, std::memory_order_relaxed);
}

uint64_t AllocationCount() {
  uint64_t total = 0;
  for (const AllocSlot& s : g_alloc_slots) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

void SetAllocationCounting(bool on) {
  g_count_allocations.store(on, std::memory_order_relaxed);
}

StatusOr<WorkloadKind> ParseWorkload(std::string_view name) {
  for (WorkloadKind kind :
       {WorkloadKind::kFleetSteady, WorkloadKind::kFleetChurn,
        WorkloadKind::kReplayLocal}) {
    if (name == WorkloadName(kind)) return kind;
  }
  return Status::InvalidArgument("unknown workload: " + std::string(name));
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kFleetSteady: return "fleet_steady";
    case WorkloadKind::kFleetChurn: return "fleet_churn";
    case WorkloadKind::kReplayLocal: return "replay_local";
  }
  return "?";
}

StatusOr<Corpus> BuildCorpus(uint64_t seed, double scale) {
  Corpus corpus;
  double start = BusyMs();
  lqs::TpcdsOptions ds;
  ds.scale = scale;
  ds.seed = DeriveSeed(seed, 0x7dc5);
  LQS_RETURN_IF_ERROR(AddWorkload(lqs::MakeTpcdsWorkload(ds), &corpus));
  lqs::TpchOptions h;
  h.scale = scale;
  h.seed = DeriveSeed(seed, 0x7c4);
  LQS_RETURN_IF_ERROR(AddWorkload(lqs::MakeTpchWorkload(h), &corpus));
  corpus.generate_s = (BusyMs() - start) / 1000;

  start = BusyMs();
  lqs::OptimizerOptions optimizer;
  optimizer.selectivity_error = kSelectivityError;
  for (lqs::Workload& w : corpus.workloads) {
    LQS_RETURN_IF_ERROR(lqs::AnnotateWorkload(&w, optimizer));
  }
  corpus.annotate_s = (BusyMs() - start) / 1000;

  start = BusyMs();
  lqs::ExecOptions exec;
  exec.snapshot_interval_ms = kTickMs;
  for (lqs::Workload& w : corpus.workloads) {
    for (const lqs::WorkloadQuery& q : w.queries) {
      StatusOr<lqs::ExecutionResult> run =
          lqs::ExecuteQuery(q.plan, w.catalog.get(), exec);
      if (!run.ok()) return run.status();
      ExecutedQuery executed;
      executed.query = &q;
      executed.catalog = w.catalog.get();
      executed.trace = std::move(run.value().trace);
      for (const lqs::OperatorProfile& op :
           executed.trace.final_snapshot.operators) {
        executed.final_rows += static_cast<double>(op.row_count);
      }
      corpus.queries.push_back(std::move(executed));
    }
  }
  corpus.execute_s = (BusyMs() - start) / 1000;
  if (corpus.queries.empty()) {
    return Status::InvalidArgument("workload has no queries");
  }
  return corpus;
}

FleetPlan PlanFleet(WorkloadKind kind, const Corpus& corpus, uint64_t seed,
                    size_t sessions, int workers) {
  FleetPlan plan;
  plan.seed = seed;
  plan.remote = kind != WorkloadKind::kReplayLocal;
  plan.faults = kind == WorkloadKind::kFleetChurn;
  plan.workers = workers > 0 ? workers : kWorkers;
  lqs::Rng rng(DeriveSeed(seed, 0xa441));
  // Two queries run far longer than the rest; on their horizon almost every
  // session would be done on almost every tick. Every workload leaves them
  // and kSeedDependentQuery out, and the fleets keep only the longer of the
  // rest, so that most of their sessions run together.
  const double min_ms = plan.remote ? kFleetMinQueryMs : 0;
  std::vector<size_t> eligible;
  double longest_ms = 0;
  double total_ms = 0;
  for (size_t q = 0; q < corpus.queries.size(); ++q) {
    const double ms = corpus.queries[q].trace.total_elapsed_ms;
    if (corpus.queries[q].query->name == kSeedDependentQuery) continue;
    if (ms >= min_ms && ms < kMaxQueryMs) {
      eligible.push_back(q);
      longest_ms = std::max(longest_ms, ms);
      total_ms += ms;
    }
  }
  if (eligible.empty()) {
    for (size_t q = 0; q < corpus.queries.size(); ++q) eligible.push_back(q);
  }
  if (!plan.remote) {
    // Copies of every query, each arriving anywhere in [0, H - its length]
    // for H the longest query, so that about kReplayRunning sessions run on
    // every tick.
    const size_t copies =
        sessions > 0
            ? std::max<size_t>(1, sessions / eligible.size())
            : std::max<size_t>(1, static_cast<size_t>(std::lround(
                                      kReplayRunning * longest_ms /
                                      std::max(total_ms, 1.0))));
    for (size_t c = 0; c < copies; ++c) {
      for (size_t q : eligible) {
        const double slack_ms =
            longest_ms - corpus.queries[q].trace.total_elapsed_ms;
        plan.sessions.push_back({q, rng.NextDouble() * slack_ms});
      }
    }
    return plan;
  }
  if (sessions == 0) sessions = 10000;
  // Poisson arrivals at a rate that keeps one session in kChurnRunningShare
  // running once arrivals are under way: sessions x mean length / window.
  // Deriving the window from the mean, not the longest query, keeps that
  // share the same for every seed.
  const double churn_window_ms =
      total_ms / static_cast<double>(eligible.size()) / kChurnRunningShare;
  double arrival_ms = 0;
  for (size_t i = 0; i < sessions; ++i) {
    const size_t q = eligible[i % eligible.size()];
    if (kind == WorkloadKind::kFleetSteady) {
      // Everyone arrives within 16 ticks, so most sessions run together.
      plan.sessions.push_back({q, rng.NextDouble() * 16 * kTickMs});
    } else {
      const double mean_gap_ms =
          churn_window_ms / static_cast<double>(sessions);
      arrival_ms += -std::log(1.0 - rng.NextDouble()) * mean_gap_ms;
      plan.sessions.push_back({q, arrival_ms});
    }
  }
  return plan;
}

lqs::PollResult TimingEndpoint::Poll(const lqs::PollRequest& request) {
  const int64_t start = NowNs();
  lqs::PollResult result = inner_->Poll(request);
  busy_ns_ += static_cast<uint64_t>(NowNs() - start);
  ++polls_;
  if (frame_count_ == frames_.size()) frames_.emplace_back();
  frames_[frame_count_++].assign(result.frame);
  return result;
}

Fleet RegisterFleet(const Corpus& corpus, const FleetPlan& plan, int workers,
                    bool tap) {
  lqs::MonitorOptions options;
  options.num_threads = workers;
  options.tick_ms = kTickMs;
  Fleet fleet;
  fleet.monitor = std::make_unique<lqs::MonitorService>(options);
  const double start = BusyMs();
  for (size_t i = 0; i < plan.sessions.size(); ++i) {
    const SessionSpec& spec = plan.sessions[i];
    const ExecutedQuery& q = corpus.queries[spec.query];
    std::string name = "s" + std::to_string(i) + ":" + q.query->name;
    if (!plan.remote) {
      fleet.monitor->RegisterSession(std::move(name), &q.query->plan,
                                     q.catalog, &q.trace, spec.offset_ms);
      continue;
    }
    lqs::LoopbackOptions loopback;
    loopback.serve_deltas = true;
    std::unique_ptr<lqs::SnapshotEndpoint> endpoint =
        std::make_unique<lqs::LoopbackEndpoint>(&q.trace, loopback);
    if (tap) {
      auto timing =
          std::make_unique<TimingEndpoint>(std::move(endpoint), &q.trace);
      fleet.taps.push_back(timing.get());
      endpoint = std::move(timing);
    }
    if (plan.faults) {
      lqs::FaultConfig faults;
      faults.drop_probability = 0.10;
      faults.delay_probability = 0.10;
      faults.max_delay_ms = 3 * kTickMs;
      faults.duplicate_probability = 0.05;
      faults.corrupt_probability = 0.01;
      faults.seed = DeriveSeed(plan.seed, 0xfa000000ull + i);
      endpoint = std::make_unique<lqs::FaultInjectingEndpoint>(
          std::move(endpoint), faults);
    }
    lqs::PollingClientOptions client;
    client.jitter_seed = DeriveSeed(plan.seed, 0x1e000000ull + i);
    fleet.monitor->RegisterRemoteSession(std::move(name), &q.query->plan,
                                         q.catalog, std::move(endpoint),
                                         spec.offset_ms, client);
  }
  fleet.register_s = (BusyMs() - start) / 1000;
  return fleet;
}

void ErrorAccumulator::Add(const ExecutedQuery& query,
                           const ProfileSnapshot& shown, double progress) {
  // The same terms, in the same summation order, as lqs::EvaluateQuery.
  const ProfileSnapshot& final_snap = query.trace.final_snapshot;
  double sum_k = 0;
  double sum_n = 0;
  for (size_t i = 0; i < shown.operators.size(); ++i) {
    sum_k += static_cast<double>(shown.operators[i].row_count);
    sum_n += static_cast<double>(final_snap.operators[i].row_count);
  }
  const double count_fraction = sum_n > 0 ? sum_k / sum_n : 1.0;
  const double total = query.trace.total_elapsed_ms;
  const double time_fraction = total > 0 ? shown.time_ms / total : 1.0;
  count_sum += std::abs(progress - count_fraction);
  time_sum += std::abs(progress - time_fraction);
  ++n;
}

Tracer::Tracer(const Corpus& corpus, const FleetPlan& plan,
               std::vector<Span>* spans)
    : corpus_(corpus), plan_(plan), spans_(spans) {
  for (const ExecutedQuery& q : corpus.queries) {
    estimators_.push_back(std::make_unique<lqs::ProgressEstimator>(
        &q.query->plan, q.catalog, lqs::EstimatorOptions::Lqs()));
  }
  const size_t n = plan.sessions.size();
  workspaces_.resize(n);
  reports_.resize(n);
  for (const SessionSpec& spec : plan.sessions) {
    checkers_.push_back(std::make_unique<lqs::ProgressInvariantChecker>(
        estimators_[spec.query].get()));
    if (!plan.remote) {
      const lqs::ProfileTrace* trace = &corpus.queries[spec.query].trace;
      lqs::LoopbackOptions loopback;
      loopback.serve_deltas = true;
      local_taps_.push_back(std::make_unique<TimingEndpoint>(
          std::make_unique<lqs::LoopbackEndpoint>(trace, loopback), trace));
      local_tap_ptrs_.push_back(local_taps_.back().get());
      local_acks_.push_back(-1);
    }
  }
}

void Tracer::AfterTick(const Fleet& fleet, double tick_ns,
                       const std::vector<SessionStatus>& statuses,
                       int tick_span) {
  live_.clear();
  for (size_t i = 0; i < statuses.size(); ++i) {
    if (statuses[i].state == SessionState::kRunning &&
        statuses[i].snapshot != nullptr) {
      live_.push_back(i);
    }
  }
  totals_.reports += live_.size();
  totals_.tick_busy_ns += tick_ns;
  auto span = [&](const char* name, double start_ms, uint64_t count) {
    spans_->push_back({name, start_ms, NowMs(), tick_span, count});
  };

  // dmv: the trace lookup a local session (or the loopback server of a
  // remote one) makes for this tick's snapshot.
  double start_ms = NowMs();
  int64_t start = BusyNs();
  for (size_t i : live_) {
    const lqs::ProfileTrace& trace =
        corpus_.queries[plan_.sessions[i].query].trace;
    sink_ ^= reinterpret_cast<uintptr_t>(
        trace.SnapshotAtOrBefore(statuses[i].local_time_ms));
  }
  totals_.lookup_ns += static_cast<double>(BusyNs() - start);
  totals_.lookups += live_.size();
  span("dmv.SnapshotAtOrBefore", start_ms, live_.size());

  // lqs: one timed EstimateInto per report, on the snapshot the monitor
  // estimated from; it must reproduce the monitor's progress bit for bit.
  start_ms = NowMs();
  for (size_t i : live_) {
    const lqs::ProgressEstimator& estimator =
        *estimators_[plan_.sessions[i].query];
    const int64_t t0 = NowNs();
    estimator.EstimateInto(*statuses[i].snapshot, &workspaces_[i],
                           &reports_[i]);
    const double ns = static_cast<double>(NowNs() - t0);
    totals_.estimate_ns += ns;
    totals_.estimate_samples_ns.push_back(ns);
    if (DoubleBits(reports_[i].query_progress) !=
        DoubleBits(statuses[i].progress)) {
      ++totals_.beside_failures;
    }
  }
  span("lqs.EstimateInto", start_ms, live_.size());

  // analysis: the invariant check the monitor runs on every report.
  start_ms = NowMs();
  start = BusyNs();
  for (size_t i : live_) {
    checkers_[i]->CheckReport(*statuses[i].snapshot, reports_[i]);
  }
  totals_.check_ns += static_cast<double>(BusyNs() - start);
  span("analysis.CheckReport", start_ms, live_.size());

  if (plan_.remote) {
    DrainFrames(fleet.taps, tick_span);
    return;
  }
  // Local sessions: price the wire path for the same reports through a
  // timed loopback polled at the session's clock, acking the snapshot the
  // session shows so the server answers with deltas as it would remotely.
  start_ms = NowMs();
  for (size_t i : live_) {
    lqs::PollRequest request;
    request.now_ms = statuses[i].local_time_ms;
    request.deadline_ms = request.now_ms;
    request.has_ack = local_acks_[i] >= 0;
    request.ack_time_ms = local_acks_[i];
    local_taps_[i]->Poll(request);
    local_acks_[i] = statuses[i].snapshot->time_ms;
  }
  span("remote.LoopbackEndpoint::Poll", start_ms, live_.size());
  DrainFrames(local_tap_ptrs_, tick_span);
}

void Tracer::DrainFrames(const std::vector<TimingEndpoint*>& taps,
                         int tick_span) {
  double start_ms = NowMs();
  int64_t start = BusyNs();
  size_t frames = 0;
  for (const TimingEndpoint* tap : taps) {
    for (size_t f = 0; f < tap->frame_count(); ++f) {
      const std::string& frame = tap->frame(f);
      sink_ ^= lqs::WireCrc32(frame.data() + lqs::kWireHeaderSize,
                              frame.size() - lqs::kWireHeaderSize);
      totals_.crc_bytes += frame.size() - lqs::kWireHeaderSize;
      totals_.frame_bytes += frame.size();
      ++frames;
    }
  }
  totals_.crc_ns += static_cast<double>(BusyNs() - start);
  totals_.frames += frames;
  spans_->push_back({"remote.WireCrc32", start_ms, NowMs(), tick_span, frames});

  // Client side, as PollingClient does it: decode every frame, then apply
  // each delta against the trace snapshot its ack named.
  struct Decoded {
    lqs::PollResponse response;
    const lqs::ProfileTrace* trace = nullptr;
    const ProfileSnapshot* base = nullptr;
  };
  std::vector<Decoded> decoded;
  decoded.reserve(frames);
  start_ms = NowMs();
  start = BusyNs();
  for (const TimingEndpoint* tap : taps) {
    for (size_t f = 0; f < tap->frame_count(); ++f) {
      StatusOr<lqs::PollResponse> response =
          lqs::DecodePollResponse(tap->frame(f));
      if (!response.ok()) {
        ++totals_.beside_failures;
        continue;
      }
      decoded.push_back({std::move(response).value(), &tap->trace()});
    }
  }
  const double decode_ns = static_cast<double>(BusyNs() - start);
  for (Decoded& entry : decoded) {
    if (entry.response.has_delta) {
      entry.base =
          entry.trace->SnapshotAtOrBefore(entry.response.delta.base_time_ms);
    }
  }
  ProfileSnapshot scratch;
  start = BusyNs();
  for (Decoded& entry : decoded) {
    if (entry.base == nullptr) continue;
    if (!lqs::ApplySnapshotDelta(entry.response.delta, *entry.base, &scratch)
             .ok()) {
      ++totals_.beside_failures;
    }
  }
  totals_.client_apply_ns += decode_ns + static_cast<double>(BusyNs() - start);
  spans_->push_back(
      {"remote.client_apply", start_ms, NowMs(), tick_span, decoded.size()});
  for (const Decoded& entry : decoded) {
    if (entry.response.has_snapshot || entry.response.has_delta) {
      ++totals_.snapshot_frames;
    }
    if (entry.response.has_delta) ++totals_.delta_frames;
  }
  for (TimingEndpoint* tap : taps) tap->ClearFrames();
}

void Tracer::Finish(const Fleet& fleet) {
  const std::vector<TimingEndpoint*>& taps =
      plan_.remote ? fleet.taps : local_tap_ptrs_;
  for (const TimingEndpoint* tap : taps) {
    totals_.server_poll_ns += static_cast<double>(tap->busy_ns());
    totals_.server_polls += tap->polls();
  }
}

PassResult RunPass(const Corpus& corpus, const FleetPlan& plan, Fleet* fleet,
                   Tracer* tracer, size_t max_ticks, std::vector<Span>* spans) {
  PassResult result;
  lqs::MonitorService& monitor = *fleet->monitor;
  const size_t n = plan.sessions.size();
  result.sessions = n;
  std::vector<ErrorAccumulator> errors(n);
  std::vector<SessionState> last_state(n, SessionState::kWaiting);
  uint64_t digest = 0x6c71735f62656e63ull;
  size_t ticks = 0;

  auto tick = [&](double now_ms) {
    const uint64_t allocs_before = AllocationCount();
    const double start_ms = NowMs();
    const double busy_start_ms = BusyMs();
    const std::vector<SessionStatus> statuses = monitor.Tick(now_ms);
    const double busy_ms = BusyMs() - busy_start_ms;
    const double end_ms = NowMs();
    result.allocs += AllocationCount() - allocs_before;
    result.tick_ms.push_back(busy_ms);
    int tick_span = -1;
    if (spans != nullptr) {
      tick_span = static_cast<int>(spans->size());
      spans->push_back({"monitor.Tick", start_ms, end_ms, -1, n});
    }
    for (size_t i = 0; i < n; ++i) {
      const SessionStatus& s = statuses[i];
      digest = SplitMix64(digest ^ static_cast<uint64_t>(s.state));
      digest = SplitMix64(digest ^ DoubleBits(s.progress));
      last_state[i] = s.state;
      ++result.visits;
      if (s.state != SessionState::kRunning) {
        ++result.idle_visits;
        continue;
      }
      if (s.snapshot == nullptr) continue;
      ++result.reports;
      if (s.stale) ++result.stale_reports;
      // Age of the data shown: the client's view for remote sessions, the
      // trace snapshot's age for local ones.
      result.staleness_ms.push_back(
          s.remote ? s.staleness_ms : s.local_time_ms - s.snapshot->time_ms);
      errors[i].Add(corpus.queries[plan.sessions[i].query], *s.snapshot,
                    s.progress);
    }
    if (tracer != nullptr) {
      tracer->AfterTick(*fleet, busy_ms * 1e6, statuses,
                        tick_span);
    }
    result.tick_digests.push_back(digest);
    result.virtual_ms = now_ms;
    ++ticks;
  };

  // Tick times are indexed, never accumulated, as in RunToCompletion: the
  // i-th tick is the same double however many preceded it.
  const double horizon = monitor.HorizonMs();
  int64_t i = 1;
  double t = kTickMs;
  for (;; ++i) {
    t = static_cast<double>(i) * kTickMs;
    if (t > horizon + 1e-9 || ticks >= max_ticks) break;
    tick(t);
  }
  for (int extra = 0;
       extra < 256 && ticks < max_ticks && !monitor.AllSessionsDone();
       ++extra) {
    tick(t);
    ++i;
    t = static_cast<double>(i) * kTickMs;
  }
  result.digest = digest;
  result.stats = monitor.stats();

  double time_sum = 0;
  double count_sum = 0;
  size_t observed = 0;
  for (const ErrorAccumulator& e : errors) {
    if (e.n == 0) continue;
    time_sum += e.error_time();
    count_sum += e.error_count();
    ++observed;
  }
  if (observed > 0) {
    result.error_time = time_sum / static_cast<double>(observed);
    result.error_count = count_sum / static_cast<double>(observed);
  }
  if (ticks >= max_ticks) return result;  // a prefix: no final verdict

  std::vector<bool> failed(n, false);
  for (size_t s = 0; s < n; ++s) {
    failed[s] = last_state[s] != SessionState::kDone;
  }
  const lqs::ValidationReport verdict = monitor.FinalCheck();
  for (const lqs::ValidationIssue& issue : verdict.issues()) {
    // Details start with the session name, "s<index>:<query>: ...".
    const size_t index = std::strtoul(issue.detail.c_str() + 1, nullptr, 10);
    if (index < n) failed[index] = true;
    if (result.first_issue.empty()) result.first_issue = issue.ToString();
  }
  result.failed_sessions =
      static_cast<size_t>(std::count(failed.begin(), failed.end(), true));
  if (result.failed_sessions > 0 && result.first_issue.empty()) {
    result.first_issue = "a session never reached kDone";
  }
  return result;
}

}  // namespace perfbench
