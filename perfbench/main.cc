// The monitor benchmark.
//
//   perfbench --workload fleet_steady|fleet_churn|replay_local --seed N
//             --seconds S --trace 0|1 [--spans FILE]
//
// Replays whole timelines, each on a freshly registered monitor, until
// --seconds of passes have run (at least two), and sets the workload up
// (generate, annotate, execute, register) kSetupReps times spread over the
// run. Every Tick() is timed by this driver, back to back on the virtual
// timeline. Prints one "metric <name> <value> <unit>" line per metric, the
// status digest, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 1 the passes
// alternate untraced and traced, and the metrics are the per-layer ones.
//
// A run is incorrect when a session is not done at the end, FinalCheck
// reports an issue, a deterministic figure differs between passes, the
// status digest differs between 1 and N workers, or a traced repeat of a
// hidden call does not reproduce the tick's result.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "monitor_bench.h"
#include "stats.h"

using namespace perfbench;  // NOLINT: benchmark driver

namespace {

/// Ticks of the other-worker-count replay for a fleet, compared against the
/// same prefix of the first pass; replay_local is compared whole.
constexpr size_t kFleetPrefixTicks = 40;
/// Set-ups per run; setup_s is their lower quartile.
constexpr size_t kSetupReps = 7;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
  return 0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// The figures that depend only on the seed: any difference between two
/// passes of one run is a determinism bug.
bool SameDeterministicFigures(const PassResult& a, const PassResult& b) {
  const lqs::MonitorStats& x = a.stats;
  const lqs::MonitorStats& y = b.stats;
  return a.digest == b.digest && a.reports == b.reports &&
         a.stale_reports == b.stale_reports && a.visits == b.visits &&
         a.idle_visits == b.idle_visits &&
         std::memcmp(&a.error_time, &b.error_time, sizeof(double)) == 0 &&
         std::memcmp(&a.error_count, &b.error_count, sizeof(double)) == 0 &&
         a.staleness_ms == b.staleness_ms &&
         a.failed_sessions == b.failed_sessions &&
         x.transport_polls == y.transport_polls &&
         x.transport_retries == y.transport_retries &&
         x.transport_bytes == y.transport_bytes &&
         x.decode_errors == y.decode_errors &&
         x.delta_resyncs == y.delta_resyncs &&
         x.snapshots_accepted == y.snapshots_accepted;
}

void Accumulate(LayerTotals* into, const LayerTotals& from) {
  into->reports += from.reports;
  into->tick_busy_ns += from.tick_busy_ns;
  into->server_poll_ns += from.server_poll_ns;
  into->server_polls += from.server_polls;
  into->frames += from.frames;
  into->frame_bytes += from.frame_bytes;
  into->snapshot_frames += from.snapshot_frames;
  into->delta_frames += from.delta_frames;
  into->client_apply_ns += from.client_apply_ns;
  into->crc_ns += from.crc_ns;
  into->crc_bytes += from.crc_bytes;
  into->estimate_ns += from.estimate_ns;
  into->estimate_samples_ns.insert(into->estimate_samples_ns.end(),
                                   from.estimate_samples_ns.begin(),
                                   from.estimate_samples_ns.end());
  into->check_ns += from.check_ns;
  into->lookup_ns += from.lookup_ns;
  into->lookups += from.lookups;
  into->beside_failures += from.beside_failures;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The Tick() times of one pass with outside load filtered out: every pass
/// ticks the same timeline with the same work, so each tick is taken at its
/// lower quartile over the passes (StepwiseLowerQuartile).
std::vector<double> QuietPassTicks(const std::vector<PassResult>& passes) {
  std::vector<const std::vector<double>*> ticks;
  for (const PassResult& p : passes) ticks.push_back(&p.tick_ms);
  return StepwiseLowerQuartile(ticks);
}

/// Reports of one pass over the summed CPU time of its quiet Tick() calls.
double ReportsPerSecond(const std::vector<PassResult>& passes) {
  if (passes.empty()) return 0;
  double busy_ms = 0;
  for (double ms : QuietPassTicks(passes)) busy_ms += ms;
  return Ratio(static_cast<double>(passes.front().reports), busy_ms / 1000);
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ms\":%.6f,"
                 "\"end_ms\":%.6f,\"parent\":%d,\"count\":%" PRIu64 "}\n",
                 i, s.name.c_str(), s.start_ms, s.end_ms, s.parent, s.count);
  }
  std::fclose(out);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload fleet_steady|fleet_churn|"
                 "replay_local --seed N --seconds S --trace 0|1 "
                 "[--spans FILE]\n");
    return 2;
  }
  lqs::StatusOr<WorkloadKind> kind = ParseWorkload(args.workload);
  if (!kind.ok()) {
    std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
    return 2;
  }
  const bool trace = args.trace != 0;
  SetAllocationCounting(trace);

  // Set-up: generate, annotate, execute, register. It is repeated
  // kSetupReps times, spread over the run so that outside load for a few
  // seconds moves few of them; each repetition frees the previous one
  // first and drives the passes that follow it.
  std::vector<double> setup_s, generate_s, annotate_s, execute_s, register_s;
  std::unique_ptr<Corpus> corpus;
  FleetPlan plan;
  Fleet fleet;
  auto set_up = [&]() -> bool {
    fleet = Fleet{};
    corpus.reset();
    const double start = BusyMs();
    lqs::StatusOr<Corpus> built = BuildCorpus(args.seed);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return false;
    }
    corpus = std::make_unique<Corpus>(std::move(built).value());
    plan = PlanFleet(*kind, *corpus, args.seed);
    fleet = RegisterFleet(*corpus, plan, plan.workers, /*tap=*/false);
    setup_s.push_back((BusyMs() - start) / 1000);
    generate_s.push_back(corpus->generate_s);
    annotate_s.push_back(corpus->annotate_s);
    execute_s.push_back(corpus->execute_s);
    register_s.push_back(fleet.register_s);
    return true;
  };

  // Timed passes, each over the whole timeline on a fresh monitor. Set-up
  // k runs before the first pass that starts after k / kSetupReps of the
  // measured time.
  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  LayerTotals layers;
  std::vector<Span> spans;
  double measured_ms = 0;
  double peak_rss_mb = 0;
  const double budget_ms = args.seconds * 1000;
  for (int pass = 0;; ++pass) {
    const bool traced_pass = trace && pass % 2 == 1;
    const size_t setups = setup_s.size();
    if (setups < kSetupReps &&
        measured_ms >= budget_ms * static_cast<double>(setups) / kSetupReps) {
      if (!set_up()) return 1;
    }
    if (setup_s.size() == setups || traced_pass) {
      // The set-up's own fleet has no timing decorators.
      fleet = RegisterFleet(*corpus, plan, plan.workers,
                            /*tap=*/traced_pass && plan.remote);
    }
    std::unique_ptr<Tracer> tracer;
    if (traced_pass) tracer = std::make_unique<Tracer>(*corpus, plan, &spans);
    const double start = NowMs();
    PassResult result = RunPass(*corpus, plan, &fleet, tracer.get(), SIZE_MAX,
                                traced_pass ? &spans : nullptr);
    measured_ms += NowMs() - start;
    if (tracer) {
      tracer->Finish(fleet);
      Accumulate(&layers, tracer->totals());
    }
    fleet = Fleet{};
    // One monitor's lifetime: set-up plus its first pass. Later passes
    // re-register on a heap the earlier ones fragmented.
    if (pass == 0) peak_rss_mb = PeakRssMb();
    (traced_pass ? traced : untraced).push_back(std::move(result));
    if (measured_ms >= budget_ms && untraced.size() + traced.size() >= 2) {
      break;
    }
  }
  // Passes longer than a share of the run leave set-ups due at its end.
  while (setup_s.size() < kSetupReps) {
    if (!set_up()) return 1;
  }
  const PassResult& reference = untraced.front();

  // The same timeline prefix on one worker must produce the same statuses,
  // tick for tick.
  const int other_workers = kOtherWorkers;
  const size_t prefix =
      std::min(reference.tick_digests.size(),
               plan.remote ? kFleetPrefixTicks : reference.tick_digests.size());
  fleet = RegisterFleet(*corpus, plan, other_workers, /*tap=*/false);
  const PassResult other = RunPass(*corpus, plan, &fleet, nullptr, prefix);
  fleet = Fleet{};
  const bool workers_agree =
      other.tick_digests.size() == prefix &&
      (prefix == 0 ||
       other.tick_digests[prefix - 1] == reference.tick_digests[prefix - 1]);

  bool correct = workers_agree && layers.beside_failures == 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const std::vector<PassResult>* set : {&untraced, &traced}) {
    for (const PassResult& p : *set) {
      attempted += p.sessions;
      failed += p.failed_sessions;
      if (!p.first_issue.empty()) {
        std::fprintf(stderr, "FAIL: %s\n", p.first_issue.c_str());
        correct = false;
      }
      if (!SameDeterministicFigures(reference, p)) {
        std::fprintf(stderr, "FAIL: a deterministic figure changed between "
                             "passes\n");
        correct = false;
      }
    }
  }
  if (!workers_agree) {
    std::fprintf(stderr, "FAIL: statuses differ between %d and %d workers "
                         "within the first %zu ticks\n",
                 plan.workers, other_workers, prefix);
  }
  if (layers.beside_failures > 0) {
    std::fprintf(stderr, "FAIL: %" PRIu64 " traced repeats disagreed with "
                         "the tick\n", layers.beside_failures);
  }

  size_t ticks = 0;
  uint64_t allocs = 0;
  for (const PassResult& p : untraced) {
    ticks += p.tick_ms.size();
    allocs += p.allocs;
  }
  const std::vector<double> quiet = QuietPassTicks(untraced);
  const double tick_level = TailQuantileLevel(quiet.size(), 0.99);
  const double staleness_level =
      TailQuantileLevel(reference.staleness_ms.size(), 0.99);
  const double sessions = static_cast<double>(reference.sessions);
  const lqs::MonitorStats& counts = reference.stats;

  std::printf("workload %s seed %" PRIu64 " sessions %zu queries %zu "
              "workers %d passes %zu+%zu ticks/pass %zu running share %.3f\n",
              WorkloadName(*kind), args.seed, reference.sessions,
              corpus->queries.size(), plan.workers, untraced.size(),
              traced.size(), reference.tick_ms.size(),
              1 - Ratio(static_cast<double>(reference.idle_visits),
                        static_cast<double>(reference.visits)));
  std::printf("tick percentiles are of the %zu quiet ticks of a pass (each "
              "tick's lower quartile over %zu passes): tick_ms_p99 is "
              "p%.2f; staleness_ms_p99 is p%.2f of %zu reports\n",
              quiet.size(), untraced.size(), 100 * tick_level,
              100 * staleness_level, reference.staleness_ms.size());
  std::printf("digest %016" PRIx64 " (%zu ticks; %d workers agree over %zu "
              "ticks: %s)\n",
              reference.digest, reference.tick_digests.size(), other_workers,
              prefix, workers_agree ? "yes" : "NO");

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"reports_per_s", ReportsPerSecond(untraced), "1/s"},
        {"tick_ms_p50", Median(quiet), "ms"},
        {"tick_ms_p99", Quantile(quiet, tick_level), "ms"},
        {"error_time", reference.error_time, "fraction"},
        {"error_count", reference.error_count, "fraction"},
        {"bytes_per_session_s",
         Ratio(static_cast<double>(counts.transport_bytes),
               sessions * reference.virtual_ms / 1000),
         "B/session/s"},
        {"stale_share",
         Ratio(static_cast<double>(reference.stale_reports),
               static_cast<double>(reference.reports)),
         "fraction"},
        {"staleness_ms_p99", Quantile(reference.staleness_ms, staleness_level),
         "ms"},
        {"failed_share",
         Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
         "fraction"},
        {"setup_s", LowerQuartile(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
    };
  } else {
    // Children of the tick: for remote sessions the server poll (timed
    // inside it) and the client's decode/apply, estimate and check (timed
    // beside it); for local sessions the trace lookup, estimate and check.
    const double children =
        layers.estimate_ns + layers.check_ns +
        (plan.remote ? layers.server_poll_ns + layers.client_apply_ns
                     : layers.lookup_ns);
    const double capacity_ns = layers.tick_busy_ns * plan.workers;
    const double reports = static_cast<double>(layers.reports);
    const double self_ns = capacity_ns - children;
    const double untraced_rps = ReportsPerSecond(untraced);
    metrics = {
        {"workload.generate_s", LowerQuartile(generate_s), "s"},
        {"optimizer.annotate_s", LowerQuartile(annotate_s), "s"},
        {"exec.execute_s", LowerQuartile(execute_s), "s"},
        {"monitor.register_s", LowerQuartile(register_s), "s"},
        {"monitor.self_ns_per_report", Ratio(self_ns, reports), "ns"},
        {"monitor.allocs_per_tick",
         Ratio(static_cast<double>(allocs), static_cast<double>(ticks)),
         "count"},
        {"monitor.idle_visit_share",
         Ratio(static_cast<double>(reference.idle_visits),
               static_cast<double>(reference.visits)),
         "fraction"},
        {"remote.server_poll_ns",
         Ratio(layers.server_poll_ns, static_cast<double>(layers.server_polls)),
         "ns"},
        {"remote.client_apply_ns",
         Ratio(layers.client_apply_ns, static_cast<double>(layers.frames)),
         "ns"},
        {"remote.crc_ns_per_kib",
         Ratio(layers.crc_ns, static_cast<double>(layers.crc_bytes) / 1024),
         "ns/KiB"},
        {"remote.bytes_per_poll",
         Ratio(static_cast<double>(layers.frame_bytes),
               static_cast<double>(layers.frames)),
         "B"},
        {"remote.delta_share",
         Ratio(static_cast<double>(layers.delta_frames),
               static_cast<double>(layers.snapshot_frames)),
         "fraction"},
        {"remote.retries_per_poll",
         Ratio(static_cast<double>(counts.transport_retries),
               static_cast<double>(counts.transport_polls)),
         "count"},
        {"remote.resyncs", static_cast<double>(counts.delta_resyncs), "count"},
        {"remote.decode_errors", static_cast<double>(counts.decode_errors),
         "count"},
        {"lqs.estimate_ns_p50", Quantile(layers.estimate_samples_ns, 0.5),
         "ns"},
        {"lqs.estimate_ns_p99",
         Quantile(layers.estimate_samples_ns,
                  TailQuantileLevel(layers.estimate_samples_ns.size(), 0.99)),
         "ns"},
        {"analysis.check_ns", Ratio(layers.check_ns, reports), "ns"},
        {"dmv.snapshot_lookup_ns",
         Ratio(layers.lookup_ns, static_cast<double>(layers.lookups)), "ns"},
        {"trace_overhead",
         1 - Ratio(ReportsPerSecond(traced), untraced_rps), "fraction"},
    };
    std::printf("accounting (traced ticks, CPU ns): busy %.0f x %d workers = "
                "%.0f = estimate %.0f + check %.0f",
                layers.tick_busy_ns, plan.workers, capacity_ns,
                layers.estimate_ns, layers.check_ns);
    if (plan.remote) {
      std::printf(" + server poll %.0f + client apply %.0f",
                  layers.server_poll_ns, layers.client_apply_ns);
    } else {
      std::printf(" + lookup %.0f", layers.lookup_ns);
    }
    std::printf(" + monitor self %.0f\n", self_ns);
    if (!args.spans_path.empty()) WriteSpans(args.spans_path, spans);
  }

  for (const Metric& m : metrics) {
    std::printf("metric %s %.9g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
