// Live plan monitor over a lossy link: the SSMS Live Query Statistics
// visualization (Figures 2-4) rendered in a terminal, with the DMV polls
// crossing the remote snapshot transport (DESIGN.md §10) instead of a
// pointer read. Runs a TPC-H query, then monitors its DMV stream through a
// FaultInjectingEndpoint that drops, delays, duplicates and corrupts
// responses under a seeded RNG — watch the monitor hold stale frames,
// retry, and still converge to 100%.
//
//   $ ./build/examples/live_monitor [query-name] [--clean]   (default: q05)
//
// --clean monitors over a fault-free loopback link instead.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/validator.h"
#include "common/stringf.h"
#include "exec/executor.h"
#include "lqs/estimator.h"
#include "monitor/monitor_service.h"
#include "remote/endpoint.h"
#include "remote/fault_injection.h"
#include "workload/workload.h"

using namespace lqs;  // NOLINT: example code

namespace {

std::string Bar(double fraction, int width) {
  int fill = static_cast<int>(fraction * width + 0.5);
  std::string out(static_cast<size_t>(fill), '#');
  out.append(static_cast<size_t>(width - fill), '.');
  return out;
}

/// Per-operator frame: the LQS window for this query at one monitor tick.
void RenderFrame(const Plan& plan, const SessionStatus& status) {
  const char* condition = status.degraded ? "DEGRADED"
                          : status.stale  ? "stale"
                                          : "live";
  std::printf(
      "\n==== t = %6.1f ms | query progress %5.1f%% (%s) | link: %s, "
      "snapshot age %.1f ms ====\n",
      status.local_time_ms, 100 * status.progress,
      Bar(status.progress, 30).c_str(), condition, status.staleness_ms);
  if (status.snapshot == nullptr) {
    std::printf("  (no snapshot has crossed the link yet)\n");
    return;
  }
  struct Renderer {
    const ProfileSnapshot& snap;
    const ProgressReport& report;
    void Print(const PlanNode& node, int depth) {
      const OperatorProfile& prof = snap.operators[node.id];
      double p = report.operator_progress[node.id];
      std::string label(static_cast<size_t>(depth) * 2, ' ');
      label += OpTypeName(node.type);
      if (!node.table_name.empty()) label += " [" + node.table_name + "]";
      std::printf("  %-44s %5.1f%% |%s| rows %8llu / est %-8.0f\n",
                  label.c_str(), 100 * p, Bar(p, 20).c_str(),
                  static_cast<unsigned long long>(prof.row_count),
                  report.refined_rows[node.id]);
      for (const auto& c : node.children) Print(*c, depth + 1);
    }
  };
  if (status.state == SessionState::kDone) {
    // The final snapshot carries no estimator report; the bars are all full.
    std::printf("  (complete — final counters received)\n");
    return;
  }
  Renderer{*status.snapshot, *status.report}.Print(*plan.root, 0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string wanted = "q05";
  bool clean_link = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--clean") == 0) {
      clean_link = true;
    } else {
      wanted = argv[i];
    }
  }

  TpchOptions opt;
  opt.scale = 0.3;
  auto w = MakeTpchWorkload(opt);
  if (!w.ok()) {
    std::fprintf(stderr, "%s\n", w.status().ToString().c_str());
    return 1;
  }
  OptimizerOptions oo;
  oo.selectivity_error = 1.0;  // realistic misestimation to watch refine
  if (!AnnotateWorkload(&w.value(), oo).ok()) return 1;

  WorkloadQuery* query = nullptr;
  for (auto& q : w->queries) {
    if (q.name == wanted) query = &q;
  }
  if (query == nullptr) {
    std::fprintf(stderr, "unknown query '%s'; available:", wanted.c_str());
    for (auto& q : w->queries) std::fprintf(stderr, " %s", q.name.c_str());
    std::fprintf(stderr, "\n");
    return 1;
  }

  ExecOptions exec;
  exec.snapshot_interval_ms = 5.0;
  auto result = ExecuteQuery(query->plan, w->catalog.get(), exec);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("TPC-H %s — %llu rows, %.0f virtual ms, %zu DMV polls\n",
              query->name.c_str(),
              static_cast<unsigned long long>(result->rows_returned),
              result->duration_ms, result->trace.snapshots.size());

  ValidationReport plan_report =
      PlanValidator(w->catalog.get()).Validate(query->plan);
  if (!plan_report.ok()) {
    std::fprintf(stderr, "%s", plan_report.ToString().c_str());
    return 1;
  }

  // The monitored session's snapshots cross a (possibly lossy) link: every
  // response is serialized through the wire format, and the fault model
  // drops/delays/duplicates/corrupts it before the polling client sees it.
  auto loopback = std::make_unique<LoopbackEndpoint>(&result->trace);
  std::unique_ptr<SnapshotEndpoint> endpoint;
  const FaultStats* fault_stats = nullptr;
  if (clean_link) {
    endpoint = std::move(loopback);
    std::printf("link: clean loopback\n");
  } else {
    FaultConfig faults;
    faults.drop_probability = 0.15;
    faults.delay_probability = 0.25;
    faults.max_delay_ms = 15.0;  // up to 3 polling intervals
    faults.duplicate_probability = 0.10;
    faults.corrupt_probability = 0.10;
    faults.seed = 7;
    auto lossy = std::make_unique<FaultInjectingEndpoint>(std::move(loopback),
                                                          faults);
    fault_stats = &lossy->fault_stats();
    endpoint = std::move(lossy);
    std::printf(
        "link: lossy (drop %.0f%%, delay %.0f%% up to %.0f ms, dup %.0f%%, "
        "corrupt %.0f%%, seed %llu)\n",
        100 * faults.drop_probability, 100 * faults.delay_probability,
        faults.max_delay_ms, 100 * faults.duplicate_probability,
        100 * faults.corrupt_probability,
        static_cast<unsigned long long>(faults.seed));
  }

  PollingClientOptions client_options;
  client_options.timeout_ms = 5.0;  // one polling interval
  client_options.max_attempts = 3;
  client_options.backoff_initial_ms = 1.0;
  client_options.backoff_max_ms = 4.0;

  MonitorOptions monitor_options;
  monitor_options.ticks_per_horizon = 32;
  MonitorService monitor(monitor_options);
  monitor.RegisterRemoteSession(query->name, &query->plan, w->catalog.get(),
                                std::move(endpoint), /*start_offset_ms=*/0,
                                client_options);

  // Full operator frames at a few evenly spaced ticks; a one-line transport
  // status everywhere else.
  const int frame_every = 5;
  int tick_index = 0;
  monitor.RunToCompletion(
      [&](double, const std::vector<SessionStatus>& statuses) {
        const SessionStatus& status = statuses[0];
        if (tick_index++ % frame_every == 0 ||
            status.state == SessionState::kDone) {
          RenderFrame(query->plan, status);
        } else {
          std::printf(
              "t = %6.1f ms | %5.1f%% | %s%s\n", status.local_time_ms,
              100 * status.progress, status.stale ? "stale" : "live",
              status.degraded ? " DEGRADED" : "");
        }
      });

  if (!monitor.AllSessionsDone()) {
    std::fprintf(stderr, "session never completed over the lossy link\n");
    return 1;
  }
  ValidationReport final_report = monitor.FinalCheck();
  if (!final_report.ok()) {
    std::fprintf(stderr, "%s", final_report.ToString().c_str());
    return 1;
  }

  const ClientStats& stats = monitor.session_client_stats(0);
  std::printf(
      "\ntransport: %llu polls, %llu attempts (%llu retries), "
      "%llu timeouts, %llu decode errors\n",
      static_cast<unsigned long long>(stats.polls),
      static_cast<unsigned long long>(stats.attempts),
      static_cast<unsigned long long>(stats.retries),
      static_cast<unsigned long long>(stats.transport_failures),
      static_cast<unsigned long long>(stats.decode_errors));
  std::printf(
      "           %llu snapshots accepted, %llu duplicates ignored, "
      "%llu regressions rejected, %llu stale ticks\n",
      static_cast<unsigned long long>(stats.accepted),
      static_cast<unsigned long long>(stats.duplicates_ignored),
      static_cast<unsigned long long>(stats.regressions_rejected),
      static_cast<unsigned long long>(stats.stale_polls));
  if (fault_stats != nullptr) {
    std::printf(
        "link faults: %llu dropped, %llu delayed (%llu delivered late), "
        "%llu duplicated, %llu corrupted\n",
        static_cast<unsigned long long>(fault_stats->dropped),
        static_cast<unsigned long long>(fault_stats->delayed),
        static_cast<unsigned long long>(fault_stats->late_delivered),
        static_cast<unsigned long long>(fault_stats->duplicated),
        static_cast<unsigned long long>(fault_stats->corrupted));
  }
  return 0;
}
