#include "bench/bench_util.h"

#include <algorithm>
#include <cstdlib>

#include "common/stringf.h"
#include "exec/executor.h"
#include "lqs/metrics.h"

namespace lqs {
namespace bench {

double BenchScale() {
  const char* env = std::getenv("LQS_BENCH_SCALE");
  if (env != nullptr) {
    double v = std::atof(env);
    if (v > 0) return v;
  }
  return 0.5;
}

StatusOr<Workload> Annotated(StatusOr<Workload> workload,
                             double selectivity_error, uint64_t seed) {
  if (!workload.ok()) return workload;
  OptimizerOptions options;
  options.selectivity_error = selectivity_error;
  options.seed = seed;
  Status s = AnnotateWorkload(&workload.value(), options);
  if (!s.ok()) return s;
  return workload;
}

StatusOr<std::vector<Workload>> MakeAllWorkloads(double scale) {
  std::vector<Workload> workloads;
  auto add = [&](StatusOr<Workload> w) {
    w = Annotated(std::move(w), kBenchSelectivityError);
    if (w.ok()) workloads.push_back(std::move(w).value());
    return w.status();
  };
  // REAL-3, REAL-2, REAL-1 and their full-scale query counts.
  const std::pair<int, int> kReal[] = {{3, 24}, {2, 30}, {1, 30}};
  RealWorkloadOptions real;
  real.scale = scale;
  for (auto [which, queries] : kReal) {
    real.which = which;
    real.num_queries =
        static_cast<int>(queries * std::min(1.0, scale * 2));
    Status s = add(MakeRealWorkload(real));
    if (!s.ok()) return s;
  }
  TpcdsOptions ds;
  ds.scale = scale;
  TpchOptions h;
  h.scale = scale;
  Status s = add(MakeTpcdsWorkload(ds));
  if (s.ok()) s = add(MakeTpchWorkload(h));
  if (!s.ok()) return s;
  return workloads;
}

Status ExecuteEach(
    const Workload& workload, double snapshot_interval_ms,
    const std::function<void(const WorkloadQuery&, const ProfileTrace&)>&
        visit) {
  ExecOptions exec;
  exec.snapshot_interval_ms = snapshot_interval_ms;
  for (const WorkloadQuery& q : workload.queries) {
    auto run = ExecuteQuery(q.plan, workload.catalog.get(), exec);
    if (!run.ok()) {
      return Status::Internal(StringF("%s/%s: %s", workload.name.c_str(),
                                      q.name.c_str(),
                                      run.status().ToString().c_str()));
    }
    visit(q, run->trace);
  }
  return Status::OK();
}

WorkloadResult::WorkloadResult(std::string workload, size_t columns)
    : workload(std::move(workload)),
      error_count(columns, 0.0),
      error_time(columns, 0.0),
      op_count_error(columns),
      op_time_error(columns) {}

void EvaluateConfigs(const WorkloadQuery& query, const Catalog& catalog,
                     const ProfileTrace& trace,
                     const std::vector<EstimatorConfig>& configs,
                     WorkloadResult* result) {
  if (trace.snapshots.size() < 3) return;  // too short to observe
  result->queries++;
  for (size_t c = 0; c < configs.size(); ++c) {
    const EstimatorOptions& options = configs[c].options;
    bool evaluated = false;
    for (size_t d = 0; d < c && !evaluated; ++d) {
      evaluated = configs[d].options == options;
    }
    if (evaluated) continue;
    const QueryEvaluation eval =
        EvaluateQuery(query.plan, catalog, trace, configs[c].options);
    // Every column configured like c takes the same sums in the same order,
    // so it holds exactly what evaluating it on its own would give.
    for (size_t d = c; d < configs.size(); ++d) {
      if (configs[d].options != options) continue;
      result->error_count[d] += eval.error_count;
      result->error_time[d] += eval.error_time;
      for (const OperatorError& op : eval.operator_errors) {
        if (op.count_observations > 0) {
          auto& cell = result->op_count_error[d][op.type];
          cell.first += op.count_error;
          cell.second += 1;
        }
        if (op.time_observations > 0) {
          auto& cell = result->op_time_error[d][op.type];
          cell.first += op.time_error;
          cell.second += 1;
        }
      }
    }
  }
}

void AverageOverQueries(WorkloadResult* result) {
  if (result->queries == 0) return;
  for (double& e : result->error_count) e /= result->queries;
  for (double& e : result->error_time) e /= result->queries;
}

WorkloadResult SelectColumns(const WorkloadResult& result, size_t begin,
                             size_t count) {
  WorkloadResult selected(result.workload, 0);
  selected.queries = result.queries;
  for (size_t c = begin; c < begin + count; ++c) {
    selected.error_count.push_back(result.error_count[c]);
    selected.error_time.push_back(result.error_time[c]);
    selected.op_count_error.push_back(result.op_count_error[c]);
    selected.op_time_error.push_back(result.op_time_error[c]);
  }
  return selected;
}

void PrintErrorTable(std::string* out, const std::string& title,
                     const std::string& metric,
                     const std::vector<WorkloadResult>& results,
                     const std::vector<EstimatorConfig>& configs,
                     bool use_time_metric) {
  *out += StringF("\n%s\n", title.c_str());
  *out += StringF("(average %s per query; lower is better)\n", metric.c_str());
  *out += StringF("%-22s %8s", "workload", "queries");
  for (const auto& c : configs) *out += StringF(" %22s", c.name.c_str());
  *out += "\n";
  for (const auto& r : results) {
    *out += StringF("%-22s %8d", r.workload.c_str(), r.queries);
    const auto& errs = use_time_metric ? r.error_time : r.error_count;
    for (double e : errs) *out += StringF(" %22.4f", e);
    *out += "\n";
  }
}

void PrintPerOperatorTable(std::string* out, const std::string& title,
                           const std::vector<WorkloadResult>& results,
                           const std::vector<EstimatorConfig>& configs,
                           bool use_time_metric) {
  // Aggregate across workloads.
  std::vector<OperatorErrors> agg(configs.size());
  for (const auto& r : results) {
    const auto& src = use_time_metric ? r.op_time_error : r.op_count_error;
    for (size_t c = 0; c < configs.size(); ++c) {
      for (const auto& [type, cell] : src[c]) {
        agg[c][type].first += cell.first;
        agg[c][type].second += cell.second;
      }
    }
  }
  *out += StringF("\n%s\n", title.c_str());
  *out += StringF("%-28s %10s", "operator", "instances");
  for (const auto& c : configs) *out += StringF(" %22s", c.name.c_str());
  *out += "\n";
  for (const auto& [type, cell0] : agg[0]) {
    if (cell0.second < 3) continue;  // too few instances to be meaningful
    *out += StringF("%-28s %10d", OpTypeName(type), cell0.second);
    for (size_t c = 0; c < configs.size(); ++c) *out += ErrorCell(agg[c], type);
    *out += "\n";
  }
}

std::string ErrorCell(const OperatorErrors& errors, OpType type) {
  auto it = errors.find(type);
  if (it == errors.end() || it->second.second == 0) {
    return StringF(" %22s", "-");
  }
  return StringF(" %22.4f", it->second.first / it->second.second);
}

std::string RenderCurve(const std::vector<double>& values, int width) {
  static const char* kLevels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  std::string out;
  if (values.empty()) return out;
  for (int i = 0; i < width; ++i) {
    size_t idx = values.size() * static_cast<size_t>(i) /
                 static_cast<size_t>(width);
    double v = values[idx];
    int level = static_cast<int>(v * 7.999);
    if (level < 0) level = 0;
    if (level > 7) level = 7;
    out += kLevels[level];
  }
  return out;
}

}  // namespace bench
}  // namespace lqs
