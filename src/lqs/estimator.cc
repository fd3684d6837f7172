#include "lqs/estimator.h"

#include "exec/cost_constants.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace lqs {

namespace {

double K(const ProfileSnapshot& snap, int id) {
  return static_cast<double>(snap.operators[id].row_count);
}

/// Executions of a node so far (NL inner sides): first Open plus rebinds.
double Executions(const ProfileSnapshot& snap, int id) {
  const OperatorProfile& p = snap.operators[id];
  return static_cast<double>(p.rebind_count) + (p.opened ? 1.0 : 0.0);
}

bool IsBlockingForProgress(OpType type) {
  // §4.5 applies to operators whose own processing is dominated by input
  // consumption: the sort family, hash aggregation and the hash join build.
  return IsSortFamily(type) || type == OpType::kHashAggregate ||
         type == OpType::kHashJoin || type == OpType::kEagerSpool;
}

}  // namespace

EstimatorOptions EstimatorOptions::TotalGetNext() {
  EstimatorOptions o;
  o.use_driver_nodes = false;
  o.refine_cardinality = false;
  o.bound_cardinality = false;
  o.semi_blocking_adjust = false;
  o.two_phase_blocking = false;
  o.use_weights = false;
  o.storage_predicate_io = false;
  o.batch_mode_segments = false;
  return o;
}

EstimatorOptions EstimatorOptions::BoundingOnly() {
  EstimatorOptions o = TotalGetNext();
  o.bound_cardinality = true;
  return o;
}

EstimatorOptions EstimatorOptions::DriverNodeRefined() {
  EstimatorOptions o;
  o.use_driver_nodes = true;
  o.refine_cardinality = true;
  o.bound_cardinality = true;
  o.semi_blocking_adjust = true;
  o.two_phase_blocking = false;
  o.use_weights = false;
  o.storage_predicate_io = true;
  o.batch_mode_segments = true;
  return o;
}

EstimatorOptions EstimatorOptions::Lqs() {
  EstimatorOptions o;  // defaults are the full configuration
  return o;
}

const char* EstimatorOptions::PresetName(int index) {
  static constexpr const char* kNames[kPresetCount] = {"tgn", "bounding",
                                                       "refined", "lqs"};
  if (index < 0 || index >= kPresetCount) {
    std::fprintf(stderr,
                 "EstimatorOptions::PresetName: index %d out of range "
                 "[0, %d)\n",
                 index, kPresetCount);
    std::abort();
  }
  return kNames[index];
}

EstimatorOptions EstimatorOptions::PresetByIndex(int index) {
  switch (index) {
    case 0: return TotalGetNext();
    case 1: return BoundingOnly();
    case 2: return DriverNodeRefined();
    case 3: return Lqs();
    default: break;
  }
  std::fprintf(stderr,
               "EstimatorOptions::PresetByIndex: index %d out of range "
               "[0, %d)\n",
               index, kPresetCount);
  std::abort();
}

bool EstimatorOptions::PresetFromName(std::string_view name,
                                      EstimatorOptions* out) {
  for (int i = 0; i < kPresetCount; ++i) {
    if (name == PresetName(i)) {
      *out = PresetByIndex(i);
      return true;
    }
  }
  // "<preset>_lp": the base preset with the LpBound-intersected bounding
  // engine (see EstimatorOptions::bounds_engine).
  constexpr std::string_view kLpSuffix = "_lp";
  if (name.size() > kLpSuffix.size() &&
      name.substr(name.size() - kLpSuffix.size()) == kLpSuffix) {
    EstimatorOptions base;
    if (PresetFromName(name.substr(0, name.size() - kLpSuffix.size()),
                       &base)) {
      base.bounds_engine = BoundsEngineKind::kIntersect;
      *out = base;
      return true;
    }
  }
  return false;
}

uint64_t EstimatorOptions::PackBits() const {
  uint64_t bits = 0;
  int shift = 0;
  for (bool flag :
       {use_driver_nodes, refine_cardinality, bound_cardinality,
        semi_blocking_adjust, two_phase_blocking, use_weights,
        critical_path_only, storage_predicate_io, batch_mode_segments,
        interpolate_refinement, propagate_refinement, incremental}) {
    if (flag) bits |= uint64_t{1} << shift;
    ++shift;
  }
  // Bit 12 is unused; bits 13-14: the bounds-engine selector (three engine
  // kinds).
  bits |= static_cast<uint64_t>(bounds_engine) << 13;
  return bits | (refine_min_rows << 16);
}

ProgressEstimator::ProgressEstimator(const Plan* plan, const Catalog* catalog,
                                     EstimatorOptions options)
    : plan_(plan), catalog_(catalog), options_(options),
      analysis_(AnalyzePlan(*plan, catalog)) {}

void ProgressEstimator::PrepareWorkspace(Workspace* ws) const {
  if (ws->owner == this) return;
  if (ws->owner != nullptr) {
    // One workspace per estimator per thread (see the Workspace contract):
    // a workspace bound to another estimator carries that plan's shape and
    // frozen values. Mixing plans would read caches of the wrong query —
    // abort loudly instead.
    std::fprintf(stderr,
                 "ProgressEstimator::EstimateInto: workspace is bound to a "
                 "different estimator (plan shape %zu nodes, this plan has "
                 "%d) — use one Workspace per estimator per thread\n",
                 ws->n_hat.size(), plan_->size());
    std::abort();
  }
  const size_t n = static_cast<size_t>(plan_->size());
  const size_t np = static_cast<size_t>(analysis_.pipeline_count());
  ws->owner = this;
  ws->n_hat.assign(n, 0.0);
  ws->alpha.assign(np, 0.0);
  ws->weight.assign(np, 0.0);
  ws->bounds.lower.reserve(n);  // sized by ComputeBoundsInto per call
  ws->bounds.upper.reserve(n);
  ws->lp_bounds.lower.reserve(n);  // second-engine scratch (kIntersect)
  ws->lp_bounds.upper.reserve(n);
  ws->node_frozen.assign(n, 0);
  ws->pipeline_finished.assign(np, 0);
  ws->weight_frozen.assign(np, 0);
  ws->frozen_weight.assign(np, 0.0);
  ws->on_path.assign(np, 1);
  ws->cp_best.assign(np, 0.0);
  ws->cp_best_child.assign(np, -1);
}

void ProgressEstimator::ComputeFreezeMasks(const ProfileSnapshot& snapshot,
                                           Workspace* ws) const {
  if (!options_.incremental) return;  // masks stay all-zero
  // Everything below derives from THIS snapshot only. A `finished` operator
  // outside every NL-inner side has final counters, so any snapshot that
  // shows it finished shows the same counters — frozen values computed from
  // one such snapshot are exact for all of them, in any replay order.
  const int n = plan_->size();
  for (int i = 0; i < n; ++i) {
    ws->node_frozen[i] = (snapshot.operators[i].finished &&
                          !analysis_.under_nlj_inner[i])
                             ? 1
                             : 0;
  }
  for (const PipelineInfo& p : analysis_.pipelines) {
    bool finished = true;
    for (int id : p.nodes) {
      finished = finished && snapshot.operators[id].finished;
    }
    ws->pipeline_finished[p.id] = finished ? 1 : 0;
  }
}

double ProgressEstimator::FullScanRows(const PlanNode& node) const {
  if (options_.incremental && analysis_.has_catalog_statics) {
    const NodeStatics& s = analysis_.node_statics[node.id];
    return s.uncorrelated_full_scan ? s.table_rows : -1.0;
  }
  if (!((node.type == OpType::kTableScan ||
         node.type == OpType::kClusteredIndexScan ||
         node.type == OpType::kIndexScan ||
         node.type == OpType::kColumnstoreScan) &&
        node.pushed_predicate == nullptr && node.bitmap_source_id < 0 &&
        !analysis_.on_nlj_inner_side[node.id])) {
    return -1.0;
  }
  const Table* t = catalog_->GetTable(node.table_name);
  return t == nullptr ? -1.0 : static_cast<double>(t->num_rows());
}

void ProgressEstimator::DriverContribution(const ProfileSnapshot& snapshot,
                                           int node_id,
                                           const std::vector<double>& n_hat,
                                           double* k, double* n) const {
  const PlanNode& node = plan_->node(node_id);
  const OperatorProfile& prof = snapshot.operators[node_id];
  const double rows_out = K(snapshot, node_id);

  if (prof.finished && !analysis_.on_nlj_inner_side[node_id]) {
    *k = 1.0;
    *n = 1.0;
    return;
  }

  // §4.7: batch-mode scans progress by segments processed.
  if (node.type == OpType::kColumnstoreScan && options_.batch_mode_segments &&
      prof.segment_total_count > 0) {
    const double total =
        static_cast<double>(prof.segment_total_count);
    *k = static_cast<double>(prof.segment_read_count);
    *n = total;
    return;
  }

  // §4.3: scans with storage-engine predicates progress by I/O fraction —
  // their output cardinality is unreliable, but the pages they must touch
  // are known exactly.
  if (IsScan(node.type) && prof.has_pushed_predicate &&
      options_.storage_predicate_io && prof.total_pages > 0 &&
      !analysis_.on_nlj_inner_side[node_id]) {
    *k = static_cast<double>(prof.logical_read_count);
    *n = static_cast<double>(prof.total_pages);
    return;
  }

  // Plain full scans: total known exactly from the catalog.
  const double scan_rows = FullScanRows(node);
  if (scan_rows > 0) {
    *k = rows_out;
    *n = scan_rows;
    return;
  }

  // Everything else (seeks, blocking-operator outputs, constant scans,
  // NL-inner drivers): use the current best cardinality estimate.
  *k = rows_out;
  *n = std::max(1.0, n_hat[node_id]);
}

void ProgressEstimator::PipelineAlphasInto(const ProfileSnapshot& snapshot,
                                           const std::vector<double>& n_hat,
                                           bool include_inner,
                                           Workspace* ws) const {
  std::vector<double>& alpha = ws->alpha;
  for (const PipelineInfo& p : analysis_.pipelines) {
    if (options_.incremental && ws->pipeline_finished[p.id] != 0 &&
        analysis_.pipeline_freezable[p.id]) {
      // Every member operator finished: the root-finished override below
      // would force exactly 1.0 — skip the driver loop.
      alpha[p.id] = 1.0;
      ws->stats.alpha_freezes++;
      continue;
    }
    double sum_k = 0;
    double sum_n = 0;
    auto add = [&](int d) {
      double k = 0;
      double n = 1;
      DriverContribution(snapshot, d, n_hat, &k, &n);
      // Normalize heterogeneous units (rows vs pages vs segments) by
      // weighting each driver by its row cardinality estimate.
      double weight = std::max(1.0, n_hat[d]);
      if (n > 0) {
        sum_k += weight * (k / n);
        sum_n += weight;
      }
    };
    for (int d : p.driver_nodes) add(d);
    if (include_inner && options_.semi_blocking_adjust) {
      for (int d : p.inner_driver_nodes) add(d);
    }
    alpha[p.id] = sum_n > 0 ? std::clamp(sum_k / sum_n, 0.0, 1.0) : 0.0;
    // A pipeline whose root has finished is complete regardless of the
    // drivers' bookkeeping.
    if (snapshot.operators[p.root_node].finished &&
        !analysis_.on_nlj_inner_side[p.root_node]) {
      alpha[p.id] = 1.0;
    }
  }
}

void ProgressEstimator::RefinePass(const ProfileSnapshot& snapshot,
                                   const std::vector<double>& alpha,
                                   const CardinalityBounds* bounds,
                                   std::vector<double>* n_hat) const {
  // Bottom-up (children before parents) so child refinements feed the
  // §4.4(2) immediate-child scale-up; the order is hoisted into
  // analysis_.postorder so the hot path is one flat loop.
  for (int id : analysis_.postorder) {
    RefineNode(snapshot, plan_->node(id), alpha, bounds, n_hat);
  }
}

void ProgressEstimator::RefineNode(const ProfileSnapshot& snapshot,
                                   const PlanNode& node,
                                   const std::vector<double>& alpha,
                                   const CardinalityBounds* bounds,
                                   std::vector<double>* n_hat) const {
  const int id = node.id;
  const OperatorProfile& prof = snapshot.operators[id];
  const double k = K(snapshot, id);
  const bool inner = analysis_.on_nlj_inner_side[id];
  double estimate = node.est_rows;  // showplan default
  bool locally_refined = false;     // estimate replaced by observation

  if (prof.finished && !inner) {
    (*n_hat)[id] = std::max(1.0, k);
    return;
  }

  // Exactly-known totals for uncorrelated full scans.
  const double scan_rows = FullScanRows(node);
  if (scan_rows >= 0) {
    (*n_hat)[id] = scan_rows;
    return;
  }

  if (options_.refine_cardinality) {
    const uint64_t min_rows = options_.refine_min_rows;
    // Cardinality-preserving operators emit exactly their input: their
    // best estimate IS the child's refined estimate. Scaling their own
    // K by driver progress is wrong for a buffering exchange (its K
    // deliberately lags, §4.4) and redundant for sorts.
    if (!inner &&
        (IsExchange(node.type) || node.type == OpType::kSort ||
         node.type == OpType::kComputeScalar ||
         node.type == OpType::kBitmapCreate)) {
      (*n_hat)[id] = std::max(k, (*n_hat)[node.child(0)->id]);
      return;
    }
    if (inner && options_.semi_blocking_adjust) {
      // §4.1 (nested loops) + §4.4(3): scale K_i by the inverse of the
      // fraction of outer rows the join has actually PROCESSED.
      // Executions of the join's direct inner child count processed
      // outer rows exactly, which adjusts for rows merely buffered on
      // the outer side; the outer child's refined total supplies the
      // denominator. Nodes that are not re-executed per outer row
      // (spool children) are handled correctly too: at completion the
      // fraction is 1 and the estimate equals K_i.
      const int nlj = analysis_.enclosing_nlj[id];
      const PlanNode& join = plan_->node(nlj);
      const double processed = Executions(snapshot, join.child(1)->id);
      double outer_total = (*n_hat)[join.child(0)->id];
      if (processed >= static_cast<double>(std::min<uint64_t>(min_rows, 8)) &&
          outer_total > 0) {
        const double fraction =
            std::clamp(processed / std::max(1.0, outer_total), 1e-9, 1.0);
        estimate = k / fraction;
        locally_refined = true;
      }
    } else if (!inner) {
      // Scale-up basis: pipeline driver progress, or the immediate
      // child's progress when separated by a semi-blocking operator
      // (§4.4(2), Figure 9).
      double a = 0.0;
      bool use_child = options_.semi_blocking_adjust &&
                       analysis_.separated_by_semi_blocking[id];
      if (use_child) {
        double ck = 0;
        double cn = 0;
        for (const auto& c : node.children) {
          if (analysis_.pipeline_of_node[c->id] !=
              analysis_.pipeline_of_node[id]) {
            continue;  // blocked child: not part of this flow
          }
          ck += K(snapshot, c->id);
          cn += std::max(1.0, (*n_hat)[c->id]);
        }
        a = cn > 0 ? ck / cn : 0.0;
      } else {
        a = alpha[analysis_.pipeline_of_node[id]];
      }
      a = std::clamp(a, 0.0, 1.0);

      // Guard conditions (§4.1): enough rows observed on all inputs,
      // and for selective operators both outcomes observed.
      bool guards = a > 1e-9 && k >= static_cast<double>(min_rows);
      double input_seen = 0;
      for (const auto& c : node.children) input_seen += K(snapshot, c->id);
      if (!node.children.empty()) {
        for (const auto& c : node.children) {
          if (K(snapshot, c->id) < static_cast<double>(min_rows)) {
            guards = false;
          }
        }
      }
      const bool selective =
          node.type == OpType::kFilter || IsJoin(node.type) ||
          (IsScan(node.type) && prof.has_pushed_predicate);
      if (selective && !node.children.empty() &&
          !(k > 0 && k < input_seen)) {
        guards = false;
      }
      if (guards) {
        double scaled = k / a;
        estimate = options_.interpolate_refinement
                       ? (1.0 - a) * node.est_rows + a * scaled
                       : scaled;
        locally_refined = true;
      }
    }
  }

  // §7(a) extension: before any local observation exists, inherit the
  // children's refinement by scaling the showplan estimate with the
  // ratio by which the children's estimates moved.
  if (options_.propagate_refinement && !inner &&
      k < static_cast<double>(options_.refine_min_rows) &&
      !node.children.empty() && !locally_refined) {
    double ratio = 1.0;
    int contributing = 0;
    for (const auto& c : node.children) {
      if (c->est_rows > 0 && (*n_hat)[c->id] > 0) {
        ratio *= (*n_hat)[c->id] / c->est_rows;
        contributing++;
      }
    }
    if (contributing > 0) {
      ratio = std::pow(ratio, 1.0 / contributing);
      estimate = node.est_rows * std::clamp(ratio, 0.02, 50.0);
    }
  }

  if (options_.bound_cardinality && bounds != nullptr) {
    double lb = bounds->lower[id];
    double ub = bounds->upper[id];
    if (std::isfinite(lb)) estimate = std::max(estimate, lb);
    if (std::isfinite(ub)) estimate = std::min(estimate, ub);
  }
  (*n_hat)[id] = std::max(estimate, 0.0);
}

double ProgressEstimator::OperatorProgress(const ProfileSnapshot& snapshot,
                                           int node_id,
                                           const std::vector<double>& n_hat)
    const {
  const PlanNode& node = plan_->node(node_id);
  const OperatorProfile& prof = snapshot.operators[node_id];
  if (!prof.opened) return 0.0;
  if (prof.finished && !analysis_.on_nlj_inner_side[node_id]) return 1.0;

  // §4.7 batch mode.
  if (node.type == OpType::kColumnstoreScan && options_.batch_mode_segments &&
      prof.segment_total_count > 0) {
    return std::clamp(static_cast<double>(prof.segment_read_count) /
                          static_cast<double>(prof.segment_total_count),
                      0.0, 1.0);
  }
  // §4.3 storage-engine predicates.
  if (IsScan(node.type) && prof.has_pushed_predicate &&
      options_.storage_predicate_io && prof.total_pages > 0 &&
      !analysis_.on_nlj_inner_side[node_id]) {
    return std::clamp(static_cast<double>(prof.logical_read_count) /
                          static_cast<double>(prof.total_pages),
                      0.0, 1.0);
  }
  const double k = K(snapshot, node_id);
  const double n = std::max(1.0, n_hat[node_id]);

  // §4.5 two-phase model for blocking operators (Figure 10): progress over
  // input + output tuples. The "input" of a hash join's blocking phase is
  // its build child; for sorts/aggregates/spools it is the only child.
  if (options_.two_phase_blocking && IsBlockingForProgress(node.type)) {
    const PlanNode* input_child = node.child(0);
    const double k_in = K(snapshot, input_child->id);
    const double n_in = std::max(1.0, n_hat[input_child->id]);
    double k_total = k_in + k;
    double n_total = n_in + n;
    if (node.type == OpType::kHashJoin) {
      // The probe stream is pipelined; include it in the output phase term
      // implicitly via the join's own K/N̂.
      k_total = k_in + k;
      n_total = n_in + n;
    }
    return std::clamp(k_total / std::max(1.0, n_total), 0.0, 1.0);
  }
  return std::clamp(k / n, 0.0, 1.0);
}

double ProgressEstimator::OwnCostMs(const PlanNode& node,
                                    const std::vector<double>& n_hat) const {
  // Per-node cost re-evaluated at the refined cardinalities with the same
  // constants the executor charges and the optimizer predicts. Within an
  // operator, CPU and I/O are assumed to overlap: only their maximum
  // contributes (§4.6). Blocking input phases are NOT part of this term —
  // they weigh the blocked child's pipeline (BoundaryCostMs).
  const double n_out = std::max(0.0, n_hat[node.id]);
  const double n_in =
      node.children.empty() ? 0.0 : std::max(0.0, n_hat[node.child(0)->id]);
  double cpu = 0;
  double io = 0;
  switch (node.type) {
    // Scans read the whole object regardless of how many rows survive
    // their pushed predicates: cost does not scale with output. The terms
    // are catalog constants, hoisted into the analysis when incremental.
    case OpType::kTableScan:
    case OpType::kClusteredIndexScan:
    case OpType::kIndexScan:
    case OpType::kColumnstoreScan: {
      if (options_.incremental && analysis_.has_catalog_statics) {
        const NodeStatics& s = analysis_.node_statics[node.id];
        io = s.scan_io_ms;
        cpu = s.scan_cpu_ms;
        break;
      }
      if (node.type == OpType::kColumnstoreScan) {
        const ColumnstoreIndex* csi = catalog_->GetColumnstore(node.table_name);
        const Table* t = catalog_->GetTable(node.table_name);
        if (csi != nullptr && t != nullptr) {
          io = static_cast<double>(csi->num_segments()) * cost::kIoSegmentMs;
          cpu = static_cast<double>(t->num_rows()) * cost::kCpuBatchRowMs;
        }
      } else {
        const Table* t = catalog_->GetTable(node.table_name);
        if (t != nullptr) {
          io = static_cast<double>(t->num_pages()) * cost::kIoSequentialPageMs;
          cpu = static_cast<double>(t->num_rows()) * cost::kCpuScanRowMs;
        }
      }
      break;
    }
    // Seeks and lookups scale with the rows they fetch.
    case OpType::kClusteredIndexSeek:
    case OpType::kIndexSeek:
    case OpType::kRidLookup:
      io = std::max(1.0, n_out / static_cast<double>(kRowsPerPage)) *
           cost::kIoRandomPageMs;
      cpu = n_out * cost::kCpuScanRowMs;
      break;
    case OpType::kConstantScan:
      cpu = n_out * cost::kCpuRowPassMs;
      break;
    case OpType::kFilter:
      cpu = n_in * cost::kCpuFilterRowMs;
      break;
    case OpType::kComputeScalar:
      cpu = n_in * cost::kCpuComputeRowMs *
            std::max<size_t>(1, node.projections.size());
      break;
    case OpType::kTop:
    case OpType::kSegment:
    case OpType::kConcatenation:
    case OpType::kBitmapCreate:
      cpu = n_out * cost::kCpuRowPassMs;
      break;
    case OpType::kSort:
    case OpType::kDistinctSort:
    case OpType::kTopNSort:
      cpu = n_out * cost::kCpuRowPassMs;
      break;
    case OpType::kHashAggregate:
      cpu = n_out * cost::kCpuAggOutputRowMs;
      break;
    case OpType::kStreamAggregate:
      cpu = n_in * cost::kCpuStreamAggRowMs;
      break;
    case OpType::kHashJoin: {
      // Probe + output run with the join's own pipeline; the build phase
      // is the boundary term.
      const double n_probe = std::max(0.0, n_hat[node.child(1)->id]);
      cpu = (n_probe + n_out) * cost::kCpuHashProbeRowMs;
      break;
    }
    case OpType::kMergeJoin: {
      const double n_inner = std::max(0.0, n_hat[node.child(1)->id]);
      cpu = (n_in + n_inner + n_out) * cost::kCpuMergeRowMs;
      break;
    }
    case OpType::kNestedLoopJoin:
      cpu = (n_in + n_out) * cost::kCpuNljRowMs;
      break;
    case OpType::kEagerSpool:
      cpu = n_out * cost::kCpuSpoolReadRowMs;
      break;
    case OpType::kLazySpool:
      cpu = n_out * cost::kCpuSpoolReadRowMs +
            n_in * cost::kCpuSpoolWriteRowMs;
      break;
    case OpType::kGatherStreams:
    case OpType::kRepartitionStreams:
    case OpType::kDistributeStreams:
      cpu = n_out *
            (cost::kCpuExchangeBufferRowMs + cost::kCpuExchangeRowMs);
      break;
    case OpType::kNumOpTypes:
      break;
  }
  return std::max(cpu, io);
}

double ProgressEstimator::BoundaryCostMs(
    const PlanNode& node, const std::vector<double>& n_hat) const {
  // A blocking operator's INPUT phase executes while its (blocked) child
  // pipeline runs (§4.5), so this share weighs the child pipeline.
  const double n_in =
      node.children.empty() ? 0.0 : std::max(0.0, n_hat[node.child(0)->id]);
  switch (node.type) {
    case OpType::kSort:
    case OpType::kDistinctSort:
    case OpType::kTopNSort:
      return n_in * (cost::kCpuSortInputRowMs +
                     std::log2(std::max(2.0, n_in)) * cost::kCpuSortRowMs);
    case OpType::kHashAggregate:
      return n_in * cost::kCpuAggInputRowMs;
    case OpType::kHashJoin:
      return n_in * cost::kCpuHashBuildRowMs;
    case OpType::kEagerSpool:
      return n_in * cost::kCpuSpoolWriteRowMs;
    default:
      return 0.0;
  }
}

void ProgressEstimator::PipelineWeightsInto(const std::vector<double>& n_hat,
                                            Workspace* ws) const {
  // Weight terms are hoisted per pipeline (analysis_.weight_contribs), so
  // each pipeline's weight is an independent sum — which is what makes the
  // frozen-weight cache sound: once every pipeline whose refined
  // cardinalities feed the sum has finished (and none sits under an
  // NL-inner side), every input to the sum is final and the cached value
  // is exact.
  for (const PipelineInfo& p : analysis_.pipelines) {
    bool can_freeze = options_.incremental && analysis_.weight_freezable[p.id];
    if (can_freeze) {
      for (int d : analysis_.weight_deps[p.id]) {
        can_freeze = can_freeze && ws->pipeline_finished[d] != 0;
      }
    }
    if (can_freeze && ws->weight_frozen[p.id] != 0) {
      ws->weight[p.id] = ws->frozen_weight[p.id];
      ws->stats.weight_cache_hits++;
      continue;
    }
    double w = 0;
    for (const PlanAnalysis::WeightContrib& c :
         analysis_.weight_contribs[p.id]) {
      const PlanNode& node = plan_->node(c.node);
      w += c.boundary ? BoundaryCostMs(node, n_hat) : OwnCostMs(node, n_hat);
    }
    w = std::max(w, 1e-6);
    ws->weight[p.id] = w;
    if (can_freeze) {
      ws->frozen_weight[p.id] = w;
      ws->weight_frozen[p.id] = 1;
    }
  }
}

void ProgressEstimator::EstimateInto(const ProfileSnapshot& snapshot,
                                     Workspace* workspace,
                                     ProgressReport* report) const {
  Workspace* ws = workspace;
  PrepareWorkspace(ws);
  ws->stats.calls++;
  const int n = plan_->size();
  const int num_pipelines = analysis_.pipeline_count();

  ComputeFreezeMasks(snapshot, ws);

  const CardinalityBounds* bounds_ptr = nullptr;
  if (options_.bound_cardinality) {
    BoundsEngineStats bstats;
    ComputeBoundsPipelineInto(options_.bounds_engine, *plan_, *catalog_,
                              snapshot,
                              options_.incremental ? &analysis_ : nullptr,
                              analysis_,
                              options_.incremental ? &ws->node_frozen : nullptr,
                              &ws->bounds, &ws->lp_bounds, &bstats);
    ws->stats.bound_derivations += bstats.derivations;
    bounds_ptr = &ws->bounds;
  }

  // Seed N̂ with showplan estimates, then iterate: alphas need driver N̂,
  // refinement needs alphas. Two rounds reach a fixed point for the plan
  // shapes that matter (the §4.4(1) inner drivers need round-1 refinement).
  std::copy(analysis_.est_seed.begin(), analysis_.est_seed.end(),
            ws->n_hat.begin());
  PipelineAlphasInto(snapshot, ws->n_hat, false, ws);
  RefinePass(snapshot, ws->alpha, bounds_ptr, &ws->n_hat);
  PipelineAlphasInto(snapshot, ws->n_hat, true, ws);
  RefinePass(snapshot, ws->alpha, bounds_ptr, &ws->n_hat);
  PipelineAlphasInto(snapshot, ws->n_hat, true, ws);

  const std::vector<double>& n_hat = ws->n_hat;
  report->refined_rows = n_hat;          // capacity-reusing copies
  report->pipeline_progress = ws->alpha;
  // LQS_ALLOC_OK("first-call sizing; capacity-reusing no-op thereafter")
  report->operator_progress.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    report->operator_progress[i] = OperatorProgress(snapshot, i, n_hat);
  }

  // ---- Query-level progress ----
  if (!options_.use_weights) {
    double sum_k = 0;
    double sum_n = 0;
    if (options_.use_driver_nodes) {
      for (const PipelineInfo& p : analysis_.pipelines) {
        for (int d : p.driver_nodes) {
          double k = 0;
          double nn = 1;
          DriverContribution(snapshot, d, n_hat, &k, &nn);
          double weight = std::max(1.0, n_hat[d]);
          if (nn > 0) {
            sum_k += weight * (k / nn);
            sum_n += weight;
          }
        }
        if (options_.semi_blocking_adjust) {
          for (int d : p.inner_driver_nodes) {
            double weight = std::max(1.0, n_hat[d]);
            sum_k += weight *
                     std::clamp(K(snapshot, d) / std::max(1.0, n_hat[d]), 0.0,
                                1.0);
            sum_n += weight;
          }
        }
      }
    } else {
      for (int i = 0; i < n; ++i) {
        sum_k += std::min(K(snapshot, i), n_hat[i]);
        sum_n += n_hat[i];
      }
    }
    report->query_progress =
        sum_n > 0 ? std::clamp(sum_k / sum_n, 0.0, 1.0) : 0.0;
    // LQS_ALLOC_OK("first-call sizing; capacity-reusing no-op thereafter")
    report->pipeline_weight.assign(static_cast<size_t>(num_pipelines), 1.0);
    return;
  }

  // §4.6: weight each speed-independent pipeline by max(est CPU, est I/O),
  // re-evaluated at the refined cardinalities (the paper: "optimizer cost
  // estimates of I/O and CPU cost per tuple and refined N_i counts"), and
  // aggregate pipeline progress. Optionally restrict to the longest
  // (critical) path.
  PipelineWeightsInto(n_hat, ws);
  const std::vector<double>& weight = ws->weight;

  // LQS_ALLOC_OK("sized by PrepareWorkspace; assign reuses capacity")
  ws->on_path.assign(static_cast<size_t>(num_pipelines), 1);
  if (options_.critical_path_only) {
    // Longest root-to-leaf path in the pipeline tree by total weight.
    std::vector<double>& best = ws->cp_best;
    std::vector<int>& best_child = ws->cp_best_child;
    // Pipelines are created parent-before-child; iterate in reverse.
    for (int p = num_pipelines - 1; p >= 0; --p) {
      best[p] = weight[p];
      best_child[p] = -1;
      double best_sub = 0;
      for (int c : analysis_.pipelines[p].child_pipelines) {
        if (best[c] > best_sub) {
          best_sub = best[c];
          best_child[p] = c;
        }
      }
      best[p] += best_sub;
    }
    // LQS_ALLOC_OK("sized by PrepareWorkspace; assign reuses capacity")
    ws->on_path.assign(static_cast<size_t>(num_pipelines), 0);
    for (int p = 0; p >= 0; p = best_child[p]) ws->on_path[p] = 1;
  }

  double sum_wp = 0;
  double sum_w = 0;
  for (int p = 0; p < num_pipelines; ++p) {
    if (!ws->on_path[p]) continue;
    sum_wp += weight[p] * ws->alpha[p];
    sum_w += weight[p];
  }
  report->query_progress =
      sum_w > 0 ? std::clamp(sum_wp / sum_w, 0.0, 1.0) : 0.0;
  report->pipeline_weight = weight;
}

}  // namespace lqs
