#ifndef LQS_LQS_ESTIMATOR_H_
#define LQS_LQS_ESTIMATOR_H_

#include <compare>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/deterministic.h"
#include "common/noalloc.h"
#include "dmv/query_profile.h"
#include "exec/plan.h"
#include "lqs/bounds.h"
#include "lqs/pipeline.h"
#include "storage/catalog.h"

namespace lqs {

/// Feature switches of the progress estimator. Each flag corresponds to one
/// of the paper's techniques; the presets below reproduce the configurations
/// compared in §5. Everything runs client-side off DMV snapshots plus the
/// showplan annotations, exactly like the SSMS module (§2.2).
struct EstimatorOptions {
  /// Pipeline/query progress from driver nodes (DNE [7]) instead of the
  /// Total-GetNext model over all nodes (TGN, Equation 2 with w_i = 1).
  bool use_driver_nodes = true;
  /// §4.1 online cardinality refinement (scale K_i by inverse driver
  /// progress).
  bool refine_cardinality = true;
  /// §4.2 / Appendix A worst-case bounding of the N_i.
  bool bound_cardinality = true;
  /// §4.4 semi-blocking adjustments: NL inner sides become drivers,
  /// refinement scales by the immediate child across semi-blocking
  /// operators, inner-side scale-up uses actual executions.
  bool semi_blocking_adjust = true;
  /// §4.5 two-phase (input+output) progress model for blocking operators.
  bool two_phase_blocking = true;
  /// §4.6 pipeline weights from max(est CPU, est I/O).
  bool use_weights = true;
  /// §4.6 restrict the weighted aggregate to the longest (critical) path of
  /// pipelines. Off by default: our substrate executes pipelines serially,
  /// so total time is the sum over all pipelines (see DESIGN.md §5).
  bool critical_path_only = false;
  /// §4.3 I/O-fraction progress for scans with storage-engine predicates.
  bool storage_predicate_io = true;
  /// §4.7 segment-fraction progress for batch-mode columnstore scans.
  bool batch_mode_segments = true;
  /// Prior-work alternative [22]: linearly interpolate between the
  /// optimizer estimate and the scaled-up estimate instead of replacing.
  bool interpolate_refinement = false;
  /// §7(a) future-work extension: propagate refined cardinalities across
  /// pipeline boundaries — a not-yet-started operator's estimate is scaled
  /// by how far its children's refined estimates moved from the showplan
  /// estimates. The paper's shipping system propagates only worst-case
  /// bounds; off by default to match it.
  bool propagate_refinement = false;
  /// Engine mode, not an estimation technique: when false, disables the
  /// workspace engine's short-circuits (finished-operator bound freezing,
  /// finished-pipeline alpha/weight freezing) and the hoisted catalog
  /// statics, forcing the full stateless recomputation the paper's §2.2
  /// client performs on every poll. Reports are bit-identical either way
  /// (enforced by tests/estimator_workspace_test.cc); the flag keeps that
  /// stateless reference, which the test compares under every preset.
  bool incremental = true;
  /// Which bounding engine(s) derive the cardinality corridor the online
  /// clamp uses when `bound_cardinality` is set (src/lqs/bounds.h). The
  /// default reproduces the paper's Appendix A derivation bit-exactly;
  /// kIntersect additionally runs the LpBound ℓp-norm engine and
  /// intersects the intervals per node.
  BoundsEngineKind bounds_engine = BoundsEngineKind::kAppendixA;
  /// Guard (§4.1): minimum observed rows before refinement engages.
  uint64_t refine_min_rows = 30;

  /// Equation 2 with w_i = 1 over all nodes, optimizer estimates as-is.
  static EstimatorOptions TotalGetNext();
  /// TGN plus Appendix A bounding only.
  static EstimatorOptions BoundingOnly();
  /// Driver-node estimator with refinement + bounding, no weights (the
  /// §5.1 "Bounding + Refinement" configuration).
  static EstimatorOptions DriverNodeRefined();
  /// Everything on — the shipping LQS configuration.
  static EstimatorOptions Lqs();

  /// Shared preset registry over the four §5 configurations above — the
  /// one list tests draw from. Indexes are stable: 0="tgn", 1="bounding",
  /// 2="refined", 3="lqs".
  static constexpr int kPresetCount = 4;
  /// Canonical short name of preset `index`; aborts on an out-of-range
  /// index (a registry bug, not an input condition).
  static const char* PresetName(int index);
  /// The preset options for `index`; aborts on an out-of-range index.
  static EstimatorOptions PresetByIndex(int index);
  /// Parses a canonical preset name; returns false and leaves `*out`
  /// untouched on an unknown name. A registry name with an `_lp` suffix
  /// (e.g. "lqs_lp") resolves to the base preset with
  /// `bounds_engine = kIntersect` — the LpBound-tightened clamp variants.
  static bool PresetFromName(std::string_view name, EstimatorOptions* out);

  /// Field-by-field order: two option sets compare equal iff they configure
  /// identical behaviour. The monitor's estimator cache keys on it.
  auto operator<=>(const EstimatorOptions&) const = default;
};

/// Progress output for one DMV snapshot.
struct ProgressReport {
  double query_progress = 0;  ///< [0, 1]
  /// Per node id, [0, 1]; exactly what LQS renders under each operator.
  std::vector<double> operator_progress;
  /// Refined total-cardinality estimates N̂_i per node id.
  std::vector<double> refined_rows;
  /// Per-pipeline driver progress (diagnostics / examples).
  std::vector<double> pipeline_progress;
  /// Per-pipeline weight used in the query-level aggregate.
  std::vector<double> pipeline_weight;
};

/// Client-side progress estimator: constructed once per (plan, options),
/// then fed DMV snapshots as they are polled.
class ProgressEstimator {
 public:
  /// Preallocated scratch + frozen-value cache for EstimateInto. All flat
  /// buffers are sized on first use and reused afterwards, so steady-state
  /// estimation performs zero heap allocations (enforced by
  /// tests/estimator_alloc_test.cc).
  ///
  /// Lifetime and threading contract:
  ///  - one Workspace per estimator per thread. A workspace binds to the
  ///    estimator on its first EstimateInto call and must only ever be
  ///    passed back to that estimator; reuse against a different estimator
  ///    (and hence a possibly different plan shape) aborts with a
  ///    diagnostic rather than silently mixing plans.
  ///  - a Workspace is mutable per-call state. Concurrent EstimateInto
  ///    calls on one shared const estimator are safe exactly when each
  ///    caller passes its own workspace (this is how MonitorService uses
  ///    one cached estimator across parallel sessions).
  ///  - every frozen entry is validated against the CURRENT snapshot's
  ///    `finished` flags before reuse, so snapshots may still be replayed
  ///    in any order: a reused workspace reports exactly what a fresh one
  ///    would.
  struct Workspace {
    /// Observability counters (cumulative since construction).
    struct Stats {
      uint64_t calls = 0;
      /// Nodes whose Appendix A bound coefficients were derived; finished
      /// operators stop contributing (their bounds are frozen at K_i).
      uint64_t bound_derivations = 0;
      /// Pipelines whose alpha was served by the finished-freeze (driver
      /// loop skipped).
      uint64_t alpha_freezes = 0;
      /// Pipelines whose §4.6 weight was served from the frozen cache.
      uint64_t weight_cache_hits = 0;
    };
    Stats stats;

   private:
    friend class ProgressEstimator;
    const ProgressEstimator* owner = nullptr;
    std::vector<double> n_hat;
    std::vector<double> alpha;
    std::vector<double> weight;
    CardinalityBounds bounds;
    /// Second-engine scratch of the bounds pipeline (kIntersect holds the
    /// LpBound intervals here between the two passes).
    CardinalityBounds lp_bounds;
    /// Per-call masks, recomputed from each snapshot (out-of-order safe).
    std::vector<uint8_t> node_frozen;        ///< finished && !under_nlj_inner
    std::vector<uint8_t> pipeline_finished;  ///< all member ops finished
    /// Cross-call §4.6 weight cache; entries are only served when the
    /// current snapshot shows every contributing pipeline finished.
    std::vector<uint8_t> weight_frozen;
    std::vector<double> frozen_weight;
    /// Critical-path scratch (critical_path_only configurations).
    std::vector<char> on_path;
    std::vector<double> cp_best;
    std::vector<int> cp_best_child;
  };

  ProgressEstimator(const Plan* plan, const Catalog* catalog,
                    EstimatorOptions options);

  /// Computes query and operator progress from one DMV snapshot into
  /// `*report` (vectors are re-sized in place, reusing capacity), using
  /// `*workspace` for all intermediate state. Output is stateless (all
  /// estimation state is in the snapshot), so snapshots may be replayed in
  /// any order; see the Workspace contract above.
  /// LQS_NOALLOC: steady-state calls must stay heap-free — statically
  /// checked by tools/lqs_verify (noalloc), dynamically by
  /// tests/estimator_alloc_test.cc. LQS_DETERMINISTIC: the same snapshot
  /// yields a bit-identical report regardless of replay order, wall-clock
  /// time, or thread — statically checked by the `determinism` checker,
  /// dynamically by the replay-order golden tests.
  LQS_NOALLOC LQS_DETERMINISTIC void EstimateInto(
      const ProfileSnapshot& snapshot, Workspace* workspace,
      ProgressReport* report) const;

  const PlanAnalysis& analysis() const { return analysis_; }
  const EstimatorOptions& options() const { return options_; }
  const Plan& plan() const { return *plan_; }
  const Catalog& catalog() const { return *catalog_; }

 private:
  /// Sizes the workspace buffers on first use and pins the workspace to
  /// this estimator; aborts on an owner/shape mismatch.
  LQS_ALLOC_OK(
      "first-call sizing path: allocates exactly once per workspace "
      "binding, a no-op on every steady-state call (owner check at entry)")
  void PrepareWorkspace(Workspace* ws) const;

  /// Fills the per-call freeze masks from `snapshot` (no-op masks when
  /// options_.incremental is off).
  void ComputeFreezeMasks(const ProfileSnapshot& snapshot, Workspace* ws)
      const;

  /// §4.3/§4.7-aware progress of a single driver node: fills (k, n) such
  /// that k/n is the driver's progress contribution.
  void DriverContribution(const ProfileSnapshot& snapshot, int node_id,
                          const std::vector<double>& n_hat, double* k,
                          double* n) const;

  /// One bottom-up refinement pass (§4.1/§4.4) given per-pipeline alphas.
  void RefinePass(const ProfileSnapshot& snapshot,
                  const std::vector<double>& alpha,
                  const CardinalityBounds* bounds,
                  std::vector<double>* n_hat) const;

  /// Per-node body of RefinePass (children's n_hat must already be final).
  void RefineNode(const ProfileSnapshot& snapshot, const PlanNode& node,
                  const std::vector<double>& alpha,
                  const CardinalityBounds* bounds,
                  std::vector<double>* n_hat) const;

  /// Driver-based progress of each pipeline into ws->alpha;
  /// `include_inner` adds the §4.4(1) NL-inner drivers (requires refined
  /// estimates for them). Fully-finished freezable pipelines short-circuit
  /// to alpha = 1 (bit-identical: the root-finished override below forces
  /// the same value).
  void PipelineAlphasInto(const ProfileSnapshot& snapshot,
                          const std::vector<double>& n_hat,
                          bool include_inner, Workspace* ws) const;

  double OperatorProgress(const ProfileSnapshot& snapshot, int node_id,
                          const std::vector<double>& n_hat) const;

  /// §4.6 pipeline weights into ws->weight: per-operator max(CPU, I/O)
  /// re-evaluated at the refined cardinalities, with blocking-input work
  /// attributed to the pipeline it temporally executes with. Weights of
  /// pipelines whose contributing cardinalities are all frozen are served
  /// from the workspace cache.
  /// LQS_NOALLOC: the §4.6 weight path runs once per estimate inside
  /// EstimateInto and must stay heap-free on its own as well.
  LQS_NOALLOC void PipelineWeightsInto(const std::vector<double>& n_hat,
                                       Workspace* ws) const;

  /// §4.6 cost terms of one operator at the refined cardinalities: the
  /// operator's own-pipeline max(CPU, I/O) share, and the blocking input
  /// phase attributed to its blocked child's pipeline.
  double OwnCostMs(const PlanNode& node,
                   const std::vector<double>& n_hat) const;
  double BoundaryCostMs(const PlanNode& node,
                        const std::vector<double>& n_hat) const;

  /// Catalog row count for an uncorrelated full scan (> 0 required by the
  /// callers), or -1 when unknown; hoisted lookup when incremental.
  double FullScanRows(const PlanNode& node) const;

  const Plan* const plan_;
  const Catalog* const catalog_;
  const EstimatorOptions options_;
  const PlanAnalysis analysis_;
};

}  // namespace lqs

#endif  // LQS_LQS_ESTIMATOR_H_
