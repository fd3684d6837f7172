#ifndef LQS_LQS_BOUNDS_H_
#define LQS_LQS_BOUNDS_H_

#include <cstdint>
#include <vector>

#include "common/deterministic.h"
#include "common/noalloc.h"
#include "dmv/query_profile.h"
#include "exec/plan.h"
#include "lqs/pipeline.h"
#include "storage/catalog.h"

namespace lqs {

/// Worst-case lower/upper bounds on each operator's total GetNext count,
/// derived online from algebraic operator properties (§4.2, Appendix A).
struct CardinalityBounds {
  std::vector<double> lower;  ///< per node id
  std::vector<double> upper;  ///< per node id; may be +infinity (spools)

  /// Clamps a cardinality estimate for `node_id` into [lower, upper].
  /// Deterministic under malformed inputs: a NaN estimate clamps to the
  /// lower bound (the observed count is the only trustworthy value), and an
  /// inverted range (lower > upper — possible only if an engine produced an
  /// unsound interval) collapses to the lower bound rather than hitting
  /// std::clamp's undefined behaviour.
  double Clamp(int node_id, double estimate) const;
};

/// Which bound derivation(s) the bounding pipeline runs per snapshot.
/// Selected by EstimatorOptions::bounds_engine, so every engine choice is a
/// distinct estimator in the monitor's cache.
enum class BoundsEngineKind : uint8_t {
  /// The paper's Appendix A algebraic derivation (the default; output is
  /// bit-identical to the pre-pipeline monolithic path).
  kAppendixA = 0,
  /// LpBound (arXiv:2502.05912) pessimistic upper bounds from exact
  /// degree-sequence ℓ∞/ℓ2 norms; lower bounds degrade to the observed K.
  kLpBound = 1,
  /// Both engines, intersected per node: max of lowers, min of uppers,
  /// with an inverted intersection resolving to the Appendix-A interval.
  kIntersect = 2,
};

/// Stable display name: "appendix_a", "lp_bound", "intersect".
const char* BoundsEngineName(BoundsEngineKind kind);

/// Per-call observability counters of the bounds-engine pipeline.
struct BoundsEngineStats {
  /// Appendix-A nodes whose coefficients were derived (frozen nodes skip).
  uint64_t derivations = 0;
  /// Nodes where the LpBound upper bound strictly tightened Appendix A's
  /// at intersection.
  uint64_t lp_tightenings = 0;
  /// Nodes whose intersection inverted (lower > upper) and fell back to
  /// the Appendix-A interval.
  uint64_t intersection_inversions = 0;
};

/// Computes the Appendix A bounds for every node given the current DMV
/// snapshot. Table sizes come from the catalog (the client can always read
/// them); K values from the snapshot; children's bounds compose bottom-up.
/// Nodes on the inner side of a Nested Loops join have their per-execution
/// bounds scaled by the outer side's upper bound, per the table's "when on
/// inner side of join" entries. Operators that have reached end-of-stream
/// have exact bounds (lower = upper = K_i).
CardinalityBounds ComputeBounds(const Plan& plan, const Catalog& catalog,
                                const ProfileSnapshot& snapshot);

/// Allocation-free form: writes into `out`, reusing its vectors' capacity
/// (zero heap traffic once they have been sized by a first call).
///
/// `analysis` (optional) supplies hoisted catalog statics so table sizes
/// are read from a flat array instead of the catalog's string-keyed map;
/// pass one with has_catalog_statics for the hot path, or null to look the
/// catalog up live. Results are identical either way.
///
/// `frozen` (optional, per node id) marks operators whose bound derivation
/// may be skipped: an operator that is `finished` in THIS snapshot and is
/// not under any NL-inner edge has exact bounds lower = upper = K_i, so
/// the coefficient derivation (the Appendix A switch) is bypassed and the
/// frozen value written directly. The caller must compute the mask from
/// the snapshot being estimated — never from an earlier one — which keeps
/// out-of-order replay exact. `derivations` (optional) counts the nodes
/// whose coefficients WERE derived, so tests can assert that finished
/// operators stop paying for re-derivation.
/// LQS_NOALLOC: the Appendix A derivation sits on the per-snapshot hot
/// path of every bounding estimator configuration.
LQS_NOALLOC void ComputeBoundsInto(const Plan& plan, const Catalog& catalog,
                                   const ProfileSnapshot& snapshot,
                                   const PlanAnalysis* analysis,
                                   const std::vector<uint8_t>* frozen,
                                   CardinalityBounds* out,
                                   uint64_t* derivations);

/// Engine #2: LpBound pessimistic upper bounds (arXiv:2502.05912). For
/// every node, lower = K_i (the observed count) and upper is derived
/// bottom-up from the exact degree-sequence norms hoisted into
/// `analysis.node_statics` (FillDegreeNormStatics): an equijoin's output
/// cannot exceed min over the valid caps of
///   UB_outer * UB_inner                      (cross product),
///   UB_inner * ℓ∞(outer key degrees),        (every inner row matches at
///   UB_outer * ℓ∞(inner key degrees),         most ℓ∞ rows, and v.v.)
///   ℓ2(outer) * ℓ2(inner)                    (Cauchy–Schwarz).
/// Subtrees that may re-execute (rebind multiplier > 1 under a Nested
/// Loops inner edge) are declined — upper = +infinity — because the norms
/// cap a single execution only; Appendix A covers those nodes through the
/// intersection. `analysis` must be the catalog-aware AnalyzePlan result
/// for this plan. `frozen` follows the ComputeBoundsInto contract.
/// LQS_NOALLOC + LQS_DETERMINISTIC: per-snapshot hot path, flat-array
/// reads only (both statically checked by tools/lqs_verify).
LQS_NOALLOC LQS_DETERMINISTIC void ComputeLpBoundsInto(
    const Plan& plan, const ProfileSnapshot& snapshot,
    const PlanAnalysis& analysis, const std::vector<uint8_t>* frozen,
    CardinalityBounds* out);

/// The bounds-engine pipeline: runs the engine(s) selected by `kind` and
/// writes the final per-node intervals into `out`.
///  - kAppendixA: exactly ComputeBoundsInto (bit-identical output).
///  - kLpBound:   exactly ComputeLpBoundsInto.
///  - kIntersect: both; per node lower = max of lowers, upper = min of
///    uppers. An inverted intersection (lower > upper, an unsound-engine
///    symptom) resolves deterministically to the Appendix-A interval and
///    is counted in stats->intersection_inversions.
/// `hoisted` is the optional Appendix-A statics argument (the
/// ComputeBoundsInto `analysis` parameter, null to read the catalog live);
/// `analysis` is the always-present catalog-aware analysis the LpBound
/// engine reads. `scratch` holds the second engine's intervals between the
/// two passes — per-workspace, so steady state stays allocation-free.
/// `stats` (optional) accumulates the pipeline counters.
LQS_NOALLOC LQS_DETERMINISTIC void ComputeBoundsPipelineInto(
    BoundsEngineKind kind, const Plan& plan, const Catalog& catalog,
    const ProfileSnapshot& snapshot, const PlanAnalysis* hoisted,
    const PlanAnalysis& analysis, const std::vector<uint8_t>* frozen,
    CardinalityBounds* out, CardinalityBounds* scratch,
    BoundsEngineStats* stats);

}  // namespace lqs

#endif  // LQS_LQS_BOUNDS_H_
