#ifndef LQS_WORKLOAD_WORKLOAD_H_
#define LQS_WORKLOAD_WORKLOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "exec/plan.h"
#include "optimizer/annotate.h"
#include "storage/catalog.h"

namespace lqs {

/// One query of a workload: a finalized, optimizer-annotated physical plan.
struct WorkloadQuery {
  std::string name;
  Plan plan;
};

/// A workload: a populated catalog plus its query plans. Mirrors the §5
/// experimental setup (TPC-H skewed, TPC-DS, REAL-1/2/3), scaled down per
/// DESIGN.md §2.
struct Workload {
  std::string name;
  std::unique_ptr<Catalog> catalog;
  std::vector<WorkloadQuery> queries;
};

/// Physical design for the TPC-H-like workload (§5.4, Figure 18/19).
enum class PhysicalDesign {
  kRowstore,     ///< clustered + nonclustered B-tree indexes (DTA-like)
  kColumnstore,  ///< nonclustered columnstore index on every table
};

struct TpchOptions {
  /// Row-count scale: 1.0 => lineitem ~60k rows.
  double scale = 1.0;
  PhysicalDesign design = PhysicalDesign::kRowstore;
  uint64_t seed = 1;
};

StatusOr<Workload> MakeTpchWorkload(const TpchOptions& options);

struct TpcdsOptions {
  double scale = 1.0;  ///< 1.0 => store_sales ~120k rows
  uint64_t seed = 2;
};

StatusOr<Workload> MakeTpcdsWorkload(const TpcdsOptions& options);

/// Synthetic stand-ins for the proprietary REAL-1/2/3 workloads, matching
/// their published shape statistics (join counts, query mix); see DESIGN.md.
struct RealWorkloadOptions {
  int which = 1;        ///< 1, 2 or 3
  int num_queries = 0;  ///< 0 => default per workload (scaled-down counts)
  double scale = 1.0;
  uint64_t seed = 3;
};

StatusOr<Workload> MakeRealWorkload(const RealWorkloadOptions& options);

/// Annotates every query plan of `workload` with optimizer estimates.
Status AnnotateWorkload(Workload* workload, const OptimizerOptions& options);

}  // namespace lqs

#endif  // LQS_WORKLOAD_WORKLOAD_H_
