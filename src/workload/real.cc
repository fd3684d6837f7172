#include <algorithm>
#include <cmath>

#include "common/stringf.h"
#include "workload/datagen.h"
#include "workload/plan_builder.h"
#include "workload/workload.h"

namespace lqs {

namespace {

using pb::NodePtr;

constexpr int kNumDims = 12;

// Schema of every dimension: [key, attr1 (0..19), attr2 (0..199), val]
constexpr int kDimArity = 4;
// Schema of every fact: [key, fk0..fk11, m1 (0..999), m2, m3] => arity 16.
constexpr int kFactArity = 1 + kNumDims + 3;

struct RealSpec {
  int num_queries;
  int min_joins;  ///< tables joined per query, including the fact
  int max_joins;
  bool always_group_by;
  double fact_scale;
};

RealSpec SpecFor(int which, int num_queries_override) {
  // Scaled-down stand-ins for the paper's REAL-1 (477 queries, 5-8-way
  // joins + subqueries), REAL-2 (632 queries, ~12-way joins) and REAL-3
  // (40 join+group-by queries on the largest dataset).
  RealSpec spec{};
  switch (which) {
    case 1:
      spec = {60, 5, 8, false, 1.0};
      break;
    case 2:
      spec = {70, 10, 12, false, 1.2};
      break;
    default:
      spec = {40, 3, 5, true, 2.0};
      break;
  }
  if (num_queries_override > 0) spec.num_queries = num_queries_override;
  return spec;
}

Status BuildRealData(Catalog* catalog, const RealWorkloadOptions& opt,
                     const RealSpec& spec) {
  Rng meta_rng(opt.seed * 977 + opt.which);
  auto I = [](int64_t v) { return Value(v); };
  auto D = [](double v) { return Value(v); };

  std::vector<uint64_t> dim_sizes(kNumDims);
  for (int d = 0; d < kNumDims; ++d) {
    dim_sizes[d] = static_cast<uint64_t>(
        std::max<int64_t>(20, meta_rng.NextInRange(50, 4000)));
    Schema schema({{"key", DataType::kInt64},
                   {"attr1", DataType::kInt64},
                   {"attr2", DataType::kInt64},
                   {"val", DataType::kDouble}});
    LQS_RETURN_IF_ERROR(catalog->AddTable(BuildTable(
        StringF("dim%d", d), std::move(schema), dim_sizes[d],
        opt.seed + 100 + d, [&](uint64_t i, Rng& rng) {
          return Row{I(static_cast<int64_t>(i)), I(rng.NextInRange(0, 19)),
                     I(rng.NextInRange(0, 199)), D(rng.NextDouble() * 100)};
        })));
    LQS_RETURN_IF_ERROR(
        catalog->GetMutableTable(StringF("dim%d", d))->ClusterBy(0));
  }

  const uint64_t fact_sizes[3] = {
      static_cast<uint64_t>(30000 * spec.fact_scale * opt.scale),
      static_cast<uint64_t>(50000 * spec.fact_scale * opt.scale),
      static_cast<uint64_t>(20000 * spec.fact_scale * opt.scale)};
  for (int f = 0; f < 3; ++f) {
    Schema schema;
    schema.AddColumn({"key", DataType::kInt64});
    for (int d = 0; d < kNumDims; ++d) {
      schema.AddColumn({StringF("fk%d", d), DataType::kInt64});
    }
    schema.AddColumn({"m1", DataType::kInt64});
    schema.AddColumn({"m2", DataType::kDouble});
    schema.AddColumn({"m3", DataType::kDouble});
    std::vector<ZipfDistribution> fk_dists;
    fk_dists.reserve(kNumDims);
    for (int d = 0; d < kNumDims; ++d) {
      // Varying skew per foreign key: a mix of uniform and heavily skewed
      // reference patterns, as in real decision-support schemas.
      double z = (d % 3 == 0) ? 1.0 : (d % 3 == 1 ? 0.5 : 0.0);
      fk_dists.emplace_back(dim_sizes[d], z);
    }
    LQS_RETURN_IF_ERROR(catalog->AddTable(BuildTable(
        StringF("fact%d", f), std::move(schema), fact_sizes[f],
        opt.seed + 200 + f, [&](uint64_t i, Rng& rng) {
          Row row;
          row.reserve(kFactArity);
          row.push_back(I(static_cast<int64_t>(i)));
          for (int d = 0; d < kNumDims; ++d) {
            row.push_back(
                I(static_cast<int64_t>(fk_dists[d].Sample(rng) - 1)));
          }
          row.push_back(I(rng.NextInRange(0, 999)));
          row.push_back(D(rng.NextDouble() * 1000));
          row.push_back(D(rng.NextDouble()));
          return row;
        })));
    Table* fact = catalog->GetMutableTable(StringF("fact%d", f));
    LQS_RETURN_IF_ERROR(fact->ClusterBy(0));
    LQS_RETURN_IF_ERROR(fact->BuildIndex("ix_fk0", 1));
    LQS_RETURN_IF_ERROR(fact->BuildIndex("ix_fk1", 2));
  }

  StatisticsOptions stats;
  stats.sample_rate = kStatsSampleRate;
  stats.seed = opt.seed + 99;
  return catalog->BuildAllStatistics(stats);
}

/// Tracks where interesting columns ended up as joins reshape the row.
struct ColumnTracker {
  std::vector<int> positions;
  int arity = 0;

  int Track(int pos) {
    positions.push_back(pos);
    return static_cast<int>(positions.size()) - 1;
  }
  /// A build-side (left) join of `added` columns shifts everything right.
  void ShiftAll(int added) {
    for (int& p : positions) p += added;
    arity += added;
  }
  void AppendRight(int added) { arity += added; }
};

NodePtr BuildRealQuery(const Catalog& catalog, const RealSpec& spec,
                       Rng& rng, std::string* name_out) {
  using namespace pb;  // NOLINT: local plan-building DSL
  const int fact_id = static_cast<int>(rng.NextBelow(3));
  const std::string fact = StringF("fact%d", fact_id);

  // Optional pushed-down fact predicate.
  std::unique_ptr<Expr> pushed;
  if (rng.NextBool(0.7)) {
    int64_t lo = rng.NextInRange(0, 800);
    int64_t width = rng.NextInRange(50, 600);
    pushed = ColBetween(1 + kNumDims, lo, lo + width);  // range on m1
  }
  NodePtr root = CiScan(fact, std::move(pushed));
  ColumnTracker cols;
  cols.arity = kFactArity;
  int fact_offset = 0;  // how far fact columns have shifted right so far
  // Track the measure and a couple of fk columns for grouping/aggregation.
  const int m2_slot = cols.Track(1 + kNumDims + 1);
  std::vector<int> group_slots;

  const int joins =
      static_cast<int>(rng.NextInRange(spec.min_joins, spec.max_joins)) - 1;
  std::vector<int> dims(kNumDims);
  for (int i = 0; i < kNumDims; ++i) dims[i] = i;
  // Seeded shuffle of the dimension order.
  for (int i = kNumDims - 1; i > 0; --i) {
    std::swap(dims[i], dims[static_cast<int>(rng.NextBelow(i + 1))]);
  }

  for (int j = 0; j < joins && j < kNumDims; ++j) {
    const int d = dims[j];
    const std::string dim = StringF("dim%d", d);
    const int fk_pos = 1 + d;  // original position in the fact row

    // The fk column's current position accounts for every build-side join
    // so far (each shifted the fact columns right by the dim arity).
    const int fk_now = fk_pos + fact_offset;

    std::unique_ptr<Expr> dim_filter;
    if (rng.NextBool(0.5)) {
      dim_filter = ColCmp(1, CompareOp::kLe, rng.NextInRange(2, 18));
    }

    const double strategy = rng.NextDouble();
    if (strategy < 0.5) {
      // Hash join with the dimension as build side (left): shifts existing
      // columns right by the dim arity.
      NodePtr d_scan = CiScan(dim);
      if (dim_filter != nullptr) {
        d_scan = Filter(std::move(d_scan), std::move(dim_filter));
      }
      root = HashJoin(JoinKind::kInner, std::move(d_scan), std::move(root),
                      {0}, {fk_now});
      cols.ShiftAll(kDimArity);
      fact_offset += kDimArity;
      if (rng.NextBool(0.35)) {
        group_slots.push_back(cols.Track(1));  // dim attr1 now at column 1
      }
    } else if (strategy < 0.8) {
      // Nested loops with a correlated clustered seek into the dimension;
      // sometimes buffered (semi-blocking).
      bool buffered = rng.NextBool(0.4);
      NodePtr seek = CiSeek(dim, OuterCol(fk_now), OuterCol(fk_now),
                            std::move(dim_filter));
      root = Nlj(JoinKind::kInner, std::move(root), std::move(seek), nullptr,
                 buffered);
      if (rng.NextBool(0.35)) {
        group_slots.push_back(cols.Track(cols.arity + 1));
      }
      cols.AppendRight(kDimArity);
    } else {
      // Semi join (models the nested-subquery pattern of REAL-1).
      NodePtr d_scan = CiScan(dim);
      if (dim_filter != nullptr) {
        d_scan = Filter(std::move(d_scan), std::move(dim_filter));
      }
      root = HashJoin(JoinKind::kLeftSemi, std::move(root), std::move(d_scan),
                      {fk_now}, {0});
      // Semi join preserves the left schema: no arity change.
    }
  }

  // Occasional exchange on top of the join tree.
  if (rng.NextBool(0.3)) {
    root = Gather(std::move(root));
  }

  const bool group = spec.always_group_by || rng.NextBool(0.6);
  if (group) {
    std::vector<int> group_cols;
    for (int slot : group_slots) group_cols.push_back(cols.positions[slot]);
    if (group_cols.empty()) {
      group_cols.push_back(cols.positions[m2_slot] - 1);  // m1 column
    }
    root = HashAgg(std::move(root), group_cols,
                   {Sum(cols.positions[m2_slot]), Count()});
    if (rng.NextBool(0.7)) {
      root = Sort(std::move(root), {0});
    }
  } else if (rng.NextBool(0.5)) {
    root = TopNSort(std::move(root), {cols.positions[m2_slot]},
                    rng.NextInRange(10, 200));
  }

  (void)catalog;
  *name_out = StringF("%s_j%d", fact.c_str(), joins + 1);
  return root;
}

}  // namespace

StatusOr<Workload> MakeRealWorkload(const RealWorkloadOptions& options) {
  const RealSpec spec = SpecFor(options.which, options.num_queries);
  Workload w;
  w.name = StringF("REAL-%d", options.which);
  w.catalog = std::make_unique<Catalog>();
  LQS_RETURN_IF_ERROR(BuildRealData(w.catalog.get(), options, spec));

  Rng rng(options.seed * 31337 + static_cast<uint64_t>(options.which));
  for (int i = 0; i < spec.num_queries; ++i) {
    std::string name;
    NodePtr root = BuildRealQuery(*w.catalog, spec, rng, &name);
    auto plan_or = FinalizePlan(std::move(root), *w.catalog);
    if (!plan_or.ok()) {
      return Status::Internal(StringF("REAL-%d query %d: ", options.which, i) +
                              plan_or.status().ToString());
    }
    w.queries.push_back(
        WorkloadQuery{StringF("r%d_%02d_%s", options.which, i, name.c_str()),
                      std::move(plan_or).value()});
  }
  return w;
}

}  // namespace lqs
