#include <cmath>

#include "common/stringf.h"
#include "workload/datagen.h"
#include "workload/plan_builder.h"
#include "workload/workload.h"

namespace lqs {

namespace {

using pb::NodePtr;

// Column cheat sheet:
//  date_dim[4]:      d_datekey, d_month, d_year, d_moy
//  item[5]:          i_itemkey, i_brand, i_category, i_manager, i_price
//  store[3]:         s_storekey, s_state, s_county
//  customer[3]:      c_custkey, c_demo, c_addr
//  warehouse[2]:     w_warehousekey, w_state
//  store_sales[7]:   ss_datekey, ss_itemkey, ss_storekey, ss_custkey,
//                    ss_quantity, ss_price, ss_net
//  catalog_sales[6]: cs_datekey, cs_itemkey, cs_custkey, cs_qty, cs_price,
//                    cs_net
//  inventory[4]:     inv_datekey, inv_itemkey, inv_warehousekey, inv_qoh

Status BuildTpcdsData(Catalog* catalog, const TpcdsOptions& opt) {
  const auto n = [&](double base) {
    return static_cast<uint64_t>(std::max(1.0, base * opt.scale));
  };
  const uint64_t num_item = n(2000);
  const uint64_t num_customer = n(5000);
  const uint64_t num_ss = n(120000);
  const uint64_t num_cs = n(60000);
  const uint64_t num_inv = n(60000);
  const int64_t num_dates = 731;

  ZipfDistribution item_skew(num_item, kZipfZ);
  ZipfDistribution cust_skew(num_customer, kZipfZ);
  ZipfDistribution store_skew(40, kZipfZ);
  ZipfDistribution date_skew(static_cast<uint64_t>(num_dates), kZipfZ / 2);

  auto I = [](int64_t v) { return Value(v); };
  auto D = [](double v) { return Value(v); };

  LQS_RETURN_IF_ERROR(catalog->AddTable(BuildTable(
      "date_dim",
      Schema({{"d_datekey", DataType::kInt64},
              {"d_month", DataType::kInt64},
              {"d_year", DataType::kInt64},
              {"d_moy", DataType::kInt64}}),
      static_cast<uint64_t>(num_dates), opt.seed + 20,
      [&](uint64_t i, Rng&) {
        int64_t day = static_cast<int64_t>(i);
        return Row{I(day), I(day / 30), I(1998 + day / 365), I((day / 30) % 12)};
      })));

  LQS_RETURN_IF_ERROR(catalog->AddTable(BuildTable(
      "item",
      Schema({{"i_itemkey", DataType::kInt64},
              {"i_brand", DataType::kInt64},
              {"i_category", DataType::kInt64},
              {"i_manager", DataType::kInt64},
              {"i_price", DataType::kDouble}}),
      num_item, opt.seed + 21, [&](uint64_t i, Rng& rng) {
        return Row{I(static_cast<int64_t>(i)), I(rng.NextInRange(0, 49)),
                   I(rng.NextInRange(0, 9)), I(rng.NextInRange(0, 99)),
                   D(1 + rng.NextDouble() * 300)};
      })));

  LQS_RETURN_IF_ERROR(catalog->AddTable(BuildTable(
      "store",
      Schema({{"s_storekey", DataType::kInt64},
              {"s_state", DataType::kInt64},
              {"s_county", DataType::kInt64}}),
      40, opt.seed + 22, [&](uint64_t i, Rng& rng) {
        return Row{I(static_cast<int64_t>(i)), I(rng.NextInRange(0, 9)),
                   I(rng.NextInRange(0, 29))};
      })));

  LQS_RETURN_IF_ERROR(catalog->AddTable(BuildTable(
      "customer",
      Schema({{"c_custkey", DataType::kInt64},
              {"c_demo", DataType::kInt64},
              {"c_addr", DataType::kInt64}}),
      num_customer, opt.seed + 23, [&](uint64_t i, Rng& rng) {
        return Row{I(static_cast<int64_t>(i)), I(rng.NextInRange(0, 9)),
                   I(rng.NextInRange(0, 999))};
      })));

  LQS_RETURN_IF_ERROR(catalog->AddTable(BuildTable(
      "warehouse",
      Schema({{"w_warehousekey", DataType::kInt64},
              {"w_state", DataType::kInt64}}),
      10, opt.seed + 24, [&](uint64_t i, Rng& rng) {
        return Row{I(static_cast<int64_t>(i)), I(rng.NextInRange(0, 9))};
      })));

  LQS_RETURN_IF_ERROR(catalog->AddTable(BuildTable(
      "store_sales",
      Schema({{"ss_datekey", DataType::kInt64},
              {"ss_itemkey", DataType::kInt64},
              {"ss_storekey", DataType::kInt64},
              {"ss_custkey", DataType::kInt64},
              {"ss_quantity", DataType::kInt64},
              {"ss_price", DataType::kDouble},
              {"ss_net", DataType::kDouble}}),
      num_ss, opt.seed + 25, [&](uint64_t, Rng& rng) {
        double price = 1 + rng.NextDouble() * 300;
        int64_t qty = rng.NextInRange(1, 99);
        return Row{I(static_cast<int64_t>(date_skew.Sample(rng) - 1)),
                   I(static_cast<int64_t>(item_skew.Sample(rng) - 1)),
                   I(static_cast<int64_t>(store_skew.Sample(rng) - 1)),
                   I(static_cast<int64_t>(cust_skew.Sample(rng) - 1)),
                   I(qty), D(price), D(price * qty * 0.9)};
      })));

  LQS_RETURN_IF_ERROR(catalog->AddTable(BuildTable(
      "catalog_sales",
      Schema({{"cs_datekey", DataType::kInt64},
              {"cs_itemkey", DataType::kInt64},
              {"cs_custkey", DataType::kInt64},
              {"cs_qty", DataType::kInt64},
              {"cs_price", DataType::kDouble},
              {"cs_net", DataType::kDouble}}),
      num_cs, opt.seed + 26, [&](uint64_t, Rng& rng) {
        double price = 1 + rng.NextDouble() * 300;
        int64_t qty = rng.NextInRange(1, 99);
        return Row{I(static_cast<int64_t>(date_skew.Sample(rng) - 1)),
                   I(static_cast<int64_t>(item_skew.Sample(rng) - 1)),
                   I(static_cast<int64_t>(cust_skew.Sample(rng) - 1)),
                   I(qty), D(price), D(price * qty * 0.95)};
      })));

  LQS_RETURN_IF_ERROR(catalog->AddTable(BuildTable(
      "inventory",
      Schema({{"inv_datekey", DataType::kInt64},
              {"inv_itemkey", DataType::kInt64},
              {"inv_warehousekey", DataType::kInt64},
              {"inv_qoh", DataType::kInt64}}),
      num_inv, opt.seed + 27, [&](uint64_t, Rng& rng) {
        return Row{I(rng.NextInRange(0, 104) * 7),
                   I(static_cast<int64_t>(item_skew.Sample(rng) - 1)),
                   I(rng.NextInRange(0, 9)), I(rng.NextInRange(0, 1000))};
      })));

  for (const char* t : {"date_dim", "item", "store", "customer", "warehouse"}) {
    LQS_RETURN_IF_ERROR(catalog->GetMutableTable(t)->ClusterBy(0));
  }
  for (const char* t : {"store_sales", "catalog_sales", "inventory"}) {
    LQS_RETURN_IF_ERROR(catalog->GetMutableTable(t)->ClusterBy(0));
  }
  auto* ss = catalog->GetMutableTable("store_sales");
  LQS_RETURN_IF_ERROR(ss->BuildIndex("ix_ss_item", 1));
  LQS_RETURN_IF_ERROR(ss->BuildIndex("ix_ss_cust", 3));
  auto* inv = catalog->GetMutableTable("inventory");
  LQS_RETURN_IF_ERROR(inv->BuildIndex("ix_inv_item", 1));

  StatisticsOptions stats;
  stats.sample_rate = kStatsSampleRate;
  stats.seed = opt.seed + 99;
  return catalog->BuildAllStatistics(stats);
}

struct QueryList {
  const Catalog* catalog;
  std::vector<WorkloadQuery>* out;
  Status status = Status::OK();

  void Add(const std::string& name, NodePtr root) {
    if (!status.ok()) return;
    auto plan_or = FinalizePlan(std::move(root), *catalog);
    if (!plan_or.ok()) {
      status = Status::Internal(name + ": " + plan_or.status().ToString());
      return;
    }
    Status link = LinkBitmaps(&plan_or.value());
    if (!link.ok()) {
      status = Status::Internal(name + ": " + link.ToString());
      return;
    }
    out->push_back(WorkloadQuery{name, std::move(plan_or).value()});
  }
};

void BuildTpcdsQueries(QueryList& q) {
  using namespace pb;  // NOLINT: local plan-building DSL

  // q3-like: brand revenue by month.
  {
    NodePtr d = Filter(CiScan("date_dim"), ColCmp(3, CompareOp::kEq, 11));
    NodePtr ds = HashJoin(JoinKind::kInner, std::move(d), CiScan("store_sales"),
                          {0}, {0});
    // date[4] ++ ss[7] = [11]: ss_itemkey = 5, ss_net = 10.
    NodePtr dsi = HashJoin(JoinKind::kInner, std::move(ds),
                           Filter(CiScan("item"), ColCmp(3, CompareOp::kEq, 1)),
                           {5}, {0});
    // [11] ++ item[5] = [16]: d_year = 2, i_brand = 12.
    q.Add("ds_q03",
          TopNSort(HashAgg(std::move(dsi), {2, 12}, {Sum(10)}), {2}, 100));
  }

  // q7-like: demographic averages.
  {
    NodePtr c = Filter(CiScan("customer"), ColCmp(1, CompareOp::kEq, 3));
    NodePtr cs = HashJoin(JoinKind::kInner, std::move(c),
                          CiScan("store_sales"), {0}, {3});
    // customer[3] ++ ss[7] = [10]: ss_itemkey = 4, qty = 7, price = 8.
    NodePtr csi = HashJoin(JoinKind::kInner, std::move(cs), CiScan("item"),
                           {4}, {0});
    // [10] ++ item[5] = [15]: i_itemkey = 10.
    q.Add("ds_q07",
          Sort(HashAgg(std::move(csi), {10}, {Avg(7), Avg(8), Count()}), {0}));
  }

  // q13-like: multi-predicate fact aggregation — the Figure 11 Hash
  // Aggregate subject (blocking operator over a large filtered input).
  {
    NodePtr ss = CiScan("store_sales",
                        Or(And(ColBetween(4, 1, 40), ColCmp(2, CompareOp::kLe, 20)),
                           ColBetween(4, 60, 99)));
    NodePtr ssc = HashJoin(JoinKind::kInner, std::move(ss),
                           Filter(CiScan("customer"),
                                  ColCmp(1, CompareOp::kLe, 5)),
                           {3}, {0});
    // ss[7] ++ customer[3] = [10]
    NodePtr sscs = HashJoin(JoinKind::kInner, std::move(ssc), CiScan("store"),
                            {2}, {0});
    // [10] ++ store[3] = [13]: s_state = 11, ss_qty = 4, ss_net = 6.
    q.Add("ds_q13",
          HashAgg(std::move(sscs), {11}, {Avg(4), Sum(6), Count()}));
  }

  // q19-like: manager revenue with nested loops into item.
  {
    NodePtr ss = CiScan("store_sales", ColBetween(0, 300, 420));
    NodePtr nl = Nlj(JoinKind::kInner, std::move(ss),
                     CiSeek("item", OuterCol(1), OuterCol(1)), nullptr,
                     /*buffered=*/true);
    // ss[7] ++ item[5] = [12]: i_manager = 10, ss_net = 6.
    q.Add("ds_q19",
          TopNSort(HashAgg(Gather(std::move(nl)), {10}, {Sum(6)}), {1}, 50));
  }

  // q21-like: inventory before/after — the §4.6/Figure 12 plan shape:
  // several pipelines with order-of-magnitude weight differences.
  {
    NodePtr inv = CiScan("inventory");
    NodePtr invw = HashJoin(JoinKind::kInner, CiScan("warehouse"),
                            std::move(inv), {0}, {2});
    // warehouse[2] ++ inventory[4] = [6]: inv_itemkey = 3, inv_date = 2.
    NodePtr invwi = HashJoin(JoinKind::kInner,
                             Filter(CiScan("item"),
                                    ColCmp(4, CompareOp::kLe, 150)),
                             std::move(invw), {0}, {3});
    // item[5] ++ [6] = [11]: inv_datekey = 7, w_warehousekey = 5, qoh = 10.
    NodePtr invwid = HashJoin(JoinKind::kInner, std::move(invwi),
                              Filter(CiScan("date_dim"),
                                     ColBetween(0, 200, 500)),
                              {7}, {0});
    // [11] ++ date[4] = [15]: i_itemkey = 0, w key = 5, d_datekey = 11.
    NodePtr agg = HashAgg(std::move(invwid), {5, 0}, {Sum(10), Count()});
    q.Add("ds_q21", Sort(std::move(agg), {0, 1}));
  }

  // q25-like: store_sales joined catalog_sales through customer+item.
  {
    NodePtr ss = CiScan("store_sales", ColBetween(0, 100, 300));
    NodePtr cs = CiScan("catalog_sales", ColBetween(0, 100, 400));
    NodePtr join = HashJoin(JoinKind::kInner, std::move(ss), std::move(cs),
                            {3, 1}, {2, 1});
    // ss[7] ++ cs[6] = [13]: ss_item = 1, ss_net = 6, cs_net = 12.
    q.Add("ds_q25", Sort(HashAgg(std::move(join), {1}, {Sum(6), Sum(12)}),
                         {0}));
  }

  // q34-like: frequent buyers (aggregate then join back to customer).
  {
    NodePtr counts = HashAgg(CiScan("store_sales", ColBetween(0, 0, 500)),
                             {3}, {Count()});
    NodePtr big = Filter(std::move(counts),
                         ColCmp(1, CompareOp::kGe, 15));
    NodePtr bc = HashJoin(JoinKind::kInner, std::move(big),
                          CiScan("customer"), {0}, {0});
    q.Add("ds_q34", TopNSort(std::move(bc), {1}, 100));
  }

  // q42-like small dimensional rollup.
  {
    NodePtr d = Filter(CiScan("date_dim"), ColCmp(2, CompareOp::kEq, 1999));
    NodePtr dss = HashJoin(JoinKind::kInner, std::move(d),
                           CiScan("store_sales"), {0}, {0});
    // [4] ++ [7] = [11]: ss_item = 5, ss_net = 10.
    NodePtr dssi = HashJoin(JoinKind::kInner, std::move(dss), CiScan("item"),
                            {5}, {0});
    // [11] ++ item[5] = [16]: i_category = 13.
    q.Add("ds_q42", Sort(HashAgg(std::move(dssi), {13}, {Sum(10)}), {1}));
  }

  // q52-like with exchange + stream aggregate over sorted keys.
  {
    NodePtr ss = CiScan("store_sales");
    NodePtr agg = StreamAgg(std::move(ss), {0}, {Sum(6), Count()});
    q.Add("ds_q52", Sort(Gather(std::move(agg)), {1}));
  }

  // q55-like: brand revenue for one manager, NLJ + rid-lookup style plan.
  {
    NodePtr seek = IdxSeek("store_sales", "ix_ss_item", OuterCol(0));
    NodePtr lookup = Nlj(JoinKind::kInner, std::move(seek),
                         RidLookup("store_sales", 1));
    // seek[2] ++ ss[7] = [9]: ss_net = 8.
    NodePtr items = Filter(CiScan("item"), ColCmp(3, CompareOp::kEq, 28));
    NodePtr nl = Nlj(JoinKind::kInner, std::move(items), std::move(lookup),
                     nullptr, /*buffered=*/false);
    // item[5] ++ [9] = [14]: i_brand = 1, ss_net = 13.
    q.Add("ds_q55", Sort(HashAgg(std::move(nl), {1}, {Sum(13)}), {1}));
  }

  // q65-like: store-item revenue vs average (two aggregates, one spooled).
  {
    NodePtr per_si = HashAgg(CiScan("store_sales"), {2, 1}, {Sum(6)});
    // [3]: store, item, sum.
    NodePtr per_s = HashAgg(CiScan("store_sales"), {2}, {Avg(6)});
    // [2]: store, avg.
    NodePtr join = HashJoin(JoinKind::kInner, std::move(per_s),
                            std::move(per_si), {0}, {0},
                            Cmp(CompareOp::kLe, Col(4),
                                Expr::Arith(ArithOp::kMul, Col(1),
                                            LitD(0.5))));
    q.Add("ds_q65", Sort(std::move(join), {0, 3}));
  }

  // q72-like: catalog_sales ⋈ inventory (big join with residual).
  {
    NodePtr cs = CiScan("catalog_sales", ColBetween(0, 0, 200));
    NodePtr join = HashJoin(
        JoinKind::kInner, std::move(cs), CiScan("inventory"), {1}, {1},
        Cmp(CompareOp::kLt, Col(9), Col(3)));  // inv_qoh < cs_qty
    // cs[6] ++ inv[4] = [10]: cs_item = 1.
    q.Add("ds_q72",
          TopNSort(HashAgg(std::move(join), {1}, {Count()}), {1}, 100));
  }

  // q82-like: item/inventory/store_sales chain with semi join.
  {
    NodePtr i = Filter(CiScan("item"), ColBetween(4, 50, 80));
    NodePtr ii = HashJoin(JoinKind::kLeftSemi, std::move(i),
                          CiScan("inventory", ColBetween(3, 100, 500)), {0},
                          {1});
    // item[5]
    NodePtr iis = HashJoin(JoinKind::kLeftSemi, std::move(ii),
                           CiScan("store_sales"), {0}, {1});
    q.Add("ds_q82", Sort(std::move(iis), {0}));
  }

  // Exchange-heavy scan (parallel table scan shape, Figure 7).
  {
    NodePtr ss = CiScan("store_sales", ColBetween(4, 10, 60));
    q.Add("ds_scan_dop", HashAgg(Gather(Repartition(std::move(ss))), {2},
                                 {Sum(6), Count()}));
  }

  // Anti join: customers with no catalog sales.
  {
    NodePtr c = CiScan("customer");
    NodePtr anti = HashJoin(JoinKind::kLeftAnti, std::move(c),
                            CiScan("catalog_sales"), {0}, {2});
    q.Add("ds_anti", Sort(HashAgg(std::move(anti), {1}, {Count()}), {0}));
  }

  // Sort-heavy: big sort above a join (spill path).
  {
    NodePtr join = HashJoin(JoinKind::kInner, CiScan("item"),
                            CiScan("store_sales"), {0}, {1});
    // item[5] ++ ss[7] = [12]
    q.Add("ds_bigsort", Top(Sort(std::move(join), {4, 11}), 1000));
  }

  // Distinct + concat over the two fact tables.
  {
    NodePtr a = Compute(CiScan("store_sales", ColBetween(0, 0, 100)), [] {
      std::vector<std::unique_ptr<Expr>> v;
      v.push_back(Expr::Column(1));
      return v;
    }());
    NodePtr b = Compute(CiScan("catalog_sales", ColBetween(0, 0, 100)), [] {
      std::vector<std::unique_ptr<Expr>> v;
      // Pad to store_sales+1 arity so the item key lands at column 7 in
      // both concat branches.
      v.push_back(Expr::Literal(Value(int64_t{0})));
      v.push_back(Expr::Column(1));
      return v;
    }());
    // Both 8 wide; distinct over the appended item column.
    NodePtr cat = Concat([&] {
      std::vector<NodePtr> v;
      v.push_back(std::move(a));
      v.push_back(std::move(b));
      return v;
    }());
    q.Add("ds_union_items", DistinctSort(std::move(cat), {7}));
  }

  // Merge join over clustered date keys + stream aggregate.
  {
    NodePtr d = CiScan("date_dim", ColBetween(0, 0, 400));
    NodePtr mj = MergeJoin(JoinKind::kInner, std::move(d),
                           CiScan("store_sales"), {0}, {0});
    // date[4] ++ ss[7] = [11]
    q.Add("ds_merge", StreamAgg(std::move(mj), {0}, {Sum(10), Count()}));
  }

  // Lazy spool under a nested loop (Figure 4's Table Spool shape).
  {
    NodePtr dates = Filter(CiScan("date_dim"), ColCmp(3, CompareOp::kEq, 6));
    NodePtr spool = LazySpool(CiScan("store_sales", ColBetween(4, 90, 99)));
    NodePtr nl = Nlj(JoinKind::kInner, std::move(dates), std::move(spool),
                     Cmp(CompareOp::kEq, Col(0), Col(4)));
    q.Add("ds_spool", HashAgg(std::move(nl), {}, {Count(), Sum(9)}));
  }

  // Top-N sort over computed expression. (The pushed range is on an
  // unclustered column: a range on the clustered key would hit the paper's
  // §7(d) known limitation — predicates on the sort column make GetNext
  // counts time-correlated in a way §4.3 deliberately ignores.)
  {
    NodePtr ss = CiScan("store_sales", ColBetween(4, 20, 70));
    NodePtr c = Compute(std::move(ss), [] {
      std::vector<std::unique_ptr<Expr>> v;
      v.push_back(Expr::Arith(ArithOp::kMul, Expr::Column(5),
                              Expr::Column(4)));
      return v;
    }());
    q.Add("ds_topn", TopNSort(std::move(c), {7}, 25));
  }

  // Scalar rollup over everything (long single pipeline).
  q.Add("ds_total",
        HashAgg(CiScan("store_sales"), {}, {Sum(6), Sum(5), Count()}));

  // Buffered NLJ from date_dim into the fact clustered key (semi-blocking
  // driver showcase, Figure 7/8 shape).
  {
    NodePtr d = Filter(CiScan("date_dim"), ColBetween(0, 350, 380));
    NodePtr nl = Nlj(JoinKind::kInner, std::move(d),
                     CiSeek("store_sales", OuterCol(0), OuterCol(0)), nullptr,
                     /*buffered=*/true);
    // date[4] ++ ss[7] = [11]
    q.Add("ds_nlj_buffered",
          HashAgg(Gather(std::move(nl)), {2 + 4}, {Sum(10)}));
  }
}

}  // namespace

StatusOr<Workload> MakeTpcdsWorkload(const TpcdsOptions& options) {
  Workload w;
  w.name = "TPC-DS";
  w.catalog = std::make_unique<Catalog>();
  LQS_RETURN_IF_ERROR(BuildTpcdsData(w.catalog.get(), options));
  QueryList q{w.catalog.get(), &w.queries};
  BuildTpcdsQueries(q);
  LQS_RETURN_IF_ERROR(q.status);
  return w;
}

}  // namespace lqs
