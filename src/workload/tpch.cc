#include <cmath>

#include "common/stringf.h"
#include "workload/datagen.h"
#include "workload/plan_builder.h"
#include "workload/workload.h"

namespace lqs {

namespace {

using pb::NodePtr;

// Column cheat sheet (arities in brackets):
//  region[2]:   r_regionkey, r_name
//  nation[3]:   n_nationkey, n_regionkey, n_name
//  supplier[3]: s_suppkey, s_nationkey, s_acctbal
//  customer[4]: c_custkey, c_nationkey, c_mktsegment, c_acctbal
//  part[6]:     p_partkey, p_brand, p_type, p_size, p_retailprice, p_container
//  partsupp[4]: ps_partkey, ps_suppkey, ps_availqty, ps_supplycost
//  orders[6]:   o_orderkey, o_custkey, o_orderstatus, o_totalprice,
//               o_orderdate, o_orderpriority
//  lineitem[14]: l_orderkey, l_partkey, l_suppkey, l_linenumber, l_quantity,
//               l_extendedprice, l_discount, l_tax, l_returnflag,
//               l_linestatus, l_shipdate, l_commitdate, l_receiptdate,
//               l_shipmode

Status BuildTpchData(Catalog* catalog, const TpchOptions& opt) {
  const auto n = [&](double base) {
    return static_cast<uint64_t>(std::max(1.0, base * opt.scale));
  };
  const uint64_t num_supplier = n(100);
  const uint64_t num_customer = n(1500);
  const uint64_t num_part = n(2000);
  const uint64_t num_partsupp = n(8000);
  const uint64_t num_orders = n(15000);
  const uint64_t num_lineitem = n(60000);
  const int64_t max_date = 2405;  // days since 1992-01-01, as in dbgen

  ZipfDistribution part_skew(num_part, kZipfZ);
  ZipfDistribution supp_skew(num_supplier, kZipfZ);
  ZipfDistribution cust_skew(num_customer, kZipfZ);
  ZipfDistribution order_skew(num_orders, kZipfZ);
  ZipfDistribution nation_skew(25, kZipfZ);

  auto I = [](int64_t v) { return Value(v); };
  auto D = [](double v) { return Value(v); };

  LQS_RETURN_IF_ERROR(catalog->AddTable(BuildTable(
      "region",
      Schema({{"r_regionkey", DataType::kInt64}, {"r_name", DataType::kInt64}}),
      5, opt.seed + 10, [&](uint64_t i, Rng&) {
        return Row{I(static_cast<int64_t>(i)), I(static_cast<int64_t>(i))};
      })));

  LQS_RETURN_IF_ERROR(catalog->AddTable(BuildTable(
      "nation",
      Schema({{"n_nationkey", DataType::kInt64},
              {"n_regionkey", DataType::kInt64},
              {"n_name", DataType::kInt64}}),
      25, opt.seed + 11, [&](uint64_t i, Rng&) {
        return Row{I(static_cast<int64_t>(i)), I(static_cast<int64_t>(i % 5)),
                   I(static_cast<int64_t>(i))};
      })));

  LQS_RETURN_IF_ERROR(catalog->AddTable(BuildTable(
      "supplier",
      Schema({{"s_suppkey", DataType::kInt64},
              {"s_nationkey", DataType::kInt64},
              {"s_acctbal", DataType::kDouble}}),
      num_supplier, opt.seed + 12, [&](uint64_t i, Rng& rng) {
        return Row{I(static_cast<int64_t>(i)),
                   I(static_cast<int64_t>(nation_skew.Sample(rng) - 1)),
                   D(rng.NextDouble() * 10000 - 1000)};
      })));

  LQS_RETURN_IF_ERROR(catalog->AddTable(BuildTable(
      "customer",
      Schema({{"c_custkey", DataType::kInt64},
              {"c_nationkey", DataType::kInt64},
              {"c_mktsegment", DataType::kInt64},
              {"c_acctbal", DataType::kDouble}}),
      num_customer, opt.seed + 13, [&](uint64_t i, Rng& rng) {
        return Row{I(static_cast<int64_t>(i)),
                   I(static_cast<int64_t>(nation_skew.Sample(rng) - 1)),
                   I(rng.NextInRange(0, 4)), D(rng.NextDouble() * 10000)};
      })));

  LQS_RETURN_IF_ERROR(catalog->AddTable(BuildTable(
      "part",
      Schema({{"p_partkey", DataType::kInt64},
              {"p_brand", DataType::kInt64},
              {"p_type", DataType::kInt64},
              {"p_size", DataType::kInt64},
              {"p_retailprice", DataType::kDouble},
              {"p_container", DataType::kInt64}}),
      num_part, opt.seed + 14, [&](uint64_t i, Rng& rng) {
        return Row{I(static_cast<int64_t>(i)), I(rng.NextInRange(0, 24)),
                   I(rng.NextInRange(0, 149)), I(rng.NextInRange(1, 50)),
                   D(900 + rng.NextDouble() * 1200), I(rng.NextInRange(0, 39))};
      })));

  LQS_RETURN_IF_ERROR(catalog->AddTable(BuildTable(
      "partsupp",
      Schema({{"ps_partkey", DataType::kInt64},
              {"ps_suppkey", DataType::kInt64},
              {"ps_availqty", DataType::kInt64},
              {"ps_supplycost", DataType::kDouble}}),
      num_partsupp, opt.seed + 15, [&](uint64_t i, Rng& rng) {
        return Row{I(static_cast<int64_t>(i % num_part)),
                   I(static_cast<int64_t>(supp_skew.Sample(rng) - 1)),
                   I(rng.NextInRange(1, 9999)), D(rng.NextDouble() * 1000)};
      })));

  LQS_RETURN_IF_ERROR(catalog->AddTable(BuildTable(
      "orders",
      Schema({{"o_orderkey", DataType::kInt64},
              {"o_custkey", DataType::kInt64},
              {"o_orderstatus", DataType::kInt64},
              {"o_totalprice", DataType::kDouble},
              {"o_orderdate", DataType::kInt64},
              {"o_orderpriority", DataType::kInt64}}),
      num_orders, opt.seed + 16, [&](uint64_t i, Rng& rng) {
        return Row{I(static_cast<int64_t>(i)),
                   I(static_cast<int64_t>(cust_skew.Sample(rng) - 1)),
                   I(rng.NextInRange(0, 2)),
                   D(1000 + rng.NextDouble() * 400000),
                   I(rng.NextInRange(0, max_date - 151)),
                   I(rng.NextInRange(0, 4))};
      })));

  LQS_RETURN_IF_ERROR(catalog->AddTable(BuildTable(
      "lineitem",
      Schema({{"l_orderkey", DataType::kInt64},
              {"l_partkey", DataType::kInt64},
              {"l_suppkey", DataType::kInt64},
              {"l_linenumber", DataType::kInt64},
              {"l_quantity", DataType::kInt64},
              {"l_extendedprice", DataType::kDouble},
              {"l_discount", DataType::kDouble},
              {"l_tax", DataType::kDouble},
              {"l_returnflag", DataType::kInt64},
              {"l_linestatus", DataType::kInt64},
              {"l_shipdate", DataType::kInt64},
              {"l_commitdate", DataType::kInt64},
              {"l_receiptdate", DataType::kInt64},
              {"l_shipmode", DataType::kInt64}}),
      num_lineitem, opt.seed + 17, [&](uint64_t i, Rng& rng) {
        int64_t orderkey = static_cast<int64_t>(order_skew.Sample(rng) - 1);
        int64_t shipdate = rng.NextInRange(0, max_date - 60);
        double price = 900 + rng.NextDouble() * 104000;
        return Row{I(orderkey),
                   I(static_cast<int64_t>(part_skew.Sample(rng) - 1)),
                   I(static_cast<int64_t>(supp_skew.Sample(rng) - 1)),
                   I(static_cast<int64_t>(i % 7)),
                   I(rng.NextInRange(1, 50)),
                   D(price),
                   D(rng.NextInRange(0, 10) / 100.0),
                   D(rng.NextInRange(0, 8) / 100.0),
                   I(rng.NextInRange(0, 2)),
                   I(rng.NextInRange(0, 1)),
                   I(shipdate),
                   I(shipdate + rng.NextInRange(10, 40)),
                   I(shipdate + rng.NextInRange(1, 30)),
                   I(rng.NextInRange(0, 6))};
      })));

  // Physical design.
  auto cluster = [&](const char* t, int col) {
    return catalog->GetMutableTable(t)->ClusterBy(col);
  };
  LQS_RETURN_IF_ERROR(cluster("region", 0));
  LQS_RETURN_IF_ERROR(cluster("nation", 0));
  LQS_RETURN_IF_ERROR(cluster("supplier", 0));
  LQS_RETURN_IF_ERROR(cluster("customer", 0));
  LQS_RETURN_IF_ERROR(cluster("part", 0));
  LQS_RETURN_IF_ERROR(cluster("partsupp", 0));
  LQS_RETURN_IF_ERROR(cluster("orders", 0));
  LQS_RETURN_IF_ERROR(cluster("lineitem", 0));

  if (opt.design == PhysicalDesign::kRowstore) {
    // DTA-like nonclustered index set.
    auto index = [&](const char* t, const char* name, int col) {
      return catalog->GetMutableTable(t)->BuildIndex(name, col);
    };
    LQS_RETURN_IF_ERROR(index("lineitem", "ix_l_partkey", 1));
    LQS_RETURN_IF_ERROR(index("lineitem", "ix_l_suppkey", 2));
    LQS_RETURN_IF_ERROR(index("lineitem", "ix_l_shipdate", 10));
    LQS_RETURN_IF_ERROR(index("orders", "ix_o_custkey", 1));
    LQS_RETURN_IF_ERROR(index("orders", "ix_o_orderdate", 4));
    LQS_RETURN_IF_ERROR(index("customer", "ix_c_nationkey", 1));
    LQS_RETURN_IF_ERROR(index("supplier", "ix_s_nationkey", 1));
    LQS_RETURN_IF_ERROR(index("partsupp", "ix_ps_suppkey", 1));
  } else {
    for (const char* t :
         {"lineitem", "orders", "partsupp", "customer", "part", "supplier"}) {
      LQS_RETURN_IF_ERROR(catalog->BuildColumnstore(t));
    }
  }

  StatisticsOptions stats;
  stats.sample_rate = kStatsSampleRate;
  stats.seed = opt.seed + 99;
  return catalog->BuildAllStatistics(stats);
}

/// Design-aware scan of a base table with an optional pushed predicate.
NodePtr FactScan(const TpchOptions& opt, const std::string& table,
                 std::unique_ptr<Expr> pushed = nullptr) {
  if (opt.design == PhysicalDesign::kColumnstore) {
    return pb::CsScan(table, std::move(pushed));
  }
  return pb::CiScan(table, std::move(pushed));
}

struct QueryList {
  const TpchOptions* opt;
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

void BuildTpchQueries(QueryList& q, const TpchOptions& opt) {
  using namespace pb;  // NOLINT: local plan-building DSL
  const bool cs = opt.design == PhysicalDesign::kColumnstore;
  auto scan = [&](const char* t, std::unique_ptr<Expr> pushed = nullptr) {
    return FactScan(opt, t, std::move(pushed));
  };

  // Q1: pricing summary report. Scan + big aggregate (Figure 2's plan).
  q.Add("q01",
        Sort(HashAgg(scan("lineitem", ColCmp(10, CompareOp::kLe, 2250)),
                     {8, 9}, {Sum(4), Sum(5), Avg(5), Avg(6), Count()}),
             {0, 1}));

  // Q2: minimum-cost supplier. Multi-join with a nested-loops side.
  {
    NodePtr part_f = Filter(scan("part"), ColCmp(3, CompareOp::kEq, 15));
    NodePtr ps = cs ? HashJoin(JoinKind::kInner, std::move(part_f),
                               scan("partsupp"), {0}, {0})
                    : Nlj(JoinKind::kInner, std::move(part_f),
                          CiSeek("partsupp", OuterCol(0), OuterCol(0)),
                          nullptr, /*buffered=*/true);
    // part[6] ++ partsupp[4]: ps_suppkey = 7, ps_supplycost = 9.
    NodePtr nr = HashJoin(JoinKind::kInner,
                          Filter(CiScan("region"), ColCmp(0, CompareOp::kLe, 2)),
                          CiScan("nation"), {0}, {1});
    // region[2] ++ nation[3]: n_nationkey = 2.
    NodePtr snr = HashJoin(JoinKind::kInner, std::move(nr), CiScan("supplier"),
                           {2}, {1});
    // [5] ++ supplier[3]: s_suppkey = 5.
    q.Add("q02", TopNSort(HashJoin(JoinKind::kInner, std::move(snr),
                                   std::move(ps), {5}, {7}),
                          {17}, 100));
  }

  // Q3: shipping priority. customer ⋈ orders ⋈ lineitem, Top-N.
  {
    NodePtr c = Filter(scan("customer"), ColCmp(2, CompareOp::kEq, 1));
    NodePtr co = HashJoin(JoinKind::kInner, std::move(c),
                          scan("orders", ColCmp(4, CompareOp::kLt, 1200)),
                          {0}, {1});
    // customer[4] ++ orders[6]: o_orderkey = 4.
    NodePtr col = HashJoin(JoinKind::kInner, std::move(co),
                           scan("lineitem", ColCmp(10, CompareOp::kGt, 1200)),
                           {4}, {0});
    // [10] ++ lineitem[14]: l_extendedprice = 15, o_orderdate = 8.
    q.Add("q03", TopNSort(HashAgg(std::move(col), {4, 8}, {Sum(15)}), {2}, 10));
  }

  // Q4: order priority checking — semi join orders ⋉ lineitem.
  {
    NodePtr o = scan("orders", ColBetween(4, 800, 890));
    NodePtr l = scan("lineitem", nullptr);
    q.Add("q04",
          Sort(HashAgg(HashJoin(JoinKind::kLeftSemi, std::move(o),
                                std::move(l), {0}, {0}),
                       {5}, {Count()}),
               {0}));
  }

  // Q5: local supplier volume. 6-table join with region filter + bitmap.
  {
    NodePtr nr = HashJoin(JoinKind::kInner,
                          Filter(CiScan("region"), ColCmp(0, CompareOp::kEq, 1)),
                          CiScan("nation"), {0}, {1});
    NodePtr snr = HashJoin(JoinKind::kInner, std::move(nr), CiScan("supplier"),
                           {2}, {1});
    // [5] ++ supplier[3] = [8]: s_suppkey = 5.
    NodePtr build = BitmapCreate(std::move(snr), 5);
    NodePtr li = scan("lineitem");
    ProbeBitmap(li.get(), 2);  // l_suppkey probes the bitmap in the scan
    NodePtr sl = HashJoin(JoinKind::kInner, std::move(build), std::move(li),
                          {5}, {2});
    // [8] ++ lineitem[14] = [22]: l_orderkey = 8.
    NodePtr slo = HashJoin(JoinKind::kInner, std::move(sl),
                           scan("orders", ColBetween(4, 400, 765)), {8}, {0});
    // [22] ++ orders[6] = [28]: n_name = 4, l_extendedprice = 13.
    q.Add("q05", Sort(HashAgg(std::move(slo), {4}, {Sum(13)}), {0}));
  }

  // Q6: forecasting revenue change — pure scan with pushed conjunction.
  q.Add("q06",
        HashAgg(scan("lineitem",
                     And(ColBetween(10, 400, 765),
                         And(Cmp(CompareOp::kLe, Col(6), LitD(0.07)),
                             ColCmp(4, CompareOp::kLt, 24)))),
                {}, {Sum(5), Count()}));

  // Q7: volume shipping — two nation sides, exchange on top (parallel plan).
  {
    NodePtr sn = HashJoin(JoinKind::kInner,
                          Filter(CiScan("nation"), ColCmp(0, CompareOp::kLe, 12)),
                          CiScan("supplier"), {0}, {1});
    // nation[3] ++ supplier[3] = [6]: s_suppkey = 3.
    NodePtr snl = HashJoin(JoinKind::kInner, std::move(sn),
                           scan("lineitem", ColBetween(10, 1000, 1400)), {3},
                           {2});
    // [6] ++ lineitem[14] = [20]: l_orderkey = 6.
    NodePtr snlo = HashJoin(JoinKind::kInner, std::move(snl), scan("orders"),
                            {6}, {0});
    // [20] ++ orders[6] = [26]: o_custkey = 21, n_name at 2.
    NodePtr full = HashJoin(JoinKind::kInner, std::move(snlo),
                            scan("customer"), {21}, {0});
    // [26] ++ customer[4] = [30]: c_nationkey = 27, l_extendedprice = 11.
    q.Add("q07", Sort(HashAgg(Gather(std::move(full)), {2, 27}, {Sum(11)}),
                      {0, 1}));
  }

  // Q8: national market share (deep join tree + compute scalar).
  {
    NodePtr p = Filter(scan("part"), ColCmp(2, CompareOp::kEq, 10));
    NodePtr pl = HashJoin(JoinKind::kInner, std::move(p), scan("lineitem"),
                          {0}, {1});
    // part[6] ++ lineitem[14] = [20]: l_orderkey = 6, l_suppkey = 8.
    NodePtr plo = HashJoin(JoinKind::kInner, std::move(pl),
                           scan("orders", ColBetween(4, 1000, 1730)), {6},
                           {0});
    // [20] ++ orders[6] = [26]: o_orderdate = 24.
    NodePtr plos = HashJoin(JoinKind::kInner, std::move(plo),
                            CiScan("supplier"), {8}, {0});
    // [26] ++ supplier[3] = [29]: s_nationkey = 27, l_extprice 11, l_disc 12.
    NodePtr with_rev = Compute(
        std::move(plos),
        [] {
          std::vector<std::unique_ptr<Expr>> v;
          v.push_back(Expr::Arith(ArithOp::kMul, Col(11),
                                  Expr::Arith(ArithOp::kSub, LitD(1.0),
                                              Col(12))));
          return v;
        }());
    // [30]: revenue = 29.
    q.Add("q08", Sort(HashAgg(std::move(with_rev), {24, 27}, {Sum(29)}),
                      {0}));
  }

  // Q9: product type profit (join over partsupp composite).
  {
    NodePtr p = Filter(scan("part"), ColCmp(1, CompareOp::kEq, 3));
    NodePtr pl = HashJoin(JoinKind::kInner, std::move(p), scan("lineitem"),
                          {0}, {1});
    // [20]: l_suppkey = 8, l_orderkey = 6.
    NodePtr pls = HashJoin(JoinKind::kInner, std::move(pl), CiScan("supplier"),
                           {8}, {0});
    // [23]: s_nationkey = 21.
    NodePtr plsn = HashJoin(JoinKind::kInner, std::move(pls), CiScan("nation"),
                            {21}, {0});
    // [26]: n_name = 25, l_extendedprice = 11.
    q.Add("q09", Sort(HashAgg(std::move(plsn), {25}, {Sum(11), Count()}),
                      {0}));
  }

  // Q10: returned items. customer ⋈ orders ⋈ lineitem(returnflag).
  {
    NodePtr o = scan("orders", ColBetween(4, 1100, 1190));
    NodePtr ol = HashJoin(JoinKind::kInner, std::move(o),
                          scan("lineitem", ColCmp(8, CompareOp::kEq, 2)), {0},
                          {0});
    // orders[6] ++ lineitem[14] = [20]: o_custkey = 1, l_extprice = 11.
    NodePtr olc = HashJoin(JoinKind::kInner, std::move(ol), scan("customer"),
                           {1}, {0});
    // [24]: c_custkey = 20.
    q.Add("q10", TopNSort(HashAgg(std::move(olc), {20}, {Sum(11)}), {1}, 20));
  }

  // Q11: important stock identification (partsupp by nation, agg + sort).
  {
    NodePtr sn = HashJoin(JoinKind::kInner,
                          Filter(CiScan("nation"), ColCmp(0, CompareOp::kEq, 7)),
                          CiScan("supplier"), {0}, {1});
    // [6]: s_suppkey = 3.
    NodePtr snps = HashJoin(JoinKind::kInner, std::move(sn), scan("partsupp"),
                            {3}, {1});
    // [10]: ps_partkey = 6, ps_supplycost = 9, ps_availqty = 8.
    q.Add("q11",
          Sort(HashAgg(std::move(snps), {6}, {Sum(9), Sum(8)}), {1}));
  }

  // Q12: shipping modes — merge join on the clustered order key.
  {
    NodePtr o = cs ? scan("orders") : CiScan("orders");
    NodePtr l = cs ? scan("lineitem", ColBetween(12, 700, 1065))
                   : CiScan("lineitem", ColBetween(12, 700, 1065));
    NodePtr join = cs ? HashJoin(JoinKind::kInner, std::move(o), std::move(l),
                                 {0}, {0})
                      : MergeJoin(JoinKind::kInner, std::move(o), std::move(l),
                                  {0}, {0});
    // orders[6] ++ lineitem[14] = [20]: l_shipmode = 19, o_priority = 5.
    q.Add("q12", Sort(HashAgg(std::move(join), {19}, {Count(), Sum(3)}), {0}));
  }

  // Q13: customer distribution — left outer join + double aggregation.
  {
    NodePtr c = scan("customer");
    NodePtr o = scan("orders", ColCmp(5, CompareOp::kNe, 2));
    NodePtr coj = HashJoin(JoinKind::kLeftOuter, std::move(c), std::move(o),
                           {0}, {1});
    // customer[4] ++ orders[6] = [10]: c_custkey = 0, o_orderkey = 4.
    NodePtr per_cust = HashAgg(std::move(coj), {0}, {Count()});
    q.Add("q13", Sort(HashAgg(std::move(per_cust), {1}, {Count()}), {0}));
  }

  // Q14: promotion effect — part ⋈ lineitem with date range.
  {
    NodePtr l = scan("lineitem", ColBetween(10, 1300, 1330));
    NodePtr pl = HashJoin(JoinKind::kInner, std::move(l), scan("part"), {1},
                          {0});
    // lineitem[14] ++ part[6] = [20]: p_type = 16, l_extprice = 5.
    q.Add("q14", HashAgg(std::move(pl), {}, {Sum(5), Count()}));
  }

  // Q15: top supplier. Aggregate feeding a join (pipeline chain).
  {
    NodePtr rev = HashAgg(scan("lineitem", ColBetween(10, 1500, 1590)), {2},
                          {Sum(5)});
    // [2]: l_suppkey = 0, revenue = 1.
    NodePtr join = HashJoin(JoinKind::kInner, std::move(rev),
                            CiScan("supplier"), {0}, {0});
    q.Add("q15", TopNSort(std::move(join), {1}, 10));
  }

  // Q16: parts/supplier relationship — anti join against supplier subset.
  {
    NodePtr ps = scan("partsupp");
    NodePtr bad_s = Filter(CiScan("supplier"),
                           Cmp(CompareOp::kLt, Col(2), LitD(0.0)));
    NodePtr psa = HashJoin(JoinKind::kLeftAnti, std::move(ps),
                           std::move(bad_s), {1}, {0});
    // partsupp[4]: ps_partkey = 0.
    NodePtr psap = HashJoin(JoinKind::kInner, std::move(psa),
                            Filter(scan("part"),
                                   ColCmp(1, CompareOp::kNe, 5)),
                            {0}, {0});
    // [10]: p_brand = 5, p_type = 6, p_size = 7.
    q.Add("q16", Sort(HashAgg(std::move(psap), {5, 6, 7}, {Count()}),
                      {0, 1, 2}));
  }

  // Q17: small-quantity-order revenue. Correlated-style: join against
  // per-part average quantity (modelled as agg + join).
  {
    NodePtr avg_q = HashAgg(scan("lineitem"), {1}, {Avg(4)});
    // [2]: l_partkey = 0, avg_qty = 1.
    NodePtr p = Filter(scan("part"), ColCmp(5, CompareOp::kEq, 7));
    NodePtr pa = HashJoin(JoinKind::kInner, std::move(p), std::move(avg_q),
                          {0}, {0});
    // part[6] ++ [2] = [8]: l_partkey(agg) = 6, avg = 7.
    NodePtr pal = HashJoin(JoinKind::kInner, std::move(pa), scan("lineitem"),
                           {6}, {1},
                           // residual: l_quantity < avg_qty
                           Cmp(CompareOp::kLt, Col(12), Col(7)));
    // [8] ++ lineitem[14] = [22]: l_quantity = 12, l_extprice = 13.
    q.Add("q17", HashAgg(std::move(pal), {}, {Sum(13), Count()}));
  }

  // Q18: large-volume customers. Aggregate, filter on aggregate, join back.
  {
    NodePtr per_order = HashAgg(scan("lineitem"), {0}, {Sum(4)});
    // [2]: l_orderkey = 0, sum_qty = 1.
    NodePtr big =
        Filter(std::move(per_order), Cmp(CompareOp::kGt, Col(1), LitD(120.0)));
    NodePtr bo = HashJoin(JoinKind::kInner, std::move(big), scan("orders"),
                          {0}, {0});
    // [2] ++ orders[6] = [8]: o_custkey = 3.
    NodePtr boc = HashJoin(JoinKind::kInner, std::move(bo), scan("customer"),
                           {3}, {0});
    // [12]
    q.Add("q18", TopNSort(std::move(boc), {1}, 100));
  }

  // Q19: discounted revenue — disjunctive pushed predicate (out-of-model,
  // §4.3) over lineitem joined to part.
  {
    NodePtr l = scan("lineitem",
                     Or(And(ColBetween(4, 1, 11), ColCmp(13, CompareOp::kEq, 1)),
                        And(ColBetween(4, 10, 20),
                            ColCmp(13, CompareOp::kEq, 2))));
    NodePtr lp = HashJoin(JoinKind::kInner, std::move(l),
                          Filter(scan("part"), ColCmp(1, CompareOp::kLe, 12)),
                          {1}, {0});
    q.Add("q19", HashAgg(std::move(lp), {}, {Sum(5)}));
  }

  // Q20: potential part promotion — nested semi-join chain with spool.
  {
    NodePtr pk = Filter(scan("part"), ColCmp(3, CompareOp::kLe, 4));
    NodePtr ps = HashJoin(JoinKind::kLeftSemi, scan("partsupp"),
                          std::move(pk), {0}, {0});
    // partsupp[4]: ps_suppkey = 1.
    NodePtr s = HashJoin(JoinKind::kLeftSemi, CiScan("supplier"),
                         std::move(ps), {0}, {1});
    q.Add("q20", Sort(std::move(s), {0}));
  }

  // Q21: suppliers who kept orders waiting — multi-pipeline plan with
  // semi/anti joins (the weighting showcase, §4.6 / Figure 12 uses the
  // TPC-DS cousin; this exercises the same shape).
  {
    NodePtr late = scan("lineitem",
                        Cmp(CompareOp::kGt, Col(12), Col(11)));
    NodePtr sl = HashJoin(JoinKind::kInner, CiScan("supplier"),
                          std::move(late), {0}, {2});
    // supplier[3] ++ lineitem[14] = [17]: l_orderkey = 3.
    NodePtr slo = HashJoin(JoinKind::kInner, std::move(sl),
                           scan("orders", ColCmp(2, CompareOp::kEq, 1)), {3},
                           {0});
    // [17] ++ orders[6] = [23]: s_nationkey = 1.
    NodePtr sloj =
        HashJoin(JoinKind::kLeftSemi, std::move(slo),
                 Filter(CiScan("nation"), ColCmp(0, CompareOp::kEq, 3)), {1},
                 {0});
    q.Add("q21", TopNSort(HashAgg(std::move(sloj), {0}, {Count()}), {1}, 100));
  }

  // Q22: global sales opportunity — anti join customers without orders.
  {
    NodePtr c = Filter(scan("customer"),
                       Cmp(CompareOp::kGt, Col(3), LitD(5000.0)));
    NodePtr ca = HashJoin(JoinKind::kLeftAnti, std::move(c), scan("orders"),
                          {0}, {1});
    q.Add("q22", Sort(HashAgg(std::move(ca), {1}, {Count(), Sum(3)}), {0}));
  }
}

}  // namespace

StatusOr<Workload> MakeTpchWorkload(const TpchOptions& options) {
  Workload w;
  w.name = options.design == PhysicalDesign::kColumnstore
               ? "TPC-H (columnstore)"
               : "TPC-H";
  w.catalog = std::make_unique<Catalog>();
  LQS_RETURN_IF_ERROR(BuildTpchData(w.catalog.get(), options));
  QueryList q{&options, w.catalog.get(), &w.queries};
  BuildTpchQueries(q, options);
  LQS_RETURN_IF_ERROR(q.status);
  return w;
}

}  // namespace lqs
