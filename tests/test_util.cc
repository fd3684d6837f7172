#include "tests/test_util.h"

#include "remote/wire.h"

namespace lqs {
namespace testing {

std::unique_ptr<Catalog> MakeTestCatalog() {
  auto catalog = std::make_unique<Catalog>();

  auto small = std::make_unique<Table>(
      "t_small", Schema({{"a", DataType::kInt64},
                         {"b", DataType::kInt64},
                         {"c", DataType::kInt64}}));
  for (int64_t i = 0; i < 200; ++i) {
    small->AppendRow(Row{Value(i), Value(i % 10), Value(i % 3)});
  }
  EXPECT_TRUE(small->ClusterBy(0).ok());
  EXPECT_TRUE(small->BuildIndex("ix_b", 1).ok());
  EXPECT_TRUE(catalog->AddTable(std::move(small)).ok());

  auto big = std::make_unique<Table>(
      "t_big", Schema({{"k", DataType::kInt64},
                       {"fk", DataType::kInt64},
                       {"v", DataType::kInt64},
                       {"w", DataType::kDouble}}));
  for (int64_t i = 0; i < 5000; ++i) {
    big->AppendRow(Row{Value(i), Value(i % 200), Value(i % 100),
                       Value(static_cast<double>(i) * 0.5)});
  }
  EXPECT_TRUE(big->ClusterBy(0).ok());
  EXPECT_TRUE(big->BuildIndex("ix_fk", 1).ok());
  EXPECT_TRUE(catalog->AddTable(std::move(big)).ok());
  EXPECT_TRUE(catalog->BuildColumnstore("t_big").ok());

  StatisticsOptions stats;
  EXPECT_TRUE(catalog->BuildAllStatistics(stats).ok());
  return catalog;
}

Plan MustFinalize(std::unique_ptr<PlanNode> root, const Catalog& catalog) {
  auto plan_or = FinalizePlan(std::move(root), catalog);
  EXPECT_TRUE(plan_or.ok()) << plan_or.status().ToString();
  return std::move(plan_or).value();
}

ExecutionResult MustExecute(const Plan& plan, Catalog* catalog,
                            ExecOptions options) {
  auto result = ExecuteQuery(plan, catalog, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

std::vector<Row> MustExecuteRows(const Plan& plan, Catalog* catalog,
                                 ExecOptions options) {
  std::vector<Row> rows;
  auto result = ExecuteQueryWithSink(
      plan, catalog, options, [&rows](const Row& r) { rows.push_back(r); });
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return rows;
}

std::string SnapshotBytes(const ProfileSnapshot& snapshot) {
  PollResponse response;
  response.has_snapshot = true;
  response.snapshot = snapshot;
  std::string frame;
  EncodePollResponse(response, &frame);
  return frame;
}

}  // namespace testing
}  // namespace lqs
