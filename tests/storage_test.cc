#include <cmath>

#include "gtest/gtest.h"

#include "common/rng.h"
#include "storage/catalog.h"
#include "storage/columnstore.h"
#include "storage/statistics.h"
#include "storage/table.h"
#include "tests/test_util.h"

namespace lqs {
namespace testing {
namespace {

std::unique_ptr<Table> MakeTable(int64_t rows) {
  auto t = std::make_unique<Table>(
      "t", Schema({{"k", DataType::kInt64}, {"g", DataType::kInt64}}));
  for (int64_t i = 0; i < rows; ++i) {
    t->AppendRow(Row{Value(rows - 1 - i), Value(i % 7)});
  }
  return t;
}

TEST(SchemaTest, ColumnLookup) {
  Schema s({{"a", DataType::kInt64}, {"b", DataType::kDouble}});
  EXPECT_EQ(s.ColumnIndex("a"), 0);
  EXPECT_EQ(s.ColumnIndex("b"), 1);
  EXPECT_EQ(s.ColumnIndex("zz"), -1);
  EXPECT_EQ(s.ToString(), "(a INT64, b DOUBLE)");
}

TEST(TableTest, PageAccounting) {
  auto t = MakeTable(1000);
  EXPECT_EQ(t->num_rows(), 1000u);
  EXPECT_EQ(t->num_pages(), (1000 + kRowsPerPage - 1) / kRowsPerPage);
}

TEST(TableTest, ClusterBySortsRows) {
  auto t = MakeTable(500);
  ASSERT_OK(t->ClusterBy(0));
  EXPECT_EQ(t->clustered_column(), 0);
  for (uint64_t i = 1; i < t->num_rows(); ++i) {
    EXPECT_LE(t->row(i - 1)[0].AsInt(), t->row(i)[0].AsInt());
  }
}

TEST(TableTest, ClusterByRejectsBadColumn) {
  auto t = MakeTable(10);
  EXPECT_FALSE(t->ClusterBy(5).ok());
}

TEST(TableTest, IndexSeekExactAndRange) {
  auto t = MakeTable(700);
  ASSERT_OK(t->BuildIndex("ix_g", 1));
  const OrderedIndex* ix = t->GetIndex("ix_g");
  ASSERT_NE(ix, nullptr);
  auto range = ix->Seek(Value(int64_t{3}));
  EXPECT_EQ(range.end - range.begin, 100u);  // 700 / 7
  for (uint64_t e = range.begin; e < range.end; ++e) {
    EXPECT_EQ(t->row(ix->row_id_at(e))[1].AsInt(), 3);
  }
  auto wide = ix->SeekRange(Value(int64_t{2}), Value(int64_t{4}));
  EXPECT_EQ(wide.end - wide.begin, 300u);
  auto empty = ix->Seek(Value(int64_t{99}));
  EXPECT_EQ(empty.begin, empty.end);
}

TEST(TableTest, DuplicateIndexNameRejected) {
  auto t = MakeTable(10);
  ASSERT_OK(t->BuildIndex("ix", 0));
  EXPECT_FALSE(t->BuildIndex("ix", 1).ok());
  EXPECT_NE(t->FindIndexOnColumn(0), nullptr);
  EXPECT_EQ(t->FindIndexOnColumn(1), nullptr);
}

TEST(ColumnstoreTest, SegmentMetadata) {
  auto t = MakeTable(10000);
  ASSERT_OK(t->ClusterBy(0));
  ColumnstoreIndex csi("csi", t.get());
  EXPECT_EQ(csi.num_segments(), (10000 + kRowsPerSegment - 1) / kRowsPerSegment);
  uint64_t total = 0;
  for (uint64_t s = 0; s < csi.num_segments(); ++s) {
    const SegmentMeta& meta = csi.segment(0, s);
    total += meta.num_rows;
    // Clustered on k => segment s covers a contiguous key range.
    EXPECT_EQ(meta.min_value.AsInt(), static_cast<int64_t>(meta.first_row));
    EXPECT_EQ(meta.max_value.AsInt(),
              static_cast<int64_t>(meta.first_row + meta.num_rows - 1));
  }
  EXPECT_EQ(total, 10000u);
}

TEST(ColumnstoreTest, SegmentElimination) {
  auto t = MakeTable(10000);
  ASSERT_OK(t->ClusterBy(0));
  ColumnstoreIndex csi("csi", t.get());
  // k < 100 lives entirely in segment 0.
  int kept = 0;
  for (uint64_t s = 0; s < csi.num_segments(); ++s) {
    if (!csi.CanEliminateSegment(0, s, static_cast<int>(CompareOp::kLt),
                                 Value(int64_t{100}))) {
      kept++;
    }
  }
  EXPECT_EQ(kept, 1);
  // Equality beyond the domain eliminates everything.
  for (uint64_t s = 0; s < csi.num_segments(); ++s) {
    EXPECT_TRUE(csi.CanEliminateSegment(0, s, static_cast<int>(CompareOp::kEq),
                                        Value(int64_t{999999})));
  }
  // g spans 0..6 in every segment: nothing eliminable on g.
  for (uint64_t s = 0; s < csi.num_segments(); ++s) {
    EXPECT_FALSE(csi.CanEliminateSegment(1, s, static_cast<int>(CompareOp::kEq),
                                         Value(int64_t{3})));
  }
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

class HistogramTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<Table>(
        "h", Schema({{"u", DataType::kInt64}, {"skew", DataType::kInt64}}));
    Rng rng(3);
    ZipfDistribution zipf(100, 1.0);
    for (int64_t i = 0; i < 20000; ++i) {
      table_->AppendRow(Row{Value(rng.NextInRange(0, 999)),
                            Value(static_cast<int64_t>(zipf.Sample(rng)))});
    }
  }
  std::unique_ptr<Table> table_;
};

TEST_F(HistogramTest, RangeSelectivityOnUniformColumn) {
  auto h = Histogram::Build(*table_, 0, 64);
  // ~25% of values below 250.
  EXPECT_NEAR(h->EstimateSelectivity(CompareOp::kLt, Value(int64_t{250})),
              0.25, 0.04);
  EXPECT_NEAR(h->EstimateSelectivity(CompareOp::kGe, Value(int64_t{250})),
              0.75, 0.04);
  EXPECT_NEAR(h->EstimateSelectivity(CompareOp::kLe, Value(int64_t{999})),
              1.0, 0.01);
  EXPECT_NEAR(h->EstimateSelectivity(CompareOp::kLt, Value(int64_t{0})), 0.0,
              0.01);
}

TEST_F(HistogramTest, EqualitySelectivityReflectsSkew) {
  auto h = Histogram::Build(*table_, 1, 64);
  // Value 1 under z=1 zipf over 100: ~19% of rows. A coarse histogram can
  // smear it across its bucket, but must still rank it far above the tail.
  double top = h->EstimateSelectivity(CompareOp::kEq, Value(int64_t{1}));
  double tail = h->EstimateSelectivity(CompareOp::kEq, Value(int64_t{90}));
  EXPECT_GT(top, 10 * tail);
}

TEST_F(HistogramTest, DistinctEstimateReasonable) {
  auto h0 = Histogram::Build(*table_, 0, 64);
  auto h1 = Histogram::Build(*table_, 1, 64);
  EXPECT_NEAR(h0->EstimateDistinct(), 1000, 150);
  EXPECT_NEAR(h1->EstimateDistinct(), 100, 30);
}

TEST_F(HistogramTest, SampledBuildApproximatesFull) {
  auto full = Histogram::Build(*table_, 0, 64, 1.0);
  auto sampled = Histogram::Build(*table_, 0, 64, 0.1, /*seed=*/5);
  double f = full->EstimateSelectivity(CompareOp::kLt, Value(int64_t{500}));
  double s = sampled->EstimateSelectivity(CompareOp::kLt, Value(int64_t{500}));
  EXPECT_NEAR(f, s, 0.05);
  EXPECT_DOUBLE_EQ(sampled->EstimateTotalRows(), 20000.0);
}

TEST_F(HistogramTest, SelectivityComplementsSumToOne) {
  auto h = Histogram::Build(*table_, 0, 32);
  for (int64_t v : {100, 450, 800}) {
    double lt = h->EstimateSelectivity(CompareOp::kLt, Value(v));
    double ge = h->EstimateSelectivity(CompareOp::kGe, Value(v));
    EXPECT_NEAR(lt + ge, 1.0, 1e-9);
  }
}

TEST(TableStatisticsTest, SmallTablesGetFullscanStats) {
  auto t = std::make_unique<Table>("tiny",
                                   Schema({{"k", DataType::kInt64}}));
  for (int64_t i = 0; i < 25; ++i) t->AppendRow(Row{Value(i)});
  // Even with an aggressive sample rate, the 25-row table is fullscanned.
  TableStatistics stats(*t, /*sample_rate=*/0.01, 7);
  EXPECT_NEAR(stats.column(0).EstimateDistinct(), 25, 1);
}

// ---------------------------------------------------------------------------
// Degree-sequence norms (LpBound inputs)
// ---------------------------------------------------------------------------

TEST(DegreeNormsTest, ExactNormsOnModularColumn) {
  // g = i % 7 over 700 rows: 7 values of degree 100 each.
  auto t = MakeTable(700);
  DegreeNorms norms = ComputeDegreeNorms(*t, 1);
  ASSERT_TRUE(norms.valid);
  EXPECT_DOUBLE_EQ(norms.l1, 700.0);
  EXPECT_DOUBLE_EQ(norms.l2, std::sqrt(7.0 * 100.0 * 100.0));
  EXPECT_DOUBLE_EQ(norms.linf, 100.0);
  EXPECT_DOUBLE_EQ(norms.distinct, 7.0);
}

TEST(DegreeNormsTest, UniqueColumnHasUnitMaxDegree) {
  auto t = MakeTable(700);
  DegreeNorms norms = ComputeDegreeNorms(*t, 0);
  ASSERT_TRUE(norms.valid);
  EXPECT_DOUBLE_EQ(norms.linf, 1.0);
  EXPECT_DOUBLE_EQ(norms.l2, std::sqrt(700.0));
  EXPECT_DOUBLE_EQ(norms.distinct, 700.0);
}

TEST(DegreeNormsTest, EmptyTableIsValidAllZero) {
  Table t("e", Schema({{"k", DataType::kInt64}}));
  DegreeNorms norms = ComputeDegreeNorms(t, 0);
  ASSERT_TRUE(norms.valid);
  EXPECT_DOUBLE_EQ(norms.l1, 0.0);
  EXPECT_DOUBLE_EQ(norms.l2, 0.0);
  EXPECT_DOUBLE_EQ(norms.linf, 0.0);
}

TEST(DegreeNormsTest, StatisticsBuildExactEvenWhenSampled) {
  // Histograms degrade under sampling; the ℓp norms must not — they are the
  // soundness-critical input to the LpBound engine.
  auto t = MakeTable(2000);
  TableStatistics stats(*t, /*sample_rate=*/0.05, 11);
  const DegreeNorms& g = stats.degree_norms(1);
  ASSERT_TRUE(g.valid);
  EXPECT_DOUBLE_EQ(g.linf, std::ceil(2000.0 / 7.0));
  EXPECT_DOUBLE_EQ(g.l1, 2000.0);
}

TEST(CatalogTest, TableLifecycle) {
  Catalog catalog;
  ASSERT_OK(catalog.AddTable(MakeTable(100)));
  EXPECT_NE(catalog.GetTable("t"), nullptr);
  EXPECT_EQ(catalog.GetTable("nope"), nullptr);
  EXPECT_FALSE(catalog.AddTable(MakeTable(5)).ok());  // duplicate name
  EXPECT_FALSE(catalog.BuildColumnstore("nope").ok());
  ASSERT_OK(catalog.BuildColumnstore("t"));
  EXPECT_NE(catalog.GetColumnstore("t"), nullptr);
  ASSERT_OK(catalog.BuildAllStatistics(StatisticsOptions{}));
  EXPECT_NE(catalog.GetStatistics("t"), nullptr);
}

}  // namespace
}  // namespace testing
}  // namespace lqs
