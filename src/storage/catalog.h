#ifndef LQS_STORAGE_CATALOG_H_
#define LQS_STORAGE_CATALOG_H_

#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/statusor.h"
#include "storage/columnstore.h"
#include "storage/statistics.h"
#include "storage/table.h"

namespace lqs {

/// Options controlling how statistics are built; the knobs that determine how
/// wrong the optimizer's cardinality estimates are (DESIGN.md §2).
struct StatisticsOptions {
  /// Build histograms from this fraction of rows (stale/sampled stats).
  double sample_rate = 1.0;
  uint64_t seed = 7;
};

/// Database catalog: owns tables, columnstore indexes, and statistics.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Registers a table; fails if the name already exists.
  Status AddTable(std::unique_ptr<Table> table);

  /// nullptr if absent.
  const Table* GetTable(const std::string& name) const;
  Table* GetMutableTable(const std::string& name);

  /// Builds (or rebuilds) a nonclustered columnstore index over all columns
  /// of `table_name`.
  Status BuildColumnstore(const std::string& table_name);
  const ColumnstoreIndex* GetColumnstore(const std::string& table_name) const;

  /// Builds statistics for every column of every table.
  Status BuildAllStatistics(const StatisticsOptions& options);
  /// nullptr if statistics were never built for the table.
  const TableStatistics* GetStatistics(const std::string& table_name) const;

  const std::map<std::string, std::unique_ptr<Table>>& tables() const {
    return tables_;
  }

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::map<std::string, std::unique_ptr<ColumnstoreIndex>> columnstores_;
  std::map<std::string, std::unique_ptr<TableStatistics>> statistics_;
};

}  // namespace lqs

#endif  // LQS_STORAGE_CATALOG_H_
