#include "storage/catalog.h"

namespace lqs {

Status Catalog::AddTable(std::unique_ptr<Table> table) {
  const std::string& name = table->name();
  if (tables_.count(name) > 0) {
    return Status::InvalidArgument("table already exists: " + name);
  }
  tables_[name] = std::move(table);
  return Status::OK();
}

const Table* Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Table* Catalog::GetMutableTable(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Status Catalog::BuildColumnstore(const std::string& table_name) {
  const Table* table = GetTable(table_name);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + table_name);
  }
  columnstores_[table_name] = std::make_unique<ColumnstoreIndex>(
      "ncci_" + table_name, table);
  return Status::OK();
}

const ColumnstoreIndex* Catalog::GetColumnstore(
    const std::string& table_name) const {
  auto it = columnstores_.find(table_name);
  return it == columnstores_.end() ? nullptr : it->second.get();
}

Status Catalog::BuildAllStatistics(const StatisticsOptions& options) {
  for (auto& [name, table] : tables_) {
    statistics_[name] = std::make_unique<TableStatistics>(
        *table, options.sample_rate, options.seed);
  }
  return Status::OK();
}

const TableStatistics* Catalog::GetStatistics(
    const std::string& table_name) const {
  auto it = statistics_.find(table_name);
  return it == statistics_.end() ? nullptr : it->second.get();
}

}  // namespace lqs
