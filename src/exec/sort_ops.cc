#include <algorithm>
#include <cmath>

#include "exec/cost_constants.h"
#include "exec/operators.h"

namespace lqs {

namespace {

/// Lexicographic comparison over the configured sort columns.
bool RowLess(const Row& a, const Row& b, const std::vector<int>& cols) {
  for (int c : cols) {
    int cmp = a[c].Compare(b[c]);
    if (cmp != 0) return cmp < 0;
  }
  return false;
}

bool SameKey(const Row& a, const Row& b, const std::vector<int>& cols) {
  for (int c : cols) {
    if (!(a[c] == b[c])) return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// SortOp (Sort and Distinct Sort)
// ---------------------------------------------------------------------------

SortOp::SortOp(const PlanNode& node, ExecContext* ctx)
    : Operator(node, ctx), distinct_(node.type == OpType::kDistinctSort) {}

Status SortOp::OpenImpl() {
  input_done_ = false;
  rows_.clear();
  cursor_ = 0;
  return child(0)->Open();
}

Status SortOp::RebindImpl() {
  // Non-correlated sorts keep their sorted output; a rebind only resets the
  // output cursor.
  cursor_ = 0;
  return Status::OK();
}

Status SortOp::ConsumeAndSort() {
  // Input phase (§4.5): consume everything, charging per-row input CPU. The
  // clock advances row by row so the profiler observes the phase.
  Row row;
  while (true) {
    auto got = child(0)->GetNext(&row);
    if (!got.ok()) return got.status();
    if (!got.value()) break;
    ChargeCpu(cost::kCpuSortInputRowMs);
    rows_.push_back(std::move(row));
  }
  const double n = static_cast<double>(rows_.size());
  if (n > 1) {
    // Comparison work: n * log2(n), charged in chunks so the virtual clock
    // (and the DMV poller) advances during the sort rather than in one jump.
    const double total_ms = n * std::log2(n) * cost::kCpuSortRowMs;
    const int chunks = std::max(1, static_cast<int>(n / 1024));
    for (int i = 0; i < chunks; ++i) ChargeCpu(total_ms / chunks);
  }
  if (rows_.size() > cost::kMemoryRows) {
    // External sort: one spill write + read pass over the run files.
    const double pages =
        static_cast<double>(rows_.size()) / static_cast<double>(kRowsPerPage);
    const double total_ms = 2.0 * pages * cost::kIoSpillPageMs;
    const int chunks = std::max(1, static_cast<int>(pages / 16));
    for (int i = 0; i < chunks; ++i) ChargeIo(total_ms / chunks);
  }
  std::stable_sort(rows_.begin(), rows_.end(),
                   [this](const Row& a, const Row& b) {
                     return RowLess(a, b, node_.sort_columns);
                   });
  input_done_ = true;
  return Status::OK();
}

StatusOr<bool> SortOp::GetNextImpl(Row* out) {
  if (!input_done_) LQS_RETURN_IF_ERROR(ConsumeAndSort());
  while (cursor_ < rows_.size()) {
    const size_t i = cursor_++;
    ChargeCpu(cost::kCpuRowPassMs);
    if (distinct_ && i > 0 &&
        SameKey(rows_[i], rows_[i - 1], node_.sort_columns)) {
      continue;
    }
    *out = rows_[i];
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// TopNSortOp
// ---------------------------------------------------------------------------

TopNSortOp::TopNSortOp(const PlanNode& node, ExecContext* ctx)
    : Operator(node, ctx) {}

Status TopNSortOp::OpenImpl() {
  input_done_ = false;
  rows_.clear();
  cursor_ = 0;
  return child(0)->Open();
}

Status TopNSortOp::RebindImpl() {
  cursor_ = 0;
  return Status::OK();
}

StatusOr<bool> TopNSortOp::GetNextImpl(Row* out) {
  if (!input_done_) {
    const size_t n = node_.top_n < 0 ? SIZE_MAX
                                     : static_cast<size_t>(node_.top_n);
    auto heap_less = [this](const Row& a, const Row& b) {
      // max-heap on the sort key: the root is the current worst of the top N.
      return RowLess(a, b, node_.sort_columns);
    };
    Row row;
    while (true) {
      auto got = child(0)->GetNext(&row);
      if (!got.ok()) return got.status();
      if (!got.value()) break;
      const double heap_depth =
          rows_.empty() ? 1.0 : std::log2(static_cast<double>(rows_.size()) + 1);
      ChargeCpu(cost::kCpuSortInputRowMs + heap_depth * cost::kCpuSortRowMs);
      if (rows_.size() < n) {
        rows_.push_back(std::move(row));
        std::push_heap(rows_.begin(), rows_.end(), heap_less);
      } else if (n > 0 && RowLess(row, rows_.front(), node_.sort_columns)) {
        std::pop_heap(rows_.begin(), rows_.end(), heap_less);
        rows_.back() = std::move(row);
        std::push_heap(rows_.begin(), rows_.end(), heap_less);
      }
    }
    std::sort_heap(rows_.begin(), rows_.end(), heap_less);
    input_done_ = true;
  }
  if (cursor_ >= rows_.size()) return false;
  ChargeCpu(cost::kCpuRowPassMs);
  *out = rows_[cursor_++];
  return true;
}

}  // namespace lqs
