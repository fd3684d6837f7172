#ifndef LQS_EXEC_EXEC_CONTEXT_H_
#define LQS_EXEC_EXEC_CONTEXT_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/value.h"
#include "common/virtual_clock.h"
#include "dmv/profiler.h"
#include "dmv/query_profile.h"
#include "storage/catalog.h"

namespace lqs {

/// Runtime knobs for one query execution.
struct ExecOptions {
  /// DMV polling interval for the profiler (the SSMS 500 ms analogue).
  double snapshot_interval_ms = 500.0;
  /// Child rows an Exchange pulls per row it emits while the child is
  /// active — the producer-runs-ahead factor behind the Figure 8 lag.
  uint64_t exchange_pull_batch = 8;
};

/// Shared state for one query execution: the virtual clock, live DMV
/// counters, bitmap-filter registry, and the correlated-parameter binding
/// stack for nested-loops inners.
class ExecContext {
 public:
  ExecContext(Catalog* catalog, ExecOptions options, int num_nodes)
      : catalog_(catalog), options_(std::move(options)) {
    live_.resize(num_nodes);
  }

  Catalog* catalog() { return catalog_; }
  const ExecOptions& options() const { return options_; }
  VirtualClock& clock() { return clock_; }
  double now_ms() const { return clock_.NowMs(); }

  std::vector<OperatorProfile>& live_profiles() { return live_; }
  OperatorProfile& profile(int node_id) { return live_[node_id]; }

  void set_profiler(Profiler* profiler) { profiler_ = profiler; }

  /// Charges virtual CPU and/or I/O time to `node_id`, advances the clock,
  /// updates activity timestamps, and gives the profiler a chance to poll.
  void Charge(int node_id, double cpu_ms, double io_ms) {
    OperatorProfile& p = live_[node_id];
    if (p.open_time_ms < 0) p.open_time_ms = clock_.NowMs();
    clock_.AdvanceMs(cpu_ms + io_ms);
    p.cpu_time_ms += cpu_ms;
    p.io_time_ms += io_ms;
    p.last_active_ms = clock_.NowMs();
    if (profiler_ != nullptr) profiler_->MaybePoll(clock_.NowMs());
  }

  // --- Bitmap filters (§4.3) ---
  /// Called by BitmapCreate while consuming its input.
  void BitmapInsert(int creator_node_id, const Value& key) {
    bitmaps_[creator_node_id].insert(key.Hash());
  }
  /// Probed by scans with bitmap_probe_column set.
  bool BitmapMayContain(int creator_node_id, const Value& key) const {
    auto it = bitmaps_.find(creator_node_id);
    if (it == bitmaps_.end()) return true;  // bitmap not built: pass all
    return it->second.count(key.Hash()) > 0;
  }

  // --- Correlated outer-row bindings (Nested Loops inners) ---
  void PushOuterRow(const Row* row) { outer_rows_.push_back(row); }
  void PopOuterRow() { outer_rows_.pop_back(); }
  /// Innermost binding, or nullptr outside any NL inner.
  const Row* outer_row() const {
    return outer_rows_.empty() ? nullptr : outer_rows_.back();
  }

 private:
  Catalog* catalog_;
  ExecOptions options_;
  VirtualClock clock_;
  Profiler* profiler_ = nullptr;
  std::vector<OperatorProfile> live_;
  std::unordered_map<int, std::unordered_set<size_t>> bitmaps_;
  std::vector<const Row*> outer_rows_;
};

}  // namespace lqs

#endif  // LQS_EXEC_EXEC_CONTEXT_H_
