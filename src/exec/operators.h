#ifndef LQS_EXEC_OPERATORS_H_
#define LQS_EXEC_OPERATORS_H_

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "exec/operator.h"
#include "storage/columnstore.h"
#include "storage/table.h"

namespace lqs {

// ---------------------------------------------------------------------------
// Leaf access paths (scan_ops.cc)
// ---------------------------------------------------------------------------

/// Heap scan (Table Scan) and Clustered Index Scan (the heap is kept in
/// clustered order, so both iterate rows in storage order). Supports pushed
/// predicates and bitmap probes evaluated "inside the storage engine" (§4.3).
class TableScanOp : public Operator {
 public:
  TableScanOp(const PlanNode& node, ExecContext* ctx);

 protected:
  Status OpenImpl() override;
  StatusOr<bool> GetNextImpl(Row* out) override;
  Status ResetImpl() override;

 private:
  const Table* table_ = nullptr;
  uint64_t next_row_ = 0;
};

/// Range scan over the clustered order of a table (Clustered Index Seek).
/// Seek bounds may reference the enclosing NL join's outer row.
class ClusteredIndexSeekOp : public Operator {
 public:
  ClusteredIndexSeekOp(const PlanNode& node, ExecContext* ctx);

 protected:
  Status OpenImpl() override;
  StatusOr<bool> GetNextImpl(Row* out) override;
  Status ResetImpl() override;

 private:
  const Table* table_ = nullptr;
  uint64_t next_row_ = 0;
  uint64_t end_row_ = 0;
  uint64_t last_page_ = UINT64_MAX;
};

/// Ordered scan over a secondary index; outputs full base rows in key order
/// (treated as covering). Used to feed Merge Joins without an explicit sort.
class IndexScanOp : public Operator {
 public:
  IndexScanOp(const PlanNode& node, ExecContext* ctx);

 protected:
  Status OpenImpl() override;
  StatusOr<bool> GetNextImpl(Row* out) override;
  Status ResetImpl() override;

 private:
  const Table* table_ = nullptr;
  const OrderedIndex* index_ = nullptr;
  uint64_t next_entry_ = 0;
};

/// Nonclustered Index Seek: equality/range lookup returning (key, rid) pairs.
class IndexSeekOp : public Operator {
 public:
  IndexSeekOp(const PlanNode& node, ExecContext* ctx);

 protected:
  Status OpenImpl() override;
  StatusOr<bool> GetNextImpl(Row* out) override;
  Status ResetImpl() override;

 private:
  const Table* table_ = nullptr;
  const OrderedIndex* index_ = nullptr;
  uint64_t next_entry_ = 0;
  uint64_t end_entry_ = 0;
  uint64_t last_page_ = UINT64_MAX;
};

/// Fetches one base row per outer binding, addressed by a rid column of the
/// outer row (the lookup side of a bookmark-lookup plan).
class RidLookupOp : public Operator {
 public:
  RidLookupOp(const PlanNode& node, ExecContext* ctx);

 protected:
  Status OpenImpl() override;
  StatusOr<bool> GetNextImpl(Row* out) override;
  Status ResetImpl() override;

 private:
  const Table* table_ = nullptr;
  bool done_ = false;
};

/// Emits the plan's constant rows.
class ConstantScanOp : public Operator {
 public:
  ConstantScanOp(const PlanNode& node, ExecContext* ctx);

 protected:
  Status OpenImpl() override;
  StatusOr<bool> GetNextImpl(Row* out) override;
  Status ResetImpl() override;

 private:
  size_t next_ = 0;
};

/// Batch-mode scan over a columnstore index (§4.7): processes one column
/// segment at a time, applies segment elimination for pushed predicates, and
/// maintains segment_read_count / segment_total_count in the DMV profile.
class ColumnstoreScanOp : public Operator {
 public:
  ColumnstoreScanOp(const PlanNode& node, ExecContext* ctx);

 protected:
  Status OpenImpl() override;
  StatusOr<bool> GetNextImpl(Row* out) override;

 private:
  const Table* table_ = nullptr;
  const ColumnstoreIndex* index_ = nullptr;
  uint64_t next_segment_ = 0;
  std::deque<Row> batch_;
  // Pushed predicate decomposed for segment elimination (when possible).
  bool eliminable_ = false;
  int elim_column_ = -1;
  CompareOp elim_op_ = CompareOp::kEq;
  Value elim_literal_;
};

// ---------------------------------------------------------------------------
// Row-mode unary operators (row_ops.cc)
// ---------------------------------------------------------------------------

class FilterOp : public Operator {
 public:
  FilterOp(const PlanNode& node, ExecContext* ctx);

 protected:
  Status OpenImpl() override;
  StatusOr<bool> GetNextImpl(Row* out) override;
};

class ComputeScalarOp : public Operator {
 public:
  ComputeScalarOp(const PlanNode& node, ExecContext* ctx);

 protected:
  Status OpenImpl() override;
  StatusOr<bool> GetNextImpl(Row* out) override;
};

class TopOp : public Operator {
 public:
  TopOp(const PlanNode& node, ExecContext* ctx);

 protected:
  Status OpenImpl() override;
  StatusOr<bool> GetNextImpl(Row* out) override;
  Status ResetImpl() override;

 private:
  int64_t emitted_ = 0;
};

/// Detects group boundaries over sorted input (pass-through for progress
/// purposes; SQL Server uses it under ranking functions).
class SegmentOp : public Operator {
 public:
  SegmentOp(const PlanNode& node, ExecContext* ctx);

 protected:
  Status OpenImpl() override;
  StatusOr<bool> GetNextImpl(Row* out) override;
  Status ResetImpl() override;

 private:
  bool has_prev_ = false;
  Row prev_;
};

class ConcatenationOp : public Operator {
 public:
  ConcatenationOp(const PlanNode& node, ExecContext* ctx);

 protected:
  Status OpenImpl() override;
  StatusOr<bool> GetNextImpl(Row* out) override;
  Status ResetImpl() override;

 private:
  size_t current_child_ = 0;
};

/// Populates a semi-join-reduction bitmap (consumed by scans via
/// ExecContext::BitmapMayContain) while passing its input through. Sits on
/// the build side of a Hash Join (§4.3, Figure 6).
class BitmapCreateOp : public Operator {
 public:
  BitmapCreateOp(const PlanNode& node, ExecContext* ctx);

 protected:
  Status OpenImpl() override;
  StatusOr<bool> GetNextImpl(Row* out) override;
};

// ---------------------------------------------------------------------------
// Sorts (sort_ops.cc) — blocking (§4.5)
// ---------------------------------------------------------------------------

/// Full sort. Consumes its input in an input phase (first GetNext), charges
/// n·log2(n) comparison CPU plus spill I/O when the input exceeds memory,
/// then streams sorted output.
class SortOp : public Operator {
 public:
  SortOp(const PlanNode& node, ExecContext* ctx);

 protected:
  Status OpenImpl() override;
  StatusOr<bool> GetNextImpl(Row* out) override;
  Status RebindImpl() override;

 private:
  Status ConsumeAndSort();
  bool input_done_ = false;
  std::vector<Row> rows_;
  size_t cursor_ = 0;
  // Distinct Sort: emit only the first row of each sort-key group.
  bool distinct_;
};

/// Top-N sort: bounded heap over the input, emits N smallest.
class TopNSortOp : public Operator {
 public:
  TopNSortOp(const PlanNode& node, ExecContext* ctx);

 protected:
  Status OpenImpl() override;
  StatusOr<bool> GetNextImpl(Row* out) override;
  Status RebindImpl() override;

 private:
  bool input_done_ = false;
  std::vector<Row> rows_;
  size_t cursor_ = 0;
};

// ---------------------------------------------------------------------------
// Joins (join_ops.cc)
// ---------------------------------------------------------------------------

/// Hash Match join. children[0] = build ("outer" in Appendix A),
/// children[1] = probe ("inner"). Blocking w.r.t. the build input; the probe
/// side streams. Supports all JoinKind values.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(const PlanNode& node, ExecContext* ctx);

 protected:
  Status OpenImpl() override;
  StatusOr<bool> GetNextImpl(Row* out) override;
  Status RebindImpl() override;

 private:
  struct KeyHash {
    size_t operator()(const std::vector<Value>& key) const;
  };
  struct KeyEq {
    bool operator()(const std::vector<Value>& a,
                    const std::vector<Value>& b) const;
  };
  struct BuildGroup {
    std::vector<Row> rows;
    std::vector<bool> matched;  // for semi/anti/full-outer
  };

  Status BuildPhase();
  std::vector<Value> MakeKey(const Row& row, const std::vector<int>& cols);

  bool build_done_ = false;
  std::unordered_map<std::vector<Value>, BuildGroup, KeyHash, KeyEq> table_;
  // Probe state.
  bool probe_done_ = false;
  Row probe_row_;
  BuildGroup* current_group_ = nullptr;
  size_t group_pos_ = 0;
  // Post-probe emission of unmatched build rows (semi/anti/full outer).
  bool emitting_build_ = false;
  decltype(table_)::iterator build_it_;
  size_t build_pos_ = 0;
};

/// Merge Join over inputs sorted on the join keys; buffers one inner key
/// group to support many-to-many matches. Supports inner, left outer and
/// left semi kinds.
class MergeJoinOp : public Operator {
 public:
  MergeJoinOp(const PlanNode& node, ExecContext* ctx);

 protected:
  Status OpenImpl() override;
  StatusOr<bool> GetNextImpl(Row* out) override;
  Status RebindImpl() override;

 private:
  int CompareKeys(const Row& outer, const Row& inner) const;
  StatusOr<bool> AdvanceOuter();
  StatusOr<bool> AdvanceInner();

  bool outer_valid_ = false;
  bool inner_valid_ = false;
  bool inner_eof_ = false;
  Row outer_row_;
  Row inner_row_;
  std::vector<Row> inner_group_;  // buffered rows equal to current group key
  bool group_loaded_ = false;
  size_t group_pos_ = 0;
  bool outer_matched_ = false;
};

/// Nested Loops join; children[1] is re-opened (Rebind) per outer row, with
/// the outer row bound as a correlated parameter. With buffered_outer set,
/// prefetches batches of outer rows first — the §4.4 semi-blocking
/// behaviour that breaks naive driver-node assumptions.
class NestedLoopJoinOp : public Operator {
 public:
  NestedLoopJoinOp(const PlanNode& node, ExecContext* ctx);

 protected:
  Status OpenImpl() override;
  StatusOr<bool> GetNextImpl(Row* out) override;
  Status CloseImpl() override;
  Status RebindImpl() override;

 private:
  StatusOr<bool> NextOuterRow();
  Status StartInner();
  void FinishInner();

  bool outer_eof_ = false;
  std::deque<Row> outer_buffer_;
  Row outer_row_;
  bool inner_ever_opened_ = false;  // inner Open deferred to first binding
  bool inner_open_ = false;  // binding pushed for current outer row
  bool outer_matched_ = false;
};

// ---------------------------------------------------------------------------
// Aggregation (agg_ops.cc)
// ---------------------------------------------------------------------------

/// Hash Match aggregate: blocking — consumes the whole input into a hash of
/// accumulators, then streams groups (the Figure 10/11 subject).
class HashAggregateOp : public Operator {
 public:
  HashAggregateOp(const PlanNode& node, ExecContext* ctx);

 protected:
  Status OpenImpl() override;
  StatusOr<bool> GetNextImpl(Row* out) override;
  Status RebindImpl() override;

 private:
  struct KeyHash {
    size_t operator()(const std::vector<Value>& key) const;
  };
  struct KeyEq {
    bool operator()(const std::vector<Value>& a,
                    const std::vector<Value>& b) const;
  };
  struct Accumulator {
    int64_t count = 0;
    double sum = 0;
    bool has_value = false;
    Value min;
    Value max;
  };

  Status InputPhase();
  Row FinalizeGroup(const std::vector<Value>& key,
                    const std::vector<Accumulator>& accs) const;

  bool input_done_ = false;
  std::unordered_map<std::vector<Value>, std::vector<Accumulator>, KeyHash,
                     KeyEq>
      groups_;
  std::vector<Row> output_;
  size_t cursor_ = 0;
};

/// Stream Aggregate over group-sorted input: pipelined, emits each group as
/// it completes.
class StreamAggregateOp : public Operator {
 public:
  StreamAggregateOp(const PlanNode& node, ExecContext* ctx);

 protected:
  Status OpenImpl() override;
  StatusOr<bool> GetNextImpl(Row* out) override;

 private:
  struct Accumulator {
    int64_t count = 0;
    double sum = 0;
    bool has_value = false;
    Value min;
    Value max;
  };
  void Accumulate(const Row& row);
  Row FinalizeGroup() const;

  bool input_eof_ = false;
  bool group_active_ = false;
  bool emitted_empty_scalar_ = false;
  std::vector<Value> group_key_;
  std::vector<Accumulator> accs_;
  Row pending_;
  bool has_pending_ = false;
};

// ---------------------------------------------------------------------------
// Exchange / Parallelism (exchange_ops.cc) — semi-blocking (§4.4)
// ---------------------------------------------------------------------------

/// All three Parallelism variants (Gather/Repartition/Distribute Streams):
/// pulls its child in bursts into a buffer of up to kExchangeBufferRows rows
/// and emits one buffered row per GetNext, with higher per-row overhead than
/// storage scans — reproducing the Figure 8 child/exchange K_i divergence.
class ExchangeOp : public Operator {
 public:
  ExchangeOp(const PlanNode& node, ExecContext* ctx);

 protected:
  Status OpenImpl() override;
  StatusOr<bool> GetNextImpl(Row* out) override;

 private:
  bool child_eof_ = false;
  std::deque<Row> buffer_;
};

// ---------------------------------------------------------------------------
// Spools (spool_ops.cc)
// ---------------------------------------------------------------------------

/// Eager (Table) Spool: blocking cache of the whole input; rebinds replay
/// the cache without re-executing the child.
class EagerSpoolOp : public Operator {
 public:
  EagerSpoolOp(const PlanNode& node, ExecContext* ctx);

 protected:
  Status OpenImpl() override;
  StatusOr<bool> GetNextImpl(Row* out) override;
  Status RebindImpl() override;

 private:
  bool cached_ = false;
  std::vector<Row> cache_;
  size_t cursor_ = 0;
};

/// Lazy Spool: caches rows as first read; rebinds replay what is cached and
/// continue pulling the child if it was not exhausted.
class LazySpoolOp : public Operator {
 public:
  LazySpoolOp(const PlanNode& node, ExecContext* ctx);

 protected:
  Status OpenImpl() override;
  StatusOr<bool> GetNextImpl(Row* out) override;
  Status RebindImpl() override;

 private:
  bool child_eof_ = false;
  std::vector<Row> cache_;
  size_t cursor_ = 0;
};

}  // namespace lqs

#endif  // LQS_EXEC_OPERATORS_H_
