#include "exec/cost_constants.h"
#include "exec/operators.h"

namespace lqs {

namespace {

/// Concatenates outer ++ inner into a fresh row.
Row Combine(const Row& outer, const Row& inner) {
  Row out;
  out.reserve(outer.size() + inner.size());
  out.insert(out.end(), outer.begin(), outer.end());
  out.insert(out.end(), inner.begin(), inner.end());
  return out;
}

/// Pads a preserved row with default values for the missing side (we model
/// SQL NULLs as type-default values; progress estimation is insensitive to
/// the payload of padded rows).
Row PadRight(const Row& preserved, size_t missing_arity) {
  Row out = preserved;
  out.resize(out.size() + missing_arity);
  return out;
}

Row PadLeft(size_t missing_arity, const Row& preserved) {
  Row out(missing_arity);
  out.insert(out.end(), preserved.begin(), preserved.end());
  return out;
}

size_t HashKey(const std::vector<Value>& key) {
  size_t h = 0xcbf29ce484222325ULL;
  for (const Value& v : key) {
    h ^= v.Hash();
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool KeysEqual(const std::vector<Value>& a, const std::vector<Value>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// HashJoinOp
// ---------------------------------------------------------------------------

size_t HashJoinOp::KeyHash::operator()(const std::vector<Value>& key) const {
  return HashKey(key);
}

bool HashJoinOp::KeyEq::operator()(const std::vector<Value>& a,
                                   const std::vector<Value>& b) const {
  return KeysEqual(a, b);
}

HashJoinOp::HashJoinOp(const PlanNode& node, ExecContext* ctx)
    : Operator(node, ctx) {}

Status HashJoinOp::OpenImpl() {
  build_done_ = false;
  probe_done_ = false;
  table_.clear();
  current_group_ = nullptr;
  emitting_build_ = false;
  LQS_RETURN_IF_ERROR(child(0)->Open());
  return child(1)->Open();
}

Status HashJoinOp::RebindImpl() {
  return Status::Unimplemented("rebind of Hash Join");
}

std::vector<Value> HashJoinOp::MakeKey(const Row& row,
                                       const std::vector<int>& cols) {
  std::vector<Value> key;
  key.reserve(cols.size());
  for (int c : cols) key.push_back(row[c]);
  return key;
}

Status HashJoinOp::BuildPhase() {
  // Blocking build phase (§4.5): the first output row requires the entire
  // build (outer) input to be consumed and hashed.
  Row row;
  while (true) {
    auto got = child(0)->GetNext(&row);
    if (!got.ok()) return got.status();
    if (!got.value()) break;
    ChargeCpu(cost::kCpuHashBuildRowMs);
    BuildGroup& group = table_[MakeKey(row, node_.outer_keys)];
    group.rows.push_back(std::move(row));
    group.matched.push_back(false);
  }
  uint64_t built = 0;
  for (const auto& [key, group] : table_) built += group.rows.size();
  if (built > cost::kMemoryRows) {
    const double pages =
        static_cast<double>(built) / static_cast<double>(kRowsPerPage);
    const double total_ms = 2.0 * pages * cost::kIoSpillPageMs;
    const int chunks = std::max(1, static_cast<int>(pages / 16));
    for (int i = 0; i < chunks; ++i) ChargeIo(total_ms / chunks);
  }
  build_done_ = true;
  return Status::OK();
}

StatusOr<bool> HashJoinOp::GetNextImpl(Row* out) {
  if (!build_done_) LQS_RETURN_IF_ERROR(BuildPhase());
  const size_t outer_arity = node_.child(0)->output_schema.num_columns();
  const size_t inner_arity = node_.child(1)->output_schema.num_columns();
  const JoinKind kind = node_.join_kind;
  const double residual_cost =
      node_.predicate == nullptr
          ? 0.0
          : node_.predicate->NodeCount() * cost::kCpuPredNodeMs;

  while (true) {
    // Phase 3: after the probe input is exhausted, emit preserved/semi/anti
    // build rows for the kinds that need them.
    if (emitting_build_) {
      while (build_it_ != table_.end()) {
        BuildGroup& group = build_it_->second;
        while (build_pos_ < group.rows.size()) {
          const size_t i = build_pos_++;
          ChargeCpu(cost::kCpuRowPassMs);
          const bool matched = group.matched[i];
          switch (kind) {
            case JoinKind::kLeftSemi:
              if (matched) {
                *out = group.rows[i];
                return true;
              }
              break;
            case JoinKind::kLeftAnti:
              if (!matched) {
                *out = group.rows[i];
                return true;
              }
              break;
            case JoinKind::kLeftOuter:
            case JoinKind::kFullOuter:
              if (!matched) {
                *out = PadRight(group.rows[i], inner_arity);
                return true;
              }
              break;
            default:
              break;
          }
        }
        ++build_it_;
        build_pos_ = 0;
      }
      return false;
    }

    // Phase 2a: drain matches of the current probe row.
    if (current_group_ != nullptr) {
      bool emitted_probe = false;
      while (group_pos_ < current_group_->rows.size()) {
        const size_t i = group_pos_++;
        ChargeCpu(cost::kCpuHashProbeRowMs + residual_cost);
        Row combined = Combine(current_group_->rows[i], probe_row_);
        if (node_.predicate != nullptr &&
            !node_.predicate->EvalBool(combined, ctx_->outer_row())) {
          continue;
        }
        current_group_->matched[i] = true;
        switch (kind) {
          case JoinKind::kInner:
          case JoinKind::kLeftOuter:
          case JoinKind::kRightOuter:
          case JoinKind::kFullOuter:
            *out = std::move(combined);
            return true;
          case JoinKind::kRightSemi:
            // One output per probe row with >= 1 match.
            current_group_ = nullptr;
            *out = probe_row_;
            return true;
          case JoinKind::kLeftSemi:
          case JoinKind::kLeftAnti:
            // Matches only mark build rows; output happens in phase 3.
            emitted_probe = true;
            break;
        }
      }
      (void)emitted_probe;
      current_group_ = nullptr;
      continue;
    }

    // Phase 2b: pull the next probe row.
    if (probe_done_) return false;
    auto got = child(1)->GetNext(&probe_row_);
    if (!got.ok()) return got.status();
    if (!got.value()) {
      probe_done_ = true;
      if (kind == JoinKind::kLeftSemi || kind == JoinKind::kLeftAnti ||
          kind == JoinKind::kLeftOuter || kind == JoinKind::kFullOuter) {
        emitting_build_ = true;
        build_it_ = table_.begin();
        build_pos_ = 0;
        continue;
      }
      return false;
    }
    ChargeCpu(cost::kCpuHashProbeRowMs);
    auto it = table_.find(MakeKey(probe_row_, node_.inner_keys));
    if (it == table_.end()) {
      if (kind == JoinKind::kRightOuter || kind == JoinKind::kFullOuter) {
        *out = PadLeft(outer_arity, probe_row_);
        return true;
      }
      continue;
    }
    current_group_ = &it->second;
    group_pos_ = 0;
    // Right-outer/full-outer must emit the probe row padded when no build
    // row survives the residual; detect by checking after the group drains.
    if (kind == JoinKind::kRightOuter || kind == JoinKind::kFullOuter) {
      bool any = false;
      if (node_.predicate == nullptr) {
        any = !current_group_->rows.empty();
      } else {
        for (const Row& build_row : current_group_->rows) {
          Row combined = Combine(build_row, probe_row_);
          if (node_.predicate->EvalBool(combined, ctx_->outer_row())) {
            any = true;
            break;
          }
        }
      }
      if (!any) {
        current_group_ = nullptr;
        *out = PadLeft(outer_arity, probe_row_);
        return true;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// MergeJoinOp
// ---------------------------------------------------------------------------

MergeJoinOp::MergeJoinOp(const PlanNode& node, ExecContext* ctx)
    : Operator(node, ctx) {}

Status MergeJoinOp::OpenImpl() {
  outer_valid_ = false;
  inner_valid_ = false;
  inner_eof_ = false;
  group_loaded_ = false;
  inner_group_.clear();
  outer_matched_ = false;
  LQS_RETURN_IF_ERROR(child(0)->Open());
  LQS_RETURN_IF_ERROR(child(1)->Open());
  LQS_ASSIGN_OR_RETURN(outer_valid_, AdvanceOuter());
  LQS_ASSIGN_OR_RETURN(inner_valid_, AdvanceInner());
  return Status::OK();
}

Status MergeJoinOp::RebindImpl() {
  return Status::Unimplemented("rebind of Merge Join");
}

int MergeJoinOp::CompareKeys(const Row& outer, const Row& inner) const {
  for (size_t i = 0; i < node_.outer_keys.size(); ++i) {
    int cmp = outer[node_.outer_keys[i]].Compare(inner[node_.inner_keys[i]]);
    if (cmp != 0) return cmp;
  }
  return 0;
}

StatusOr<bool> MergeJoinOp::AdvanceOuter() {
  auto got = child(0)->GetNext(&outer_row_);
  if (!got.ok()) return got;
  if (got.value()) ChargeCpu(cost::kCpuMergeRowMs);
  return got;
}

StatusOr<bool> MergeJoinOp::AdvanceInner() {
  if (inner_eof_) return false;
  auto got = child(1)->GetNext(&inner_row_);
  if (!got.ok()) return got;
  if (!got.value()) inner_eof_ = true;
  else ChargeCpu(cost::kCpuMergeRowMs);
  return got;
}

StatusOr<bool> MergeJoinOp::GetNextImpl(Row* out) {
  const JoinKind kind = node_.join_kind;
  const size_t inner_arity = node_.child(1)->output_schema.num_columns();
  const double residual_cost =
      node_.predicate == nullptr
          ? 0.0
          : node_.predicate->NodeCount() * cost::kCpuPredNodeMs;

  while (true) {
    if (!outer_valid_) return false;

    if (group_loaded_) {
      // Emit combinations of the current outer row with the buffered inner
      // key group.
      while (group_pos_ < inner_group_.size()) {
        const size_t i = group_pos_++;
        ChargeCpu(cost::kCpuMergeRowMs + residual_cost);
        Row combined = Combine(outer_row_, inner_group_[i]);
        if (node_.predicate != nullptr &&
            !node_.predicate->EvalBool(combined, ctx_->outer_row())) {
          continue;
        }
        outer_matched_ = true;
        switch (kind) {
          case JoinKind::kInner:
          case JoinKind::kLeftOuter:
            *out = std::move(combined);
            return true;
          case JoinKind::kLeftSemi:
            group_pos_ = inner_group_.size();
            *out = outer_row_;
            return true;
          default:
            return Status::Unimplemented("merge join kind");
        }
      }
      // Group drained for this outer row.
      const bool was_matched = outer_matched_;
      Row prev_outer = outer_row_;
      LQS_ASSIGN_OR_RETURN(outer_valid_, AdvanceOuter());
      outer_matched_ = false;
      if (outer_valid_ && !inner_group_.empty() &&
          CompareKeys(outer_row_, inner_group_[0]) == 0) {
        group_pos_ = 0;  // same key: replay the buffered group
      } else {
        group_loaded_ = false;
        inner_group_.clear();
      }
      if (kind == JoinKind::kLeftOuter && !was_matched) {
        *out = PadRight(prev_outer, inner_arity);
        return true;
      }
      continue;
    }

    // Align the two inputs on the next common key.
    if (!inner_valid_) {
      // Inner exhausted: remaining outer rows are unmatched.
      if (kind == JoinKind::kLeftOuter) {
        Row prev_outer = outer_row_;
        LQS_ASSIGN_OR_RETURN(outer_valid_, AdvanceOuter());
        *out = PadRight(prev_outer, inner_arity);
        return true;
      }
      return false;
    }
    int cmp = CompareKeys(outer_row_, inner_row_);
    if (cmp < 0) {
      if (kind == JoinKind::kLeftOuter) {
        Row prev_outer = outer_row_;
        LQS_ASSIGN_OR_RETURN(outer_valid_, AdvanceOuter());
        *out = PadRight(prev_outer, inner_arity);
        return true;
      }
      LQS_ASSIGN_OR_RETURN(outer_valid_, AdvanceOuter());
      continue;
    }
    if (cmp > 0) {
      LQS_ASSIGN_OR_RETURN(inner_valid_, AdvanceInner());
      continue;
    }
    // Equal keys: buffer the inner group.
    inner_group_.clear();
    Row group_head = inner_row_;
    do {
      inner_group_.push_back(inner_row_);
      LQS_ASSIGN_OR_RETURN(inner_valid_, AdvanceInner());
    } while (inner_valid_ && CompareKeys(outer_row_, inner_row_) == 0);
    group_loaded_ = true;
    group_pos_ = 0;
    outer_matched_ = false;
  }
}

// ---------------------------------------------------------------------------
// NestedLoopJoinOp
// ---------------------------------------------------------------------------

NestedLoopJoinOp::NestedLoopJoinOp(const PlanNode& node, ExecContext* ctx)
    : Operator(node, ctx) {}

Status NestedLoopJoinOp::OpenImpl() {
  outer_eof_ = false;
  outer_buffer_.clear();
  inner_ever_opened_ = false;
  inner_open_ = false;
  // The inner child's Open is deferred until the first outer binding exists:
  // correlated seeks evaluate their bounds at Open/Rebind time.
  return child(0)->Open();
}

Status NestedLoopJoinOp::RebindImpl() {
  // Nested NL joins: a rebind restarts the outer side; the inner side is
  // re-bound per outer row as usual.
  if (inner_open_) {
    ctx_->PopOuterRow();
    inner_open_ = false;
  }
  outer_eof_ = false;
  outer_buffer_.clear();
  return child(0)->Rebind();
}

Status NestedLoopJoinOp::CloseImpl() {
  if (inner_open_) {
    ctx_->PopOuterRow();
    inner_open_ = false;
  }
  LQS_RETURN_IF_ERROR(child(0)->Close());
  if (inner_ever_opened_) LQS_RETURN_IF_ERROR(child(1)->Close());
  return Status::OK();
}

StatusOr<bool> NestedLoopJoinOp::NextOuterRow() {
  if (node_.buffered_outer) {
    // §4.4 semi-blocking prefetch: pull a batch of outer rows before probing
    // the inner side. With a prefetch window >= the outer cardinality the
    // entire outer side is consumed before the inner side starts — the
    // pathological case for naive driver-node progress the paper describes.
    if (outer_buffer_.empty() && !outer_eof_) {
      Row row;
      while (outer_buffer_.size() < cost::kNljPrefetchRows) {
        auto got = child(0)->GetNext(&row);
        if (!got.ok()) return got.status();
        if (!got.value()) {
          outer_eof_ = true;
          break;
        }
        ChargeCpu(cost::kCpuRowPassMs);
        outer_buffer_.push_back(std::move(row));
      }
    }
    if (outer_buffer_.empty()) return false;
    outer_row_ = std::move(outer_buffer_.front());
    outer_buffer_.pop_front();
    ChargeCpu(cost::kCpuNljRowMs);
    return true;
  }
  auto got = child(0)->GetNext(&outer_row_);
  if (!got.ok()) return got;
  if (got.value()) ChargeCpu(cost::kCpuNljRowMs);
  return got;
}

Status NestedLoopJoinOp::StartInner() {
  ctx_->PushOuterRow(&outer_row_);
  inner_open_ = true;
  outer_matched_ = false;
  if (!inner_ever_opened_) {
    inner_ever_opened_ = true;
    return child(1)->Open();
  }
  return child(1)->Rebind();
}

void NestedLoopJoinOp::FinishInner() {
  ctx_->PopOuterRow();
  inner_open_ = false;
}

StatusOr<bool> NestedLoopJoinOp::GetNextImpl(Row* out) {
  const JoinKind kind = node_.join_kind;
  const size_t inner_arity = node_.child(1)->output_schema.num_columns();
  const double residual_cost =
      node_.predicate == nullptr
          ? 0.0
          : node_.predicate->NodeCount() * cost::kCpuPredNodeMs;

  while (true) {
    if (inner_open_) {
      Row inner_row;
      auto got = child(1)->GetNext(&inner_row);
      if (!got.ok()) return got.status();
      if (got.value()) {
        ChargeCpu(cost::kCpuNljRowMs + residual_cost);
        Row combined = Combine(outer_row_, inner_row);
        if (node_.predicate != nullptr &&
            !node_.predicate->EvalBool(combined, nullptr)) {
          continue;
        }
        switch (kind) {
          case JoinKind::kInner:
          case JoinKind::kLeftOuter:
            outer_matched_ = true;
            *out = std::move(combined);
            return true;
          case JoinKind::kLeftSemi:
            FinishInner();
            *out = outer_row_;
            return true;
          case JoinKind::kLeftAnti:
            outer_matched_ = true;
            FinishInner();
            continue;  // anti: a match disqualifies this outer row
          default:
            return Status::Unimplemented("nested loops join kind");
        }
      }
      // Inner exhausted for the current outer row.
      const bool was_matched = outer_matched_;
      FinishInner();
      if (kind == JoinKind::kLeftOuter && !was_matched) {
        *out = PadRight(outer_row_, inner_arity);
        return true;
      }
      if (kind == JoinKind::kLeftAnti && !was_matched) {
        *out = outer_row_;
        return true;
      }
      continue;
    }
    auto more = NextOuterRow();
    if (!more.ok()) return more.status();
    if (!more.value()) return false;
    LQS_RETURN_IF_ERROR(StartInner());
  }
}

}  // namespace lqs
