#include <algorithm>

#include "exec/cost_constants.h"
#include "exec/operators.h"

namespace lqs {

namespace {

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
// HashAggregateOp
// ---------------------------------------------------------------------------

size_t HashAggregateOp::KeyHash::operator()(
    const std::vector<Value>& key) const {
  return HashKey(key);
}

bool HashAggregateOp::KeyEq::operator()(const std::vector<Value>& a,
                                        const std::vector<Value>& b) const {
  return KeysEqual(a, b);
}

HashAggregateOp::HashAggregateOp(const PlanNode& node, ExecContext* ctx)
    : Operator(node, ctx) {}

Status HashAggregateOp::OpenImpl() {
  input_done_ = false;
  groups_.clear();
  output_.clear();
  cursor_ = 0;
  return child(0)->Open();
}

Status HashAggregateOp::RebindImpl() {
  // Uncorrelated aggregate under a NL join: replay the computed groups.
  cursor_ = 0;
  return Status::OK();
}

Status HashAggregateOp::InputPhase() {
  // Blocking input phase (§4.5, Figure 10): all input consumed before the
  // first group is emitted.
  Row row;
  while (true) {
    auto got = child(0)->GetNext(&row);
    if (!got.ok()) return got.status();
    if (!got.value()) break;
    ChargeCpu(cost::kCpuAggInputRowMs);
    std::vector<Value> key;
    key.reserve(node_.group_columns.size());
    for (int c : node_.group_columns) key.push_back(row[c]);
    std::vector<Accumulator>& accs = groups_[key];
    if (accs.empty()) accs.resize(node_.aggregates.size());
    for (size_t i = 0; i < node_.aggregates.size(); ++i) {
      const AggSpec& spec = node_.aggregates[i];
      Accumulator& acc = accs[i];
      acc.count++;
      if (spec.column >= 0) {
        const Value& v = row[spec.column];
        acc.sum += v.AsDouble();
        if (!acc.has_value || v.Compare(acc.min) < 0) acc.min = v;
        if (!acc.has_value || v.Compare(acc.max) > 0) acc.max = v;
        acc.has_value = true;
      }
    }
  }
  if (groups_.size() > cost::kMemoryRows) {
    const double pages = static_cast<double>(groups_.size()) /
                         static_cast<double>(kRowsPerPage);
    const double total_ms = 2.0 * pages * cost::kIoSpillPageMs;
    const int chunks = std::max(1, static_cast<int>(pages / 16));
    for (int i = 0; i < chunks; ++i) ChargeIo(total_ms / chunks);
  }
  // Scalar aggregate over empty input still yields one row.
  if (groups_.empty() && node_.group_columns.empty()) {
    groups_[{}] = std::vector<Accumulator>(node_.aggregates.size());
  }
  output_.reserve(groups_.size());
  for (const auto& [key, accs] : groups_) {
    output_.push_back(FinalizeGroup(key, accs));
  }
  input_done_ = true;
  return Status::OK();
}

Row HashAggregateOp::FinalizeGroup(
    const std::vector<Value>& key,
    const std::vector<Accumulator>& accs) const {
  Row out;
  out.reserve(key.size() + accs.size());
  out.insert(out.end(), key.begin(), key.end());
  for (size_t i = 0; i < accs.size(); ++i) {
    const AggSpec& spec = node_.aggregates[i];
    const Accumulator& acc = accs[i];
    switch (spec.func) {
      case AggSpec::Func::kCount:
        out.push_back(Value(acc.count));
        break;
      case AggSpec::Func::kSum:
        out.push_back(Value(acc.sum));
        break;
      case AggSpec::Func::kAvg:
        out.push_back(Value(acc.count == 0 ? 0.0 : acc.sum / acc.count));
        break;
      case AggSpec::Func::kMin:
        out.push_back(acc.min);
        break;
      case AggSpec::Func::kMax:
        out.push_back(acc.max);
        break;
    }
  }
  return out;
}

StatusOr<bool> HashAggregateOp::GetNextImpl(Row* out) {
  if (!input_done_) LQS_RETURN_IF_ERROR(InputPhase());
  if (cursor_ >= output_.size()) return false;
  ChargeCpu(cost::kCpuAggOutputRowMs);
  *out = output_[cursor_++];
  return true;
}

// ---------------------------------------------------------------------------
// StreamAggregateOp
// ---------------------------------------------------------------------------

StreamAggregateOp::StreamAggregateOp(const PlanNode& node, ExecContext* ctx)
    : Operator(node, ctx) {}

Status StreamAggregateOp::OpenImpl() {
  input_eof_ = false;
  group_active_ = false;
  emitted_empty_scalar_ = false;
  has_pending_ = false;
  return child(0)->Open();
}

void StreamAggregateOp::Accumulate(const Row& row) {
  for (size_t i = 0; i < node_.aggregates.size(); ++i) {
    const AggSpec& spec = node_.aggregates[i];
    Accumulator& acc = accs_[i];
    acc.count++;
    if (spec.column >= 0) {
      const Value& v = row[spec.column];
      acc.sum += v.AsDouble();
      if (!acc.has_value || v.Compare(acc.min) < 0) acc.min = v;
      if (!acc.has_value || v.Compare(acc.max) > 0) acc.max = v;
      acc.has_value = true;
    }
  }
}

Row StreamAggregateOp::FinalizeGroup() const {
  Row out;
  out.reserve(group_key_.size() + accs_.size());
  out.insert(out.end(), group_key_.begin(), group_key_.end());
  for (size_t i = 0; i < accs_.size(); ++i) {
    const AggSpec& spec = node_.aggregates[i];
    const Accumulator& acc = accs_[i];
    switch (spec.func) {
      case AggSpec::Func::kCount:
        out.push_back(Value(acc.count));
        break;
      case AggSpec::Func::kSum:
        out.push_back(Value(acc.sum));
        break;
      case AggSpec::Func::kAvg:
        out.push_back(Value(acc.count == 0 ? 0.0 : acc.sum / acc.count));
        break;
      case AggSpec::Func::kMin:
        out.push_back(acc.min);
        break;
      case AggSpec::Func::kMax:
        out.push_back(acc.max);
        break;
    }
  }
  return out;
}

StatusOr<bool> StreamAggregateOp::GetNextImpl(Row* out) {
  // Pipelined over group-sorted input: emit a group when its key changes.
  while (true) {
    if (input_eof_) {
      if (group_active_) {
        group_active_ = false;
        *out = FinalizeGroup();
        return true;
      }
      if (node_.group_columns.empty() && !emitted_empty_scalar_) {
        // Scalar aggregate over empty input yields one row.
        emitted_empty_scalar_ = true;
        group_key_.clear();
        accs_.assign(node_.aggregates.size(), Accumulator());
        *out = FinalizeGroup();
        return true;
      }
      return false;
    }
    Row row;
    if (has_pending_) {
      row = std::move(pending_);
      has_pending_ = false;
    } else {
      auto got = child(0)->GetNext(&row);
      if (!got.ok()) return got.status();
      if (!got.value()) {
        input_eof_ = true;
        continue;
      }
      ChargeCpu(cost::kCpuStreamAggRowMs);
    }
    std::vector<Value> key;
    key.reserve(node_.group_columns.size());
    for (int c : node_.group_columns) key.push_back(row[c]);
    if (!group_active_) {
      group_active_ = true;
      emitted_empty_scalar_ = true;  // input was non-empty
      group_key_ = std::move(key);
      accs_.assign(node_.aggregates.size(), Accumulator());
      Accumulate(row);
      continue;
    }
    if (KeysEqual(key, group_key_)) {
      Accumulate(row);
      continue;
    }
    // Key changed: emit the finished group, stash this row.
    pending_ = std::move(row);
    has_pending_ = true;
    Row finished = FinalizeGroup();
    group_key_.clear();
    for (int c : node_.group_columns) group_key_.push_back(pending_[c]);
    accs_.assign(node_.aggregates.size(), Accumulator());
    Accumulate(pending_);
    has_pending_ = false;
    *out = std::move(finished);
    return true;
  }
}

}  // namespace lqs
