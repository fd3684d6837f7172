#include "exec/cost_constants.h"
#include "exec/operators.h"

namespace lqs {

ExchangeOp::ExchangeOp(const PlanNode& node, ExecContext* ctx)
    : Operator(node, ctx) {}

Status ExchangeOp::OpenImpl() {
  child_eof_ = false;
  buffer_.clear();
  return child(0)->Open();
}

StatusOr<bool> ExchangeOp::GetNextImpl(Row* out) {
  // Semi-blocking behaviour (§4.4, Figures 7/8): producer threads run ahead
  // of the consumer, parking rows in exchange packets. We model this by
  // pulling a batch of child rows per row emitted (the child's K_i runs a
  // large factor ahead of the exchange's K_i while the child is active,
  // then the gap drains), with the buffer capped at kExchangeBufferRows.
  if (!child_eof_ && buffer_.size() < cost::kExchangeBufferRows) {
    const uint64_t batch = ctx_->options().exchange_pull_batch;
    Row row;
    for (uint64_t i = 0; i < batch; ++i) {
      auto got = child(0)->GetNext(&row);
      if (!got.ok()) return got.status();
      if (!got.value()) {
        child_eof_ = true;
        break;
      }
      ChargeCpu(cost::kCpuExchangeBufferRowMs);
      buffer_.push_back(std::move(row));
    }
  }
  if (buffer_.empty()) return false;
  ChargeCpu(cost::kCpuExchangeRowMs);
  *out = std::move(buffer_.front());
  buffer_.pop_front();
  return true;
}

}  // namespace lqs
