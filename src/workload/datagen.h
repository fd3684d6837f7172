#ifndef LQS_WORKLOAD_DATAGEN_H_
#define LQS_WORKLOAD_DATAGEN_H_

#include <functional>
#include <memory>
#include <string>

#include "common/rng.h"
#include "storage/table.h"

namespace lqs {

/// The generated workloads' foreign-key Zipf skew (the paper uses Z = 1)
/// and the fraction of rows their histograms sample (stale statistics).
inline constexpr double kZipfZ = 1.0;
inline constexpr double kStatsSampleRate = 0.1;

/// Builds a table of `num_rows` rows produced by `gen(row_index, rng)`.
/// Generation is fully deterministic given `seed`.
std::unique_ptr<Table> BuildTable(
    const std::string& name, Schema schema, uint64_t num_rows, uint64_t seed,
    const std::function<Row(uint64_t, Rng&)>& gen);

}  // namespace lqs

#endif  // LQS_WORKLOAD_DATAGEN_H_
