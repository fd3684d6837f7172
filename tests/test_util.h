#ifndef LQS_TESTS_TEST_UTIL_H_
#define LQS_TESTS_TEST_UTIL_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "common/statusor.h"
#include "dmv/query_profile.h"
#include "exec/executor.h"
#include "exec/plan.h"
#include "storage/catalog.h"
#include "workload/plan_builder.h"

namespace lqs {
namespace testing {

#define ASSERT_OK(expr)                                     \
  do {                                                      \
    ::lqs::Status _st = (expr);                             \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                \
  } while (0)

#define EXPECT_OK(expr)                                     \
  do {                                                      \
    ::lqs::Status _st = (expr);                             \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                \
  } while (0)

/// Builds a small deterministic test catalog:
///   t_small(a, b, c):   200 rows, a = 0..199 (clustered), b = a % 10,
///                       c = a % 3; secondary index ix_b on b.
///   t_big(k, fk, v, w): 5000 rows, k = 0..4999 (clustered), fk = k % 200
///                       (joins t_small.a), v = k % 100, w = double;
///                       secondary index ix_fk on fk; columnstore index.
std::unique_ptr<Catalog> MakeTestCatalog();

/// Finalizes `root` against `catalog`, asserting success.
Plan MustFinalize(std::unique_ptr<PlanNode> root, const Catalog& catalog);

/// Runs the plan, asserting success; returns the result.
ExecutionResult MustExecute(const Plan& plan, Catalog* catalog,
                            ExecOptions options = {});

/// Runs the plan collecting all result rows.
std::vector<Row> MustExecuteRows(const Plan& plan, Catalog* catalog,
                                 ExecOptions options = {});

/// The wire frame of a full-snapshot PollResponse carrying `snapshot`
/// (request id 0). Two snapshots encode to the same bytes exactly when
/// every field matches bit for bit, so byte-exact snapshot comparisons go
/// through this.
std::string SnapshotBytes(const ProfileSnapshot& snapshot);

/// FNV-1a over exact bit patterns, for digests that pin output bit for bit:
/// a double hashes by its bits, a vector by its length and then its
/// elements.
class BitHash {
 public:
  void AddWord(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((word >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  }
  void AddDouble(double value) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    AddWord(bits);
  }
  void AddVector(const std::vector<double>& values) {
    AddWord(values.size());
    for (double v : values) AddDouble(v);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;  // FNV-1a offset basis
};

/// Replays the monitor's repeat-snapshot rule from outside: a running
/// session with a snapshot estimates only when that snapshot differs, by
/// address or by the bits of its time_ms, from the one it estimated last.
class EstimateCounter {
 public:
  /// Counts the estimate behind one running status with a snapshot.
  void Add(int session_id, const ProfileSnapshot& snapshot) {
    const size_t i = static_cast<size_t>(session_id);
    if (last_.size() <= i) last_.resize(i + 1);
    const Key key{&snapshot, std::bit_cast<uint64_t>(snapshot.time_ms)};
    if (last_[i] == key) return;
    last_[i] = key;
    ++count_;
  }
  uint64_t count() const { return count_; }

 private:
  struct Key {
    const ProfileSnapshot* address = nullptr;
    uint64_t time_bits = 0;
    bool operator==(const Key&) const = default;
  };
  std::vector<Key> last_;
  uint64_t count_ = 0;
};

}  // namespace testing
}  // namespace lqs

#endif  // LQS_TESTS_TEST_UTIL_H_
