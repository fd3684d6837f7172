#ifndef LQS_COMMON_MUTEX_H_
#define LQS_COMMON_MUTEX_H_

#include <condition_variable>  // lint:allow-raw-mutex (wrapped here)
#include <mutex>               // lint:allow-raw-mutex (wrapped here)

#include "common/thread_annotations.h"

namespace lqs {

/// Central lock-rank registry (DESIGN.md §9). Every lqs::Mutex declares a
/// rank; the debug-build checker enforces that each thread acquires locks in
/// strictly increasing rank order, which makes cross-thread deadlock by lock
/// inversion impossible. Add new ranks here, spaced so future locks can slot
/// between existing ones, ordered outermost (lowest) to innermost/leaf
/// (highest).
namespace lock_rank {
/// MonitorService::stats_mu_ — taken by the driver thread after a tick's
/// barrier and by any reader calling stats(); never held across a
/// ParallelFor.
inline constexpr int kMonitorStats = 100;
/// ThreadPool::mu_ — the pool's job-handoff lock, a leaf: no lqs::Mutex is
/// ever acquired while it is held (user jobs run outside it).
inline constexpr int kThreadPool = 200;
}  // namespace lock_rank

class CondVar;

/// A std::mutex that carries the Clang capability attribute (so
/// `-Wthread-safety` can reason about it — std::mutex itself cannot be
/// annotated) and a lock rank. In debug builds (and whenever
/// SetRankCheckEnabled(true) is in effect) every acquisition is validated
/// against the calling thread's held-lock stack: acquiring a mutex whose
/// rank is not strictly greater than the most recently acquired held mutex,
/// or re-acquiring a held mutex, aborts with both ranks and the full stack —
/// catching deadlock *potential* on orderings the annotation pass cannot
/// express. Not reentrant.
class LQS_CAPABILITY("mutex") Mutex {
 public:
  /// `rank` orders this mutex in the global acquisition order and must be a
  /// named constant from lock_rank (the `locks` static checker enforces
  /// this in src/); `name` appears in rank-checker diagnostics. There is
  /// deliberately no default rank: two anonymous rank-0 locks look fine
  /// until they nest in production, and the runtime checker only catches
  /// the nesting a test happens to execute.
  explicit Mutex(int rank, const char* name = "lqs::Mutex")
      : rank_(rank), name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() LQS_ACQUIRE();
  void Unlock() LQS_RELEASE();
  /// Returns true and holds the lock on success. A successful TryLock is
  /// held rank-discipline too: try-lock is not an escape hatch from the
  /// acquisition order in this codebase.
  bool TryLock() LQS_TRY_ACQUIRE(true);

  /// Runtime assertion (rank checker builds) + static assertion (clang
  /// analysis) that the calling thread holds this mutex.
  void AssertHeld() const LQS_ASSERT_CAPABILITY(this);

  int rank() const { return rank_; }
  const char* name() const { return name_; }

  /// Rank checking defaults to on in debug builds (!NDEBUG) and off in
  /// release; tests force it on so the death tests run under every build
  /// type. The switch is global and may be flipped at any point — held-lock
  /// bookkeeping degrades gracefully across a toggle.
  static void SetRankCheckEnabled(bool enabled);
  static bool RankCheckEnabled();

 private:
  friend class CondVar;

  /// Rank bookkeeping, implemented in mutex.cc against a thread_local
  /// held-lock stack. Validation runs *before* blocking on the underlying
  /// mutex, so an inversion aborts loudly instead of deadlocking silently.
  void PushHeld() const;
  void PopHeld() const;

  mutable std::mutex impl_;  // lint:allow-raw-mutex (the wrapped primitive)
  const int rank_;
  const char* const name_;
};

/// RAII locker, the only way most code should take a Mutex:
///   lqs::MutexLock lock(&mu_);
/// Annotated as a scoped capability so clang tracks the critical section.
class LQS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) LQS_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() LQS_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable bound to lqs::Mutex. Wait() must be called with the
/// mutex held (enforced by the analysis via LQS_REQUIRES) and, like
/// std::condition_variable, can wake spuriously — always wait in a
/// predicate loop:
///   while (!ready_) cv_.Wait(&mu_);
/// The wait releases and re-acquires the mutex through the rank checker.
/// Blocking in Wait while holding any *other* lqs::Mutex parks this thread
/// with a lock held indefinitely — in rank-checker builds that aborts at
/// the wait site (see tests/mutex_test.cc), and the static `locks` checker
/// rejects it at analysis time.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) LQS_REQUIRES(mu);
  void Signal() { cv_.notify_one(); }
  void SignalAll() { cv_.notify_all(); }

 private:
  // lint:allow-raw-mutex (the wrapped primitive)
  std::condition_variable cv_;
};

}  // namespace lqs

#endif  // LQS_COMMON_MUTEX_H_
