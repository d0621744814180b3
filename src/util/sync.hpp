// Annotated synchronization primitives — the compile-time concurrency
// contract layer (Clang Thread Safety Analysis; "C/C++ Thread Safety
// Analysis", Hutchins et al., CGO'14).
//
// Every mutex in src/ is one of the wrappers below, and every piece of
// data a mutex protects is annotated RG_GUARDED_BY(that mutex), so the
// clang CI lane proves lock discipline on every build (GCC compiles the
// attributes away; ci/lint_invariants.py keeps raw std primitives from
// sneaking back in).  TSan still runs — it catches what annotations
// cannot (ad-hoc release/acquire protocols) — but the analysis here
// catches whole classes of races no test has to execute.
//
// The full lock-order hierarchy, the MVCC epoch lifecycle and the
// CommandSource/flag matrix live in docs/CONCURRENCY.md — read that
// before adding a lock or changing acquisition order.  Summary: the
// spine is keyspace_mu_/rewrite_mu_ -> GraphEntry::lock ->
// DurabilityManager::mu_ -> WalWriter::mu_; everything else
// (PlanCache::mu_, Matrix mu_, Graph::sync_mu_, EpochManager::mu_,
// the slowlog/stats/compaction/epoch-reaper mutexes) is a leaf, never
// held across a call that takes another lock.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// Attribute plumbing: real Clang TSA attributes under Clang, no-ops
// everywhere else (GCC accepts and ignores unknown __attribute__ names
// only with a warning, so the macros must vanish entirely).
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define RG_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef RG_THREAD_ANNOTATION
#define RG_THREAD_ANNOTATION(x)  // not Clang: annotations compile away
#endif

#define RG_CAPABILITY(x) RG_THREAD_ANNOTATION(capability(x))
#define RG_SCOPED_CAPABILITY RG_THREAD_ANNOTATION(scoped_lockable)
#define RG_GUARDED_BY(x) RG_THREAD_ANNOTATION(guarded_by(x))
#define RG_PT_GUARDED_BY(x) RG_THREAD_ANNOTATION(pt_guarded_by(x))
#define RG_ACQUIRE(...) \
  RG_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define RG_ACQUIRE_SHARED(...) \
  RG_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define RG_RELEASE(...) \
  RG_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RG_RELEASE_SHARED(...) \
  RG_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define RG_TRY_ACQUIRE(...) \
  RG_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define RG_REQUIRES(...) \
  RG_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define RG_REQUIRES_SHARED(...) \
  RG_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define RG_EXCLUDES(...) RG_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define RG_ACQUIRED_BEFORE(...) \
  RG_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define RG_ACQUIRED_AFTER(...) \
  RG_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define RG_RETURN_CAPABILITY(x) RG_THREAD_ANNOTATION(lock_returned(x))
#define RG_NO_THREAD_SAFETY_ANALYSIS \
  RG_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace rg::util {

/// std::mutex carrying the "mutex" capability.
class RG_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() RG_ACQUIRE() { mu_.lock(); }
  void unlock() RG_RELEASE() { mu_.unlock(); }
  bool try_lock() RG_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  friend class DualMutexLock;
  std::mutex mu_;
};

/// std::shared_mutex carrying the "shared_mutex" capability: exclusive
/// acquisition for writers, shared for readers.
class RG_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() RG_ACQUIRE() { mu_.lock(); }
  void unlock() RG_RELEASE() { mu_.unlock(); }
  bool try_lock() RG_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  void lock_shared() RG_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() RG_RELEASE_SHARED() { mu_.unlock_shared(); }
  bool try_lock_shared() RG_TRY_ACQUIRE(true) {
    return mu_.try_lock_shared();
  }

 private:
  std::shared_mutex mu_;
};

/// Scoped exclusive lock on a Mutex (the std::lock_guard replacement).
class RG_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) RG_ACQUIRE(mu) : mu_(mu) { mu.lock(); }
  ~MutexLock() RG_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Scoped exclusive lock on both mutexes, deadlock-safe for any
/// acquisition order across threads (std::lock's ordering protocol) —
/// the std::scoped_lock(a, b) replacement for cross-object moves.
class RG_SCOPED_CAPABILITY DualMutexLock {
 public:
  DualMutexLock(Mutex& a, Mutex& b) RG_ACQUIRE(a, b) : a_(a), b_(b) {
    std::lock(a.mu_, b.mu_);
  }
  ~DualMutexLock() RG_RELEASE() {
    a_.mu_.unlock();
    b_.mu_.unlock();
  }

  DualMutexLock(const DualMutexLock&) = delete;
  DualMutexLock& operator=(const DualMutexLock&) = delete;

 private:
  Mutex& a_;
  Mutex& b_;
};

/// Scoped exclusive (writer) lock on a SharedMutex.
class RG_SCOPED_CAPABILITY WriteLock {
 public:
  explicit WriteLock(SharedMutex& mu) RG_ACQUIRE(mu) : mu_(mu) {
    mu.lock();
  }
  ~WriteLock() RG_RELEASE() { mu_.unlock(); }

  WriteLock(const WriteLock&) = delete;
  WriteLock& operator=(const WriteLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Scoped shared (reader) lock on a SharedMutex.
class RG_SCOPED_CAPABILITY SharedLock {
 public:
  explicit SharedLock(SharedMutex& mu) RG_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu.lock_shared();
  }
  // Generic RELEASE: a scoped capability's destructor releases whatever
  // mode it holds (the documented idiom for shared scoped locks).
  ~SharedLock() RG_RELEASE() { mu_.unlock_shared(); }

  SharedLock(const SharedLock&) = delete;
  SharedLock& operator=(const SharedLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable for rg::Mutex.  The API is deliberately
/// predicate-free: TSA cannot see through a wait-predicate lambda (a
/// lambda body does not inherit the enclosing function's capabilities),
/// so call sites spell the standard manual loop instead:
///
///   MutexLock lk(mu_);
///   while (!ready_) cv_.wait(mu_);
/// One iteration of a bounded spin-wait: a CPU hint that we are busy
/// polling, so the core yields pipeline resources to its SMT sibling
/// without giving up the timeslice.  Use for waits that are expected
/// to resolve in microseconds (e.g. another thread finishing an O(delta)
/// fork); anything longer belongs on a CondVar.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically release `mu`, sleep, re-acquire before returning.
  /// Caller must hold `mu` (it protects the awaited state).
  void wait(Mutex& mu) RG_REQUIRES(mu) { cv_.wait(mu.mu_); }

  template <typename Rep, typename Period>
  std::cv_status wait_for(Mutex& mu,
                          const std::chrono::duration<Rep, Period>& dur)
      RG_REQUIRES(mu) {
    return cv_.wait_for(mu.mu_, dur);
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace rg::util
