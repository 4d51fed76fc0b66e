#ifndef OIR_SYNC_MUTEX_H_
#define OIR_SYNC_MUTEX_H_

// Capability-annotated synchronization primitives. These are the only
// lockable types used outside src/sync (enforced by tools/oir_lint): they
// wrap the std primitives and carry the Clang Thread Safety attributes, so
// a clang build with -Wthread-safety proves the locking discipline of every
// annotated subsystem at compile time.
//
// Beyond the annotations, Mutex and SharedMutex track their exclusive
// holder (one relaxed atomic store on each lock/unlock), which makes
// AssertHeld() a real runtime check everywhere — including release builds —
// not just a hint to the static analysis. Diagnostic paths that inspect
// protected state (e.g. the lock-manager watchdog) assert the capability
// instead of silently assuming it.
//
// Condition waits go through CondVar, whose Wait()/WaitUntil() require the
// mutex: predicate waits are written as explicit `while (!pred) cv.Wait(mu)`
// loops so the analysis sees every guarded read of the predicate under the
// lock (a lambda handed to std::condition_variable::wait would be opaque to
// it).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "sync/thread_annotations.h"
#include "util/logging.h"

namespace oir {

class CondVar;

// Exclusive mutex. Same semantics as std::mutex plus holder tracking.
class OIR_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() OIR_ACQUIRE() {
    mu_.lock();
    SetHolder();
  }

  void Unlock() OIR_RELEASE() {
    ClearHolder();
    mu_.unlock();
  }

  // Aborts unless the calling thread holds this mutex. The static analysis
  // treats the capability as held from the assertion on.
  void AssertHeld() const OIR_ASSERT_CAPABILITY() {
    OIR_CHECK(holder_.load(std::memory_order_relaxed) ==
              std::this_thread::get_id());
  }

 private:
  friend class CondVar;

  void SetHolder() {
    holder_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  }
  void ClearHolder() {
    holder_.store(std::thread::id(), std::memory_order_relaxed);
  }

  std::mutex mu_;
  std::atomic<std::thread::id> holder_{};
};

// Reader/writer mutex. Holder tracking covers the exclusive side only (a
// shared holding is a set of threads, which a single word cannot name).
class OIR_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() OIR_ACQUIRE() {
    mu_.lock();
    SetHolder();
  }

  void Unlock() OIR_RELEASE() {
    ClearHolder();
    mu_.unlock();
  }

  void LockShared() OIR_ACQUIRE_SHARED() { mu_.lock_shared(); }

  void UnlockShared() OIR_RELEASE_SHARED() { mu_.unlock_shared(); }

  // Aborts unless the calling thread holds this mutex exclusively.
  void AssertHeld() const OIR_ASSERT_CAPABILITY() {
    OIR_CHECK(holder_.load(std::memory_order_relaxed) ==
              std::this_thread::get_id());
  }

 private:
  void SetHolder() {
    holder_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  }
  void ClearHolder() {
    holder_.store(std::thread::id(), std::memory_order_relaxed);
  }

  std::shared_mutex mu_;
  std::atomic<std::thread::id> holder_{};
};

// Condition variable bound to Mutex. Waits release and reacquire the mutex
// internally; holder tracking is kept consistent across the wait.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) OIR_REQUIRES(mu) {
    mu.ClearHolder();
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();
    mu.SetHolder();
  }

  template <class Clock, class Duration>
  std::cv_status WaitUntil(Mutex& mu,
                           const std::chrono::time_point<Clock, Duration>& tp)
      OIR_REQUIRES(mu) {
    mu.ClearHolder();
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    std::cv_status r = cv_.wait_until(lk, tp);
    lk.release();
    mu.SetHolder();
    return r;
  }

  template <class Rep, class Period>
  std::cv_status WaitFor(Mutex& mu,
                         const std::chrono::duration<Rep, Period>& d)
      OIR_REQUIRES(mu) {
    mu.ClearHolder();
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    std::cv_status r = cv_.wait_for(lk, d);
    lk.release();
    mu.SetHolder();
    return r;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

// RAII exclusive lock of a Mutex for a whole scope.
class OIR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) OIR_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() OIR_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// RAII exclusive lock of a SharedMutex.
class OIR_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) OIR_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterMutexLock() OIR_RELEASE() { mu_.Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// RAII shared lock of a SharedMutex.
class OIR_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) OIR_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderMutexLock() OIR_RELEASE() { mu_.UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

}  // namespace oir

#endif  // OIR_SYNC_MUTEX_H_
