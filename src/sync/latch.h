#ifndef OIR_SYNC_LATCH_H_
#define OIR_SYNC_LATCH_H_

// Page latches for physical consistency (Section 2): shared (S) for reads,
// exclusive (X) for writes. Latches are short-duration — held only across a
// page access, never across I/O waits for locks. Deadlocks are prevented by
// the ordering rules of Section 6.5 (top-down across levels, left-to-right
// within a level), which the B+-tree and rebuild code obey.
//
// Latch deliberately carries NO thread-safety-analysis annotations, unlike
// Mutex/SharedMutex (sync/mutex.h). Latch ownership does not nest in
// scopes: traversal hands latches over hand-over-hand (crabbing), SMO
// helpers "consume" an X-latched page acquired by their caller, and the
// latch lives inside a buffer frame reached through a moved PageRef — all
// patterns the static analysis cannot express (it names capabilities by
// syntactic expression and assumes function-scoped balance). Annotating the
// acquire/release methods would bury the clang -Wthread-safety build in
// unfixable diagnostics; latch discipline is instead enforced by the
// Section 6.5 ordering rules and verified dynamically by the TSan lane.
//
// Version word. Each latch carries a counter that moves whenever the bytes
// guarded by the latch may stop being what a reader saw: UnlockX bumps it
// (the X holder may have changed the page), and the buffer manager calls
// Invalidate when it remaps a frame or rewrites its bytes without the
// latch. S lock and S unlock never touch it. A reader that copied the page
// under S and read version() before UnlockS can later prove the page still
// holds exactly those bytes by seeing the same version(), without latching
// it again (the range-scan cursor's step, btree/cursor.h).
//
// Invariant that makes this sound: every change to a frame's bytes happens
// either under the frame's X latch, or while the frame is unpinned and
// being invalidated (fetch miss, eviction, read-ahead, Create's reuse of a
// stale cached frame, Discard, DropAll).

#include <atomic>
#include <cstdint>
#include <shared_mutex>

#include "obs/waitstate.h"
#include "util/counters.h"

namespace oir {

enum class LatchMode { kShared, kExclusive };

class Latch {
 public:
  Latch() = default;
  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  void LockS() {
    auto& c = GlobalCounters::Get();
    c.latch_acquires.fetch_add(1, std::memory_order_relaxed);
    if (!mu_.try_lock_shared()) {
      c.latch_waits.fetch_add(1, std::memory_order_relaxed);
      obs::WaitScope ws(obs::WaitState::kLatchWait);
      mu_.lock_shared();
    }
  }

  void UnlockS() { mu_.unlock_shared(); }

  void LockX() {
    auto& c = GlobalCounters::Get();
    c.latch_acquires.fetch_add(1, std::memory_order_relaxed);
    if (!mu_.try_lock()) {
      c.latch_waits.fetch_add(1, std::memory_order_relaxed);
      obs::WaitScope ws(obs::WaitState::kLatchWait);
      mu_.lock();
    }
  }

  void UnlockX() {
    // Only the X holder writes here, so a plain increment suffices; the
    // release store orders the page changes before the new version.
    version_.store(version_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
    mu_.unlock();
  }

  bool TryLockS() {
    GlobalCounters::Get().latch_acquires.fetch_add(1,
                                                   std::memory_order_relaxed);
    return mu_.try_lock_shared();
  }

  bool TryLockX() {
    GlobalCounters::Get().latch_acquires.fetch_add(1,
                                                   std::memory_order_relaxed);
    return mu_.try_lock();
  }

  void Lock(LatchMode mode) {
    if (mode == LatchMode::kShared) {
      LockS();
    } else {
      LockX();
    }
  }

  void Unlock(LatchMode mode) {
    if (mode == LatchMode::kShared) {
      UnlockS();
    } else {
      UnlockX();
    }
  }

  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  // Moves the version without the latch: the guarded bytes are about to be
  // replaced by someone who does not hold X (see the invariant above).
  void Invalidate() { version_.fetch_add(1, std::memory_order_acq_rel); }

 private:
  std::shared_mutex mu_;
  std::atomic<uint64_t> version_{0};
};

}  // namespace oir

#endif  // OIR_SYNC_LATCH_H_
