#ifndef OIR_OBS_FLIGHT_RECORDER_H_
#define OIR_OBS_FLIGHT_RECORDER_H_

// Crash flight recorder: an always-on diagnostic service that snapshots the
// whole observability surface — stats JSON, the trace ring, the wait-state
// profile, and any registered component dumps (active transactions, the
// lock table, crash-point counts) — into one atomically-published JSON
// bundle when something goes wrong: lock-watchdog fire, crash-point trip,
// fatal signal, or an explicit Db::DumpFlightRecord call. The goal is that
// every crash-sweep failure and TSan repro is self-describing: the failure
// message carries a path to a bundle that shows what the system was doing.
//
// Locking design (this is the part that has to be right):
//   * Trigger() is called from delicate contexts — the lock-manager
//     watchdog fires while holding a lock-table shard mutex, and a crash
//     point handler may run under the WAL mutex. Trigger therefore only
//     touches a leaf mutex (pending-reason queue + CV notify) and returns;
//     a lazily started worker thread performs the actual dump.
//   * DumpNow() invokes the registered providers while holding
//     providers_mu_, so UnregisterProvider (called from the Db destructor)
//     blocks until an in-flight dump no longer references Db state.
//   * NoteSnapshot() uses its own ring mutex: the stats publisher calls it
//     with arbitrary component state live, and a provider could publish
//     stats while a dump is in progress.
//
// Bundles are written as <dir>/oir_flight_<pid>_<seq>.json via temp file +
// rename, so a reader never sees a torn bundle. <dir> is OIR_FLIGHT_DIR,
// else TMPDIR, else /tmp. Triggered bundles (watchdog fires, crash-point
// trips) are capped at the newest kMaxTriggeredBundles per process; a
// bundle whose path the caller asked for is never deleted. A bundle's
// "trace" section holds the newest kMaxTraceEvents events of the trace
// ring, which keeps a bundle small (a full ring holds 65,536).

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sync/mutex.h"

namespace oir::obs {

class FlightRecorder {
 public:
  static constexpr size_t kMaxRecentStats = 8;
  static constexpr size_t kMaxTriggeredBundles = 16;
  static constexpr size_t kMaxTraceEvents = 1024;

  static FlightRecorder& Get();

  // Registers a named JSON provider; its result is spliced into every
  // bundle under `name`. Returns a token identifying this registration, so
  // a stale unregister (a second Db reusing the name) cannot remove a newer
  // provider. The provider runs on the dump thread and may take component
  // locks; it must return a valid JSON value.
  uint64_t RegisterProvider(const std::string& name,
                            std::function<std::string()> fn);
  // No-op unless `token` is the current registration for `name`. Blocks
  // while a dump is invoking providers — after return, the provider will
  // never be called again.
  void UnregisterProvider(const std::string& name, uint64_t token);

  // Appends a stats-JSON snapshot to the bounded recent-stats ring (the
  // stats publisher feeds this, giving bundles short history).
  void NoteSnapshot(std::string stats_json);

  // Asynchronous dump request; safe from any context that can take a leaf
  // mutex, including with component mutexes held. Coalesces: if a dump for
  // the same reason is already pending, the request is dropped.
  void Trigger(const std::string& reason);

  // Synchronous dump; do not call with component locks held. On success
  // returns true and stores the bundle path in *path. A null `path` marks
  // the bundle as triggered: it joins the capped set and, once
  // kMaxTriggeredBundles newer ones exist, is deleted.
  bool DumpNow(const std::string& reason, std::string* path);

  // Best-effort fatal-signal hook (SIGSEGV/SIGBUS/SIGABRT/SIGFPE): dumps a
  // bundle then re-raises with the default disposition. The handler is not
  // async-signal-safe — it allocates and takes locks — which is acceptable
  // for a diagnostic of last resort; a recursion guard stops a crash inside
  // the handler from looping.
  void InstallCrashHandler();

  // Test/observability hooks.
  uint64_t dumps_completed() const {
    return dumps_completed_.load(std::memory_order_acquire);
  }
  std::string last_dump_path() const;
  // Blocks until dumps_completed() >= n or the deadline passes.
  bool WaitForDumps(uint64_t n, int64_t timeout_ms);

 private:
  FlightRecorder() = default;

  std::string BuildBundleJson(const std::string& reason);
  void WorkerLoop();
  void EnsureWorkerLocked() OIR_REQUIRES(trigger_mu_);

  // Leaf mutex: Trigger() touches only this.
  mutable Mutex trigger_mu_;
  CondVar trigger_cv_;
  std::deque<std::string> pending_ OIR_GUARDED_BY(trigger_mu_);
  bool worker_started_ OIR_GUARDED_BY(trigger_mu_) = false;
  std::thread worker_;  // started once; detached-by-leak with the singleton

  // Held while building a bundle (providers run under it).
  mutable Mutex providers_mu_;
  struct Provider {
    uint64_t token = 0;
    std::function<std::string()> fn;
  };
  std::map<std::string, Provider> providers_ OIR_GUARDED_BY(providers_mu_);
  uint64_t next_token_ OIR_GUARDED_BY(providers_mu_) = 1;

  mutable Mutex ring_mu_;
  std::deque<std::string> recent_stats_ OIR_GUARDED_BY(ring_mu_);

  mutable Mutex path_mu_;
  CondVar dumped_cv_;
  std::string last_dump_path_ OIR_GUARDED_BY(path_mu_);
  std::deque<std::string> triggered_ OIR_GUARDED_BY(path_mu_);  // oldest 1st
  std::atomic<uint64_t> dumps_completed_{0};
  std::atomic<uint64_t> seq_{0};
};

}  // namespace oir::obs

#endif  // OIR_OBS_FLIGHT_RECORDER_H_
