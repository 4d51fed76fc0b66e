#ifndef OIR_TESTING_CRASH_POINT_H_
#define OIR_TESTING_CRASH_POINT_H_

// Deterministic crash-point registry for fault-injection testing.
//
// Subsystems mark interesting interleaving points with
// OIR_CRASH_POINT("wal.flush.pre"): when the registry is disabled (the
// default, and the only state production code ever sees) the macro costs a
// single relaxed atomic load and a predicted branch — the same pattern as
// the wait profiler. When enabled, every hit is counted
// per name, and one (name, hit ordinal) pair can be armed with a handler
// that fires exactly once when that hit occurs.
//
// The handler runs on whatever thread reached the point, possibly while
// that thread holds component mutexes (the WAL mutex, a buffer-pool shard
// mutex, the space-map mutex). It must therefore only flip lock-free flags
// — LogManager::SetFailFlushes, FaultInjectingDisk::CutPower — never call
// back into a locking API. The crash-sweep harness (sweep.h) follows this
// "power cut" discipline.
//
// Naming convention: "<subsystem>.<operation>.<step>", e.g.
// "rebuild.copy.keycopy_logged" or "txn.commit.pre_flush". The sweep
// reproduces a failure with OIR_TEST_SEED=<seed> OIR_CRASH_POINT=<name>#<hit>.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sync/mutex.h"

namespace oir::fault {

class CrashPointRegistry {
 public:
  static CrashPointRegistry& Get();

  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  // Enabling starts counting hits; disabling returns every OIR_CRASH_POINT
  // to its one-branch cost. Counts and the armed point are left untouched.
  static void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  // Called by OIR_CRASH_POINT when enabled. `name` must be a string literal
  // (it is stored by value in the count map).
  void Hit(const char* name);

  // Arms hit number `hit_index` (0-based) of `name`: when that hit occurs,
  // `handler` is invoked exactly once, on the hitting thread. Re-arming
  // replaces the previous armed point and clears the fired latch.
  void Arm(const std::string& name, uint64_t hit_index,
           std::function<void()> handler);
  void Disarm();

  // True once the armed handler has fired.
  bool triggered() const;

  // Per-name hit counts since the last ResetCounts, sorted by name.
  std::vector<std::pair<std::string, uint64_t>> Snapshot() const;
  void ResetCounts();

  // Registry state (enabled/armed/fired + per-name counts) as a JSON
  // value, for the flight recorder's crash-point provider.
  std::string DumpJson() const;

  // Parses "name" or "name#hit" (the format the sweep prints for
  // reproduction). Returns false on a malformed hit ordinal.
  static bool ParseSpec(const std::string& spec, std::string* name,
                        uint64_t* hit);

 private:
  CrashPointRegistry() = default;

  static std::atomic<bool> enabled_;

  mutable Mutex mu_;
  std::map<std::string, uint64_t> counts_ OIR_GUARDED_BY(mu_);
  bool armed_ OIR_GUARDED_BY(mu_) = false;
  bool fired_ OIR_GUARDED_BY(mu_) = false;
  std::string armed_name_ OIR_GUARDED_BY(mu_);
  uint64_t armed_hit_ OIR_GUARDED_BY(mu_) = 0;
  std::function<void()> handler_ OIR_GUARDED_BY(mu_);
};

}  // namespace oir::fault

// Marks a crash point. One relaxed load + branch when the registry is
// disabled; `name` must be a string literal.
#define OIR_CRASH_POINT(name)                                \
  do {                                                       \
    if (::oir::fault::CrashPointRegistry::enabled()) {       \
      ::oir::fault::CrashPointRegistry::Get().Hit(name);     \
    }                                                        \
  } while (0)

#endif  // OIR_TESTING_CRASH_POINT_H_
