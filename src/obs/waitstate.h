#ifndef OIR_OBS_WAITSTATE_H_
#define OIR_OBS_WAITSTATE_H_

// Per-thread wait-state attribution: a small state machine that classifies
// every nanosecond of an operation's wall-clock as RUNNING or one of the
// wait states below, so DumpStatsJson can answer "p99 point-read = 41 us,
// of which 29 us latch wait" instead of only counting waits.
//
// Model: each thread owns a set of monotone per-state accumulators and a
// current state. WaitScope (RAII) switches the thread into a wait state for
// the duration of a blocking section; nested wait scopes fold into the
// outermost one (the outermost classification wins — a WAL flush performed
// while waiting for a latch is still latch wait from the operation's point
// of view). OpScope brackets one logical operation (point read, write,
// commit, rebuild batch): it snapshots the accumulators on entry and
// records the deltas — including measured RUNNING time — into a global
// per-operation-type aggregate on exit. Because every transition closes the
// current segment into an accumulator, the per-state components of an
// operation sum to its wall-clock exactly; the bench asserts >= 95% only to
// leave room for snapshot races.
//
// Everything is gated by one relaxed atomic flag (default off): a
// disabled scope costs one predicted branch. Aggregation is 16-way
// thread-striped, so concurrent recorders rarely share a cache line or
// mutex.
//
// This header is included from sync/latch.h and therefore stays minimal:
// atomics and the clock only — no sync/mutex.h, no histogram.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace oir::obs {

// Order is the dump order; kRunning must stay first.
enum class WaitState : uint8_t {
  kRunning = 0,
  kLatchWait,       // page latch (Latch::LockS/LockX blocked path)
  kLockWait,        // lock-manager CV wait
  kWalCommitWait,   // LogManager::FlushTo (group-commit wait or sync write)
  kIoWait,          // buffer-pool miss / eviction / frame-loading wait
  kThrottled,       // admission control (reserved for rebuild pacing)
  kNumStates,
};

enum class OpType : uint8_t {
  kRead = 0,
  kWrite,
  kCommit,
  kRebuild,
  kOther,
  kNumTypes,
};

constexpr size_t kNumWaitStates = static_cast<size_t>(WaitState::kNumStates);
constexpr size_t kNumOpTypes = static_cast<size_t>(OpType::kNumTypes);

const char* WaitStateName(WaitState s);
const char* OpTypeName(OpType t);

class WaitProfiler {
 public:
  struct OpBreakdown {
    OpType type = OpType::kOther;
    uint64_t count = 0;
    uint64_t wall_ns = 0;
    uint64_t state_ns[kNumWaitStates] = {};
    // Wall-clock distribution (ns), merged across shards.
    uint64_t hist_count = 0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
  };

  static void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  // One entry per op type that recorded at least one operation.
  static std::vector<OpBreakdown> TakeSnapshot();
  // {"read":{"count":..,"wall_ns":..,"states":{"running":..,...},
  //          "wall_hist":{"count":..,"p50":..,"p95":..,"p99":..,"max":..}},
  //  ...}
  static std::string ToJson();
  static void Reset();

  // --- slow paths used by the scopes; callers gate on enabled() ---
  // Switches the thread into `s` (outermost wait only). Returns the state
  // to restore on exit.
  static WaitState EnterWait(WaitState s);
  static void ExitWait(WaitState prev);
  // Begin/End must be balanced; only the outermost level on a thread
  // snapshots and records.
  static void BeginOp();
  static void EndOp(OpType t);

 private:
  static std::atomic<bool> enabled_;
};

// RAII: classifies the enclosed blocking section as `s`. Balanced even if
// the global flag flips mid-scope (the ctor's decision is remembered).
class WaitScope {
 public:
  explicit WaitScope(WaitState s) {
    if (WaitProfiler::enabled()) {
      entered_ = true;
      prev_ = WaitProfiler::EnterWait(s);
    }
  }
  ~WaitScope() {
    if (entered_) WaitProfiler::ExitWait(prev_);
  }
  WaitScope(const WaitScope&) = delete;
  WaitScope& operator=(const WaitScope&) = delete;

 private:
  bool entered_ = false;
  WaitState prev_ = WaitState::kRunning;
};

// RAII: brackets one logical operation of type `t`. Nested op scopes are
// inert — only the outermost records a breakdown.
class OpScope {
 public:
  explicit OpScope(OpType t) : type_(t) {
    if (WaitProfiler::enabled()) {
      entered_ = true;
      WaitProfiler::BeginOp();
    }
  }
  ~OpScope() {
    if (entered_) WaitProfiler::EndOp(type_);
  }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  OpType type_;
  bool entered_ = false;
};

}  // namespace oir::obs

#endif  // OIR_OBS_WAITSTATE_H_
