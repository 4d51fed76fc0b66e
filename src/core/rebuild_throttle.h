#ifndef OIR_CORE_REBUILD_THROTTLE_H_
#define OIR_CORE_REBUILD_THROTTLE_H_

// Admission control for the online rebuild: paces copy/propagate batches so
// foreground operations degrade no more than a configured percentage.
//
// The rebuilder calls Pace() between top actions. Every sample interval the
// throttle reads live signals —
//   * foreground (read/write) mean latency from the wait profiler versus a
//     baseline captured at Start (or supplied by the caller),
//   * the foreground lock-wait share of wall-clock (the rebuild holds tree
//     locks; a rising share means it is in the way),
//   * lock-watchdog fires (a foreground op waited past the watchdog
//     threshold — the strongest "back off now" signal),
//   * buffer-pool eviction pressure (the rebuild's run buffer and prefetch
//     reads evicting the working set)
// — and adjusts an attributed pause with AIMD: multiplicative increase
// while foreground is over budget, additive decay once it recovers. The
// pause itself is a CondVar wait under WaitState::kThrottled so the wait
// dashboard and DumpStatsJson show rebuild pacing as throttled time, not
// as mystery latency.
//
// The profiler-based signals need WaitProfiler::SetEnabled(true) and prior
// foreground traffic; without them the counter-based signals still pace
// the rebuild (watchdog fires and eviction pressure), just more coarsely.

#include <chrono>
#include <cstdint>

#include "obs/waitstate.h"
#include "sync/mutex.h"
#include "util/counters.h"

namespace oir {

class RebuildThrottle {
 public:
  struct Config {
    // Allowed foreground degradation in percent (from
    // RebuildOptions::max_foreground_degradation_pct). 0 disables pacing.
    uint32_t max_degradation_pct = 0;
    // Foreground mean-latency baseline (ns); 0 = capture from the wait
    // profiler at Start().
    uint64_t baseline_ns = 0;
  };

  struct Stats {
    uint64_t pauses = 0;    // AIMD sleeps taken
    uint64_t pause_us = 0;  // cumulative paced time: yields plus sleeps
    uint64_t backoffs = 0;  // over-budget samples (pause grew)
    uint64_t baseline_ns = 0;  // the baseline in effect (0 = none)
  };

  explicit RebuildThrottle(const Config& config) : config_(config) {}

  // Captures baselines (profiler aggregates, global counters). Call once,
  // immediately before the rebuild's first top action.
  void Start();

  // Yields the processor, samples the signals, adjusts the pause, and
  // sleeps it off. The yield and the sleep are both attributed as
  // WaitState::kThrottled and counted in stats().pause_us. No-op when
  // pacing is disabled.
  void Pace();

  Stats stats() const;

  bool enabled() const { return config_.max_degradation_pct > 0; }

 private:
  // True when the live signals say foreground is degraded past budget.
  bool OverBudget();

  Config config_;

  // Sampled signal state (rebuilder thread only).
  struct ProfilerSample {
    uint64_t count = 0;      // read+write op count
    uint64_t wall_ns = 0;    // read+write wall-clock
    uint64_t lock_ns = 0;    // read+write lock-wait component
  };
  ProfilerSample last_sample_;
  CounterSnapshot last_counters_;
  uint32_t calls_since_sample_ = 0;

  uint64_t pause_us_ = 0;  // current AIMD pause
  uint64_t paced_ns_ = 0;  // cumulative paced time (Stats::pause_us)
  Stats stats_;

  // The pause: a timed CV wait (never signalled in production; tests could
  // notify to cut a pause short). Production code must not sleep — the
  // attributed CV wait is the sanctioned idiom (tools/oir_lint).
  Mutex mu_;
  CondVar cv_;
};

}  // namespace oir

#endif  // OIR_CORE_REBUILD_THROTTLE_H_
