#include "core/rebuild_throttle.h"

#include <thread>

#include "util/clock.h"

namespace oir {

namespace {

// AIMD shape. The ceiling bounds rebuild starvation: even a saturated
// foreground cannot stall the rebuild forever, only stretch it.
constexpr uint64_t kMinPauseUs = 250;
constexpr uint64_t kMaxPauseUs = 20 * 1000;
constexpr uint64_t kDecayUs = 500;
// Re-read the profiler/counter signals every this many Pace() calls; the
// pause itself applies on every call.
constexpr uint32_t kSampleEveryCalls = 4;
// Foreground lock-wait share of wall-clock above which the rebuild is
// considered in the way even when mean latency looks fine (percent).
constexpr uint64_t kLockShareCeilingPct = 40;
// Eviction pressure: evictions per sampled interval above which the pool
// is churning (the rebuild's run buffer + prefetch displacing the working
// set). Scaled by nothing fancy — it is a coarse tiebreaker signal.
constexpr uint64_t kEvictionBurst = 512;

}  // namespace

void RebuildThrottle::Start() {
  if (!enabled()) return;
  last_counters_ = GlobalCounters::Get().Snapshot();
  last_sample_ = ProfilerSample();
  calls_since_sample_ = 0;
  pause_us_ = 0;
  stats_ = Stats();

  if (!obs::WaitProfiler::enabled()) {
    stats_.baseline_ns = config_.baseline_ns;
    return;
  }
  uint64_t count = 0, wall = 0, lock = 0;
  for (const auto& b : obs::WaitProfiler::TakeSnapshot()) {
    if (b.type != obs::OpType::kRead && b.type != obs::OpType::kWrite) {
      continue;
    }
    count += b.count;
    wall += b.wall_ns;
    lock += b.state_ns[static_cast<size_t>(obs::WaitState::kLockWait)];
  }
  last_sample_.count = count;
  last_sample_.wall_ns = wall;
  last_sample_.lock_ns = lock;
  if (config_.baseline_ns == 0 && count > 0) {
    // Auto-baseline: mean foreground latency over all traffic so far.
    config_.baseline_ns = wall / count;
  }
  stats_.baseline_ns = config_.baseline_ns;
}

bool RebuildThrottle::OverBudget() {
  CounterSnapshot now = GlobalCounters::Get().Snapshot();
  CounterSnapshot d = now - last_counters_;
  last_counters_ = now;

  // Watchdog fires mean a foreground op blocked long enough to trip the
  // lock-wait watchdog — always treat as over budget.
  if (d.lock_watchdog_fires > 0) return true;

  bool over = false;
  if (obs::WaitProfiler::enabled()) {
    uint64_t count = 0, wall = 0, lock = 0;
    for (const auto& b : obs::WaitProfiler::TakeSnapshot()) {
      if (b.type != obs::OpType::kRead && b.type != obs::OpType::kWrite) {
        continue;
      }
      count += b.count;
      wall += b.wall_ns;
      lock += b.state_ns[static_cast<size_t>(obs::WaitState::kLockWait)];
    }
    uint64_t dcount = count - last_sample_.count;
    uint64_t dwall = wall - last_sample_.wall_ns;
    uint64_t dlock = lock - last_sample_.lock_ns;
    last_sample_.count = count;
    last_sample_.wall_ns = wall;
    last_sample_.lock_ns = lock;

    if (dcount > 0) {
      uint64_t mean = dwall / dcount;
      if (config_.baseline_ns == 0) {
        // No traffic existed at Start(); adopt the first interval's mean
        // as the baseline rather than pacing against nothing.
        config_.baseline_ns = mean;
        stats_.baseline_ns = mean;
      } else {
        uint64_t budget = config_.baseline_ns +
                          config_.baseline_ns *
                              config_.max_degradation_pct / 100;
        if (mean > budget) over = true;
      }
      if (dwall > 0 && dlock * 100 > dwall * kLockShareCeilingPct) {
        over = true;
      }
    }
  }
  // Pool churn: heavy eviction traffic alongside misses means the rebuild
  // is displacing the foreground working set.
  if (d.pool_evictions > kEvictionBurst &&
      d.pool_misses > d.pool_hits) {
    over = true;
  }
  return over;
}

void RebuildThrottle::Pace() {
  if (!enabled()) return;

  // Cede the processor once per batch: admission control can only measure
  // foreground latency if foreground threads actually get to run. On a
  // saturated (or single-core) machine the copy loop otherwise monopolizes
  // the CPU between its short blocking points and the profiler sees zero
  // foreground traffic — reading "no pressure" exactly when pressure is
  // highest. On a busy machine this yield alone can pace the rebuild, so
  // it is attributed and timed like a pause.
  const uint64_t yield0 = NowNanos();
  {
    obs::WaitScope ws(obs::WaitState::kThrottled);
    std::this_thread::yield();
  }
  paced_ns_ += NowNanos() - yield0;

  if (calls_since_sample_++ % kSampleEveryCalls == 0) {
    if (OverBudget()) {
      pause_us_ = pause_us_ == 0 ? kMinPauseUs : pause_us_ * 2;
      if (pause_us_ > kMaxPauseUs) pause_us_ = kMaxPauseUs;
      ++stats_.backoffs;
    } else if (pause_us_ > 0) {
      pause_us_ = pause_us_ > kDecayUs ? pause_us_ - kDecayUs : 0;
    }
  }
  if (pause_us_ == 0) return;

  const uint64_t sleep0 = NowNanos();
  {
    obs::WaitScope ws(obs::WaitState::kThrottled);
    MutexLock l(mu_);
    // wait-state: admission-control pacing pause, attributed above; the CV
    // is never signalled, so this is a bounded timed wait.
    cv_.WaitFor(mu_, std::chrono::microseconds(pause_us_));
  }
  paced_ns_ += NowNanos() - sleep0;
  ++stats_.pauses;
}

RebuildThrottle::Stats RebuildThrottle::stats() const {
  Stats s = stats_;
  s.pause_us = paced_ns_ / 1000;
  return s;
}

}  // namespace oir
