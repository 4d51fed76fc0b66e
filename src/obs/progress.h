#ifndef OIR_OBS_PROGRESS_H_
#define OIR_OBS_PROGRESS_H_

// Rebuild progress publication: the rebuilder thread bumps atomics after
// every top action; any other thread (or the RebuildOptions::on_progress
// callback) reads a consistent-enough snapshot without synchronizing with
// the rebuild. All fields are cumulative and monotone while running.

#include <atomic>
#include <cstdint>

namespace oir::obs {

struct RebuildProgress {
  bool running = false;
  bool done = false;
  uint64_t leaves_total = 0;    // allocated-page estimate taken at start
  uint64_t leaves_rebuilt = 0;  // old leaves fully copied so far
  uint32_t current_page = 0;    // old-index leaf the rebuild is working on
  uint64_t top_actions = 0;
  uint64_t transactions = 0;
  uint64_t batches_truncated = 0;  // conditional-lock Busy cut a batch short
  uint64_t retries = 0;            // PP/P1 lock-batch retraversal retries
  uint64_t copy_us = 0;            // cumulative per-phase wall time
  uint64_t propagate_us = 0;
  uint64_t flush_us = 0;
  bool resumed = false;            // run continued a crashed rebuild; the
                                   // counters above include the prior run
  uint64_t progress_records = 0;   // durable progress records appended
  uint64_t throttle_pauses = 0;    // admission-control pauses taken
  uint64_t throttle_us = 0;        // cumulative paced time (yields+pauses)
};

class RebuildProgressTracker {
 public:
  void Reset() {
    running.store(false, std::memory_order_relaxed);
    done.store(false, std::memory_order_relaxed);
    leaves_total.store(0, std::memory_order_relaxed);
    leaves_rebuilt.store(0, std::memory_order_relaxed);
    current_page.store(0, std::memory_order_relaxed);
    top_actions.store(0, std::memory_order_relaxed);
    transactions.store(0, std::memory_order_relaxed);
    batches_truncated.store(0, std::memory_order_relaxed);
    retries.store(0, std::memory_order_relaxed);
    copy_us.store(0, std::memory_order_relaxed);
    propagate_us.store(0, std::memory_order_relaxed);
    flush_us.store(0, std::memory_order_relaxed);
    resumed.store(false, std::memory_order_relaxed);
    progress_records.store(0, std::memory_order_relaxed);
    throttle_pauses.store(0, std::memory_order_relaxed);
    throttle_us.store(0, std::memory_order_relaxed);
  }

  void Begin(uint64_t total_estimate) {
    leaves_total.store(total_estimate, std::memory_order_relaxed);
    running.store(true, std::memory_order_release);
  }
  void Finish() {
    running.store(false, std::memory_order_relaxed);
    done.store(true, std::memory_order_release);
  }

  RebuildProgress Load() const {
    RebuildProgress p;
    p.running = running.load(std::memory_order_acquire);
    p.done = done.load(std::memory_order_relaxed);
    p.leaves_total = leaves_total.load(std::memory_order_relaxed);
    p.leaves_rebuilt = leaves_rebuilt.load(std::memory_order_relaxed);
    p.current_page = current_page.load(std::memory_order_relaxed);
    p.top_actions = top_actions.load(std::memory_order_relaxed);
    p.transactions = transactions.load(std::memory_order_relaxed);
    p.batches_truncated = batches_truncated.load(std::memory_order_relaxed);
    p.retries = retries.load(std::memory_order_relaxed);
    p.copy_us = copy_us.load(std::memory_order_relaxed);
    p.propagate_us = propagate_us.load(std::memory_order_relaxed);
    p.flush_us = flush_us.load(std::memory_order_relaxed);
    p.resumed = resumed.load(std::memory_order_relaxed);
    p.progress_records = progress_records.load(std::memory_order_relaxed);
    p.throttle_pauses = throttle_pauses.load(std::memory_order_relaxed);
    p.throttle_us = throttle_us.load(std::memory_order_relaxed);
    return p;
  }

  std::atomic<bool> running{false};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> leaves_total{0};
  std::atomic<uint64_t> leaves_rebuilt{0};
  std::atomic<uint32_t> current_page{0};
  std::atomic<uint64_t> top_actions{0};
  std::atomic<uint64_t> transactions{0};
  std::atomic<uint64_t> batches_truncated{0};
  std::atomic<uint64_t> retries{0};
  std::atomic<uint64_t> copy_us{0};
  std::atomic<uint64_t> propagate_us{0};
  std::atomic<uint64_t> flush_us{0};
  std::atomic<bool> resumed{false};
  std::atomic<uint64_t> progress_records{0};
  std::atomic<uint64_t> throttle_pauses{0};
  std::atomic<uint64_t> throttle_us{0};
};

}  // namespace oir::obs

#endif  // OIR_OBS_PROGRESS_H_
