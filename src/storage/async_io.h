#ifndef OIR_STORAGE_ASYNC_IO_H_
#define OIR_STORAGE_ASYNC_IO_H_

// Asynchronous durable appends for the WAL's pipelined segment writer
// (log_manager.h). AsyncLogWriter owns its own file descriptor on the log
// file and turns each Submit() into "write these bytes at this offset, then
// force them to stable storage", reporting completion through a callback.
// A small pool of worker threads runs each request as a pwrite loop +
// fdatasync/fsync; N workers give N genuinely concurrent force operations,
// so consecutive log segments overlap their syncs.
//
// O_DIRECT may be refused by the filesystem (tmpfs); Open() then falls back
// to buffered fdatasync, and sync_mode() reports what it actually got.
//
// Contract (log_manager.cc relies on it):
//   * Submit() never performs I/O on the calling thread and never blocks on
//     the device; it is safe to call with caller locks held.
//   * The completion callback is invoked with NO internal locks held, so it
//     may take caller locks (the WAL mutex).
//   * Completions may arrive in any order; the caller sequences them.
//   * Drain() returns once every submitted request has completed.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "sync/mutex.h"
#include "util/status.h"

namespace oir {

// How a log segment is forced to stable storage.
enum class WalSyncMode : uint8_t {
  kFdatasync = 0,  // buffered write + fdatasync
  kFsync,          // buffered write + fsync (also forces metadata)
  kODirect,        // O_DIRECT sector-aligned write + fdatasync
};

const char* WalSyncModeName(WalSyncMode m);
bool ParseWalSyncMode(const std::string& s, WalSyncMode* out);

// Best-effort scheduling boost for the durable-path threads (the WAL
// sealer and the writer's I/O workers). They run short bursts between
// blocking waits, but commit-ack latency rides on how fast they get the
// CPU back once woken — on a loaded box, queueing behind a runnable OLTP
// thread costs milliseconds. Tries SCHED_FIFO (needs privilege), then a
// negative nice for just this thread; silently does nothing when neither
// is permitted.
void TryElevateLogThreadPriority();

// RAII scheduling boost for a foreground thread about to block on the
// durable path. A committer that sleeps in FlushTo wakes the instant its
// bytes are stable — but on a loaded box it then queues behind whatever
// OLTP threads are runnable, and that queueing (not the device) dominates
// commit-ack p99. Elevating to SCHED_FIFO for just the wait makes the
// wake-up preempt immediately; the boosted section only sleeps and then
// runs a microsecond epilogue, so it cannot starve anything. Restores the
// previous policy on destruction; after the first failed probe (no
// privilege) every subsequent construction is a cheap no-op.
class ScopedCommitPriorityBoost {
 public:
  ScopedCommitPriorityBoost();
  ~ScopedCommitPriorityBoost();

  ScopedCommitPriorityBoost(const ScopedCommitPriorityBoost&) = delete;
  ScopedCommitPriorityBoost& operator=(const ScopedCommitPriorityBoost&) =
      delete;

 private:
  bool boosted_ = false;
  int old_policy_ = 0;
  int old_priority_ = 0;
};

// Device sector size assumed for O_DIRECT alignment.
constexpr uint32_t kWalSectorSize = 512;

class AsyncLogWriter {
 public:
  // Invoked once per Submit(), on a worker thread, with no internal locks
  // held. `seq` is the caller's token; `s` is OK iff the bytes are stable;
  // `io_ns` is the wall time of the request's write+sync.
  using CompletionFn =
      std::function<void(uint64_t seq, Status s, uint64_t io_ns)>;

  // `inflight` is the maximum number of requests the caller keeps
  // outstanding (>= 1); it sizes the worker pool.
  AsyncLogWriter(WalSyncMode mode, uint32_t inflight, CompletionFn cb);
  ~AsyncLogWriter();

  AsyncLogWriter(const AsyncLogWriter&) = delete;
  AsyncLogWriter& operator=(const AsyncLogWriter&) = delete;

  // Opens the writer's own descriptor on `path` (degrading O_DIRECT as
  // described above) and starts the workers. Call once, before Submit().
  Status Open(const std::string& path);

  // Queues a durable append of `data` at file offset `offset`. For the
  // O_DIRECT mode the caller must pass a sector-aligned offset and a
  // sector-multiple length (log_manager materializes the padding); the
  // worker copies the bytes into a sector-aligned buffer.
  void Submit(uint64_t seq, uint64_t offset, std::string data);

  // Blocks until every request submitted so far has completed (its
  // callback has returned). New submissions during a drain extend it.
  void Drain();

  // Effective force discipline after Open's O_DIRECT probe.
  WalSyncMode sync_mode() const { return mode_; }

 private:
  struct Request {
    uint64_t seq;
    uint64_t offset;
    std::string data;
  };

  void WorkerLoop();
  // pwrite loop + sync for one request, on a worker thread.
  Status WriteDurable(const Request& req);

  int fd_ = -1;
  WalSyncMode mode_;  // fixed once Open returns
  const uint32_t workers_wanted_;
  const CompletionFn cb_;
  std::atomic<uint64_t> allocated_{0};  // prealloc watermark (file offset)

  Mutex mu_;
  CondVar cv_;
  std::deque<Request> queue_ OIR_GUARDED_BY(mu_);
  // Requests submitted but whose callback has not returned yet.
  uint64_t outstanding_ OIR_GUARDED_BY(mu_) = 0;
  bool stop_ OIR_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace oir

#endif  // OIR_STORAGE_ASYNC_IO_H_
