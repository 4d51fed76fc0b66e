#ifndef OIR_WAL_LOG_MANAGER_H_
#define OIR_WAL_LOG_MANAGER_H_

// Append-only write-ahead log. LSNs are byte offsets of records within the
// log stream. The log is kept in memory with an explicit durability
// boundary (`durable_lsn`): FlushTo() advances it, and SimulateCrash()
// discards everything beyond it — modeling the durability contract of a
// real log device for crash-recovery testing without an actual reboot.
//
// The in-memory copy lives in a ChunkStore (util/chunk_store.h) addressed
// by LSN: 1 MiB chunks that never move. An append copies into the tail
// chunk and spills into a fresh one, so a growing log is never copied;
// DiscardPrefix frees the whole chunks below the trim point. A record that
// straddles two chunks is read through a scratch copy.
//
// Record framing: [len:4][masked crc32c:4][payload]. A failed CRC or a
// truncated frame marks the end of the recoverable log (torn tail).
//
// Durable path (group commit): FlushTo() callers enqueue their target LSN
// and block on a condition variable; the pipelined segment writer makes
// the log durable and wakes them. The in-memory log tail is carved into
// bounded segments. The sealer thread copies [submitted_lsn, end) out of
// the buffer under the mutex (no I/O inside the critical section), hands
// the segment to an AsyncLogWriter (a pwrite+fdatasync worker pool,
// async_io.h), and keeps sealing: up to `inflight_segments` segments
// overlap their writes and syncs. durable_lsn advances only when the
// *front* of the inflight queue completes, so it is always a contiguous
// stable prefix; waiters are woken on completion, not on submission.
//
// File-backed logs always group-commit. An in-memory log flushes
// synchronously unless EnableGroupCommit() forces the pipeline on, where it
// completes segments without physical I/O — exercising the protocol, and
// its crash points, in tests.

#include <atomic>
#include <deque>
#include <string>
#include <thread>

#include "storage/async_io.h"
#include "storage/buffer_manager.h"  // for LogFlusher
#include "sync/mutex.h"
#include "util/chunk_store.h"
#include "util/histogram.h"
#include "util/status.h"
#include "util/types.h"
#include "wal/log_record.h"

namespace oir {

// Per-transaction logging context: identifies the owner and carries the
// prevLSN chain. Handed out by Transaction; defined here so lower layers
// (space manager, B+-tree) can log without depending on the txn module.
struct TxnContext {
  TxnId txn_id = kInvalidTxnId;
  Lsn last_lsn = kInvalidLsn;
  // LSN of the transaction's begin record. Logging is lazy: the begin
  // record is appended immediately before the transaction's first real
  // record, so a read-only transaction writes no log at all (and its
  // commit needs no flush).
  Lsn begin_lsn = kInvalidLsn;
};

// Relaxed atomic access to a TxnContext's LSN fields. The owning thread
// writes them (LogManager::Append); checkpoints and the flight recorder
// read them from other threads through TransactionManager's active table.
inline Lsn LoadLsn(const Lsn& field) {
  return std::atomic_ref<Lsn>(const_cast<Lsn&>(field))
      .load(std::memory_order_relaxed);
}
inline void StoreLsn(Lsn* field, Lsn value) {
  std::atomic_ref<Lsn>(*field).store(value, std::memory_order_relaxed);
}

// Durable-path tuning. Fixed at construction/Open.
struct WalOptions {
  // Maximum bytes per sealed segment. Smaller segments cut commit-ack
  // latency; larger ones amortize the per-sync cost.
  uint32_t segment_bytes = 256 * 1024;

  // Maximum sealed-but-not-yet-durable segments in flight at the writer.
  uint32_t inflight_segments = 4;

  // Force discipline for file-backed logs (async_io.h).
  WalSyncMode sync_mode = WalSyncMode::kFdatasync;
};

class LogManager : public LogFlusher {
 public:
  // In-memory log (tests, benchmarks; crash simulation via SimulateCrash).
  explicit LogManager(const WalOptions& wal = WalOptions());
  ~LogManager() override;

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  // File-backed log: records become durable in `path` when flushed, and a
  // sidecar `path.master` holds the master checkpoint pointer. Open reads
  // any existing content (surviving a real process restart); pass
  // truncate=true to start fresh. OIR_WAL_SYNC overrides wal.sync_mode.
  static Status Open(const std::string& path, bool truncate,
                     std::unique_ptr<LogManager>* out,
                     const WalOptions& wal = WalOptions());

  // Serializes `rec`, chaining it to ctx->last_lsn, and advances
  // ctx->last_lsn to the new record's LSN (also stored in rec->lsn).
  Lsn Append(LogRecord* rec, TxnContext* ctx);

  // Appends a record not belonging to any transaction chain.
  Lsn AppendSystem(LogRecord* rec);

  // Durability. FlushTo returns once the record at `lsn` is durable; under
  // group commit the calling thread rides on a segment completion.
  Status FlushTo(Lsn lsn) override;
  Status FlushAll();
  Lsn durable_lsn() const;

  // Turns group commit on; it stays on for the life of the log. Open does
  // this for file-backed logs. In-memory logs flush synchronously until a
  // caller forces the grouped protocol (tests, benchmarks).
  void EnableGroupCommit();
  bool group_commit() const;

  // Effective durable-path configuration (after Open's O_DIRECT probe).
  uint32_t segment_bytes() const { return wal_opts_.segment_bytes; }
  uint32_t inflight_segments() const { return wal_opts_.inflight_segments; }
  const char* backend_name() const;
  const char* sync_mode_name() const;
  // Write+sync wall time of each completed segment (file-backed logs): the
  // device's share of commit latency; the rest of a commit is software.
  const Histogram& segment_io_ns() const { return segment_io_ns_; }

  // LSN one past the last appended record (exclusive end of log).
  Lsn tail_lsn() const;

  // LSN of the first readable record (advances when the log is trimmed).
  Lsn head_lsn() const { return trim_lsn(); }

  // Random access read of the record at `lsn`. If `next_lsn` is non-null it
  // receives the LSN of the following record.
  Status ReadRecord(Lsn lsn, LogRecord* rec, Lsn* next_lsn = nullptr) const;

  // Forward scan. Stops cleanly at the torn tail.
  class Iterator {
   public:
    bool Valid() const { return valid_; }
    const LogRecord& record() const { return rec_; }
    Lsn lsn() const { return lsn_; }
    void Next();

   private:
    friend class LogManager;
    Iterator(const LogManager* log, Lsn start, Lsn limit);
    void ReadCurrent();

    const LogManager* log_;
    Lsn lsn_;
    Lsn next_lsn_;
    Lsn limit_;
    bool valid_;
    LogRecord rec_;
  };

  // Iterates records in [start, limit). limit = kInvalidLsn means tail.
  Iterator Scan(Lsn start, Lsn limit = kInvalidLsn) const;

  // ---- checkpoints ----
  // Records the location of the most recent complete checkpoint (the
  // "master record"). Survives a crash only if `lsn` is durable by then.
  void SetMasterCheckpoint(Lsn lsn);
  Lsn master_checkpoint() const;

  // Reclaims the log before `lsn` (exclusive): records below it become
  // unreadable and their memory is released. The caller must ensure no
  // checkpoint or active transaction needs them (see Db::Checkpoint).
  // Quiesces the pipeline first: the file offsets of every LSN change.
  void DiscardPrefix(Lsn lsn);

  // First readable LSN (head of the retained log).
  Lsn trim_lsn() const;

  // Crash simulation: discard all records beyond the durability boundary.
  // Drains in-flight segments first (their completions land before the
  // "power-off" line or not at all — see SetFailFlushes), then truncates
  // both the buffer and, for file-backed logs, the file, so a subsequent
  // Open cannot resurrect post-crash bytes.
  void SimulateCrash();

  // Fault injection: while set, every flush that would need to advance the
  // durability boundary fails with IOError (records already durable still
  // report success), and no in-flight segment completion may advance it
  // either. Lock-free — crash-point handlers flip it from inside arbitrary
  // component critical sections to model the log device dying at the
  // instant of the crash. Cleared by the test harness before recovery
  // (after SimulateCrash has drained the pipeline).
  void SetFailFlushes(bool on) {
    fail_flushes_.store(on, std::memory_order_relaxed);
  }
  bool fail_flushes() const {
    return fail_flushes_.load(std::memory_order_relaxed);
  }

  // Total bytes appended (the Table 1 "log space" metric).
  uint64_t TotalBytesAppended() const;

 private:
  static constexpr Lsn kHeaderSize = 16;  // so that the first LSN != 0
  static constexpr Lsn kFileHeaderSize = 24;

  // Appends a pre-encoded payload: takes mu_ only for the buffer append
  // (serialization and CRC are done by the caller, outside the lock).
  Lsn AppendEncoded(LogRecord* rec, const std::string& payload);
  // Rewrites the sidecar master record.
  Status PersistMasterLocked() OIR_REQUIRES(mu_);

  // Waiter protocol. The sealer sleeps on flush_cv_ until a waiter raises
  // requested_lsn_ past the submitted boundary, makes the log durable, and
  // wakes every waiter via flushed_cv_. Errors are published through an
  // epoch counter so only the waiters of the failed round (and later) see
  // them.
  void PipelineLoop();  // sealer: copy under mu_, I/O at the async writer
  Status FlushToLocked(Lsn lsn) OIR_REQUIRES(mu_);

  // Pipeline internals.
  struct Segment {
    uint64_t seq = 0;
    Lsn begin = 0;
    Lsn end = 0;       // exclusive; durable_lsn_ advances here on success
    bool done = false;
    Status status;
  };
  // AsyncLogWriter completion callback (writer thread).
  void OnSegmentComplete(uint64_t seq, Status s, uint64_t io_ns);
  // Pops completed segments off the front of inflight_, advancing
  // durable_lsn_ (unless fail_flushes_ is set) and publishing errors.
  void CompleteSegmentsLocked() OIR_REQUIRES(mu_);
  // Builds the (offset, bytes) submission for [begin, end); O_DIRECT mode
  // sector-aligns the range, materializing leading bytes from the header/
  // buffer and zero-padding the tail (zeros never parse as a valid frame).
  void BuildSegmentLocked(Lsn begin, Lsn end, uint64_t* offset,
                          std::string* data) const OIR_REQUIRES(mu_);
  // Stops the sealer from submitting and waits until nothing is in flight
  // (the writer drained and every completion was processed). Caller must
  // not hold mu_.
  void QuiescePipeline();
  // Record an acked commit for the exact group-size accounting.
  void AckLocked() OIR_REQUIRES(mu_);
  // Bytes in the file for LSN x (file layout: 24-byte header + body).
  Lsn FileOffsetLocked(Lsn lsn) const OIR_REQUIRES(mu_) {
    return kFileHeaderSize + (lsn - trim_base_);
  }

  int fd_ = -1;                  // file-backed mode when >= 0
  std::string path_;
  WalOptions wal_opts_;
  std::unique_ptr<AsyncLogWriter> writer_;  // file-backed logs only

  std::atomic<bool> fail_flushes_{false};

  mutable Mutex mu_;
  bool group_commit_ OIR_GUARDED_BY(mu_) = false;
  bool stop_sealer_ OIR_GUARDED_BY(mu_) = false;
  // Highest tail any waiter needs.
  Lsn requested_lsn_ OIR_GUARDED_BY(mu_) = 0;
  // Bumped on each failed flush round.
  uint64_t flush_err_seq_ OIR_GUARDED_BY(mu_) = 0;
  Status last_flush_error_ OIR_GUARDED_BY(mu_);
  CondVar flush_cv_;    // wakes the sealer
  CondVar flushed_cv_;  // wakes FlushTo waiters and QuiescePipeline
  // Started by EnableGroupCommit, joined (unlocked) by the destructor
  // after stop_sealer_ is set — never touched concurrently, so unguarded.
  std::thread sealer_;
  // The retained log, addressed by LSN: bytes [trim_base_, tail_), where
  // an untrimmed log starts with its header padding at LSN 0. Chunks below
  // the trim point are freed; appends never move earlier bytes.
  ChunkStore bytes_ OIR_GUARDED_BY(mu_);
  Lsn trim_base_ OIR_GUARDED_BY(mu_) = 0;  // first retained LSN
  Lsn tail_ OIR_GUARDED_BY(mu_) = 0;       // one past the last record
  // Exclusive: bytes [0, durable_lsn_) are durable.
  Lsn durable_lsn_ OIR_GUARDED_BY(mu_);
  Lsn master_ckpt_ OIR_GUARDED_BY(mu_) = kInvalidLsn;
  // Value that survives a crash.
  Lsn durable_master_ckpt_ OIR_GUARDED_BY(mu_) = kInvalidLsn;

  // ---- pipeline state ----
  // Boundary up to which segments have been sealed (>= durable_lsn_).
  Lsn submitted_lsn_ OIR_GUARDED_BY(mu_) = 0;
  std::deque<Segment> inflight_ OIR_GUARDED_BY(mu_);
  uint64_t next_seg_seq_ OIR_GUARDED_BY(mu_) = 1;
  // Sealing suppressed while a quiesce (crash sim, trim, shutdown) runs.
  bool quiescing_ OIR_GUARDED_BY(mu_) = false;
  // File offset one past the last submitted segment's sector padding; an
  // O_DIRECT seal whose first sector would overlap it must wait (two
  // in-flight writes to one sector could land in either order).
  uint64_t padded_end_off_ OIR_GUARDED_BY(mu_) = 0;
  // Mirror of the 24-byte file header, for O_DIRECT leading-byte fill.
  std::string file_header_ OIR_GUARDED_BY(mu_);
  // Exact group-size accounting: durable_adv_seq_ bumps on every durable
  // advance; commits acked under the same seq form one group.
  uint64_t durable_adv_seq_ OIR_GUARDED_BY(mu_) = 0;
  uint64_t last_group_seq_ OIR_GUARDED_BY(mu_) = 0;
  // Added to under mu_ by OnSegmentComplete; readers rely on the
  // histogram's own lock.
  Histogram segment_io_ns_;
};

}  // namespace oir

#endif  // OIR_WAL_LOG_MANAGER_H_
