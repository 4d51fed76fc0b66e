#ifndef OIR_CORE_DB_H_
#define OIR_CORE_DB_H_

// Database environment facade: wires the disk, buffer manager, log,
// lock manager, space manager, transaction manager and the B+-tree
// together, and drives crash simulation + restart recovery.

#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "btree/btree.h"
#include "core/options.h"
#include "core/rebuild_journal.h"
#include "recovery/recovery.h"
#include "sync/mutex.h"
#include "txn/transaction_manager.h"

namespace oir {

class Index;

// One coherent stats snapshot across every subsystem (Db::GetStats).
struct StatsReport {
  CounterSnapshot counters;  // global event counters

  // Buffer pool.
  uint64_t pool_frames = 0;
  uint64_t pool_shards = 0;
  uint64_t pool_cached_pages = 0;

  // WAL.
  Lsn wal_tail_lsn = 0;
  Lsn wal_durable_lsn = 0;
  uint64_t wal_bytes_appended = 0;
  // Both true exactly when commits ride the pipelined group-commit path.
  bool wal_group_commit = false;
  bool wal_pipeline = false;
  std::string wal_backend;    // "portable" (file log) or "mem"
  std::string wal_sync_mode;  // effective sync discipline
  uint64_t wal_segment_bytes = 0;
  uint64_t wal_inflight_segments = 0;
  // Write+sync time of completed segments (file-backed logs only).
  uint64_t wal_segment_io_count = 0;
  double wal_segment_io_p50_ns = 0;
  double wal_segment_io_p99_ns = 0;

  // Lock manager.
  uint64_t locked_keys = 0;

  // B-tree.
  PageId root_page = kInvalidPageId;

  // Space.
  uint64_t pages_allocated = 0;
  uint64_t pages_deallocated = 0;
  uint64_t end_page = 0;

  // This Db's running (or last) online rebuild.
  obs::RebuildProgress rebuild_progress;

  // Last rebuild / recovery of this Db, as JSON objects ("" if none).
  std::string last_rebuild_json;
  std::string last_recovery_json;
};

class Db {
 public:
  // Creates a fresh database (bootstraps an empty index). Existing files
  // at options.file_path / options.log_path are truncated.
  static Status Open(const DbOptions& options, std::unique_ptr<Db>* out);

  // Opens a database persisted by a previous process: requires
  // file_path + log_path. Runs full restart recovery
  // (redo from the last checkpoint, undo of in-flight transactions) before
  // returning. `stats` may be null.
  static Status OpenExisting(const DbOptions& options,
                             std::unique_ptr<Db>* out,
                             RecoveryStats* stats = nullptr);
  ~Db();

  Db(const Db&) = delete;
  Db& operator=(const Db&) = delete;

  std::unique_ptr<Transaction> BeginTxn() { return txn_mgr_->Begin(); }
  Status Commit(Transaction* txn) { return txn_mgr_->Commit(txn); }
  Status Abort(Transaction* txn) { return txn_mgr_->Abort(txn); }

  // Simulates a crash (all non-durable state is discarded) followed by
  // restart recovery: analysis/redo, logical undo of losers, freeing of
  // still-deallocated pages, bit cleanup.
  Status CrashAndRecover(RecoveryStats* stats);

  // Takes a fuzzy checkpoint: snapshots the space manager's page states
  // and the active-transaction table into a kCheckpoint record, flushes
  // every dirty page, forces the log and publishes the master record.
  // After it completes, restart recovery scans from the checkpoint instead
  // of the log head. Returns (optionally) the LSN below which the log is
  // no longer needed.
  Status Checkpoint(Lsn* truncation_horizon = nullptr);

  // Takes a checkpoint and then reclaims the no-longer-needed log prefix.
  Status CheckpointAndTruncate();

  // ---- resumable rebuild ----
  // True when restart recovery found a rebuild that was in flight at the
  // crash (a durable kRebuildProgress record, or a checkpoint carrying
  // one, without a matching done record).
  bool has_pending_rebuild() const { return pending_rebuild_.pending; }
  const RebuildResumeState& pending_rebuild() const {
    return pending_rebuild_;
  }

  // Re-runs the crashed rebuild from its last durable cursor. `options`
  // supplies the knobs (ntasize, throttle, ...); the cursor and counters
  // come from the recovered pending state. InvalidArgument when no
  // rebuild is pending. On success the pending state is cleared.
  Status ResumeRebuild(const RebuildOptions& options, RebuildResult* result);

  // Fills `out` with a stats snapshot spanning the buffer pool, WAL, lock
  // manager, B-tree, space map, rebuild, recovery and global counters.
  Status GetStats(StatsReport* out);

  // The same snapshot as one JSON document with "counters", "pool", "wal",
  // "lock", "btree", "space", "rebuild_progress", "rebuild", "recovery"
  // and "wait_profile" sections.
  std::string DumpStatsJson();

  // Human-readable rendering of the same snapshot.
  std::string DumpStatsText();

  // Writes a flight-record bundle (stats, trace ring, wait profile, lock
  // table, active transactions) right now. On success returns OK and
  // stores the bundle path in *path (if non-null). Do not call from a
  // context holding component mutexes.
  Status DumpFlightRecord(std::string* path = nullptr);

  Index* index() { return index_.get(); }
  BTree* tree() { return tree_.get(); }
  TransactionManager* txn_manager() { return txn_mgr_.get(); }
  BufferManager* buffer_manager() { return bm_.get(); }
  LogManager* log_manager() { return log_.get(); }
  LockManager* lock_manager() { return locks_.get(); }
  SpaceManager* space_manager() { return space_.get(); }
  Disk* disk() { return disk_.get(); }
  const DbOptions& options() const { return options_; }

 private:
  explicit Db(const DbOptions& options);

  // Constructs the component stack shared by Open and OpenExisting: disk,
  // log, buffer pool (with its write-back worker), locks, space, txn
  // manager, tree and index. truncate_files starts the disk and log files
  // fresh.
  Status BuildStack(bool truncate_files);

  // Installs recovery's rebuild resume point: records it for
  // ResumeRebuild and re-arms (or clears) the checkpoint journal.
  void AdoptRebuildResume(const RebuildResumeState& resume);
  // Keeps the stats of the restart recovery that just ran for GetStats.
  void NoteRecovery(const RecoveryStats& stats);

  // Registers the flight-recorder providers (stats / lock table / active
  // transactions) and starts the stats publisher if configured. Called at
  // the end of Open/OpenExisting, once the full stack exists.
  void StartObservability();
  // Unregisters providers (blocking out any in-flight dump) and joins the
  // publisher. Must run before any component is torn down.
  void StopObservability();
  void StatsPublisherLoop(std::string path);

  DbOptions options_;
  // Set when OIR_TEST_WAL=file promoted an in-memory WAL to a temp file;
  // the destructor removes the file and its master sidecar.
  std::string ephemeral_wal_path_;
  std::unique_ptr<Disk> disk_;
  std::unique_ptr<BufferManager> bm_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<LockManager> locks_;
  std::unique_ptr<SpaceManager> space_;
  std::unique_ptr<TransactionManager> txn_mgr_;
  std::unique_ptr<BTree> tree_;
  std::unique_ptr<Index> index_;

  // Progress mailbox between the rebuilder and Checkpoint (see
  // rebuild_journal.h), plus the resume point recovered after a crash.
  RebuildJournal rebuild_journal_;
  RebuildResumeState pending_rebuild_;

  // Stats of the last restart recovery (OpenExisting / CrashAndRecover).
  Mutex recovery_mu_;
  std::optional<RecoveryStats> last_recovery_ OIR_GUARDED_BY(recovery_mu_);

  // Flight-recorder registration tokens (0 = not registered).
  uint64_t fr_stats_token_ = 0;
  uint64_t fr_locks_token_ = 0;
  uint64_t fr_txns_token_ = 0;

  Mutex pub_mu_;
  CondVar pub_cv_;
  bool pub_stop_ OIR_GUARDED_BY(pub_mu_) = false;
  std::thread pub_thread_;
};

}  // namespace oir

#endif  // OIR_CORE_DB_H_
