#ifndef OIR_TXN_TRANSACTION_MANAGER_H_
#define OIR_TXN_TRANSACTION_MANAGER_H_

// Transaction manager: begin / commit / abort with ARIES-style rollback.
// Commit forces the log (the commit record must be durable); abort walks
// the prevLSN chain writing CLRs, skipping completed nested top actions
// via their dummy CLRs (Section 2: split/shrink/rebuild top actions are
// never undone once complete, even if the enclosing transaction rolls
// back).

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "recovery/log_apply.h"
#include "sync/lock_manager.h"
#include "sync/mutex.h"
#include "txn/transaction.h"
#include "util/status.h"

namespace oir {

class TransactionManager {
 public:
  TransactionManager(LogManager* log, LockManager* locks, BufferManager* bm,
                     SpaceManager* space);

  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  // Wired by the database facade once the B+-tree exists: logical undo of
  // leaf inserts/deletes during rollback.
  void SetUndoHook(LogicalUndoHook* hook) { hook_ = hook; }

  std::unique_ptr<Transaction> Begin();

  // Logs the commit record, forces the log, releases transaction-duration
  // locks and logs the end record.
  Status Commit(Transaction* txn);

  // Rolls back all of the transaction's effects (completed top actions
  // excepted) and releases its locks.
  Status Abort(Transaction* txn);

  // Acquires a transaction-duration logical row lock and tracks it for
  // release at commit/abort. Re-acquisitions are tracked once per call and
  // released as many times.
  Status LockLogical(Transaction* txn, RowId row, LockMode mode);

  // Crash simulation: forgets in-flight transactions and advances the id
  // counter past every id seen in the recovered log.
  void ResetAfterCrash(TxnId next_id);

  // Called by ~Transaction for a transaction that is still active: drops
  // the pointer from the active table and keeps the transaction's last and
  // begin LSNs as an orphan. Orphans stay in checkpoints and the log
  // truncation horizon (nothing rolled them back, so recovery must find
  // them losers) and in the diagnostic dump, until ResetAfterCrash.
  void Forget(const Transaction* txn);

  LockManager* lock_manager() { return locks_; }
  // Active transactions, orphans included.
  size_t NumActive() const;

  // Snapshot of the active transactions (for fuzzy checkpoints): their
  // ids, last LSNs and the oldest begin LSN (the log truncation horizon;
  // kInvalidLsn when no transaction is active).
  void SnapshotActive(std::vector<CheckpointTxn>* out,
                      Lsn* oldest_begin) const;

  // Diagnostic dump of the active-transaction table as a JSON value
  // ({"active":[{"txn":..,"last_lsn":..},...]}), for the flight recorder.
  std::string DumpActiveTxnsJson() const;

  TxnId next_txn_id() const {
    return next_txn_id_.load(std::memory_order_relaxed);
  }

 private:
  void ReleaseTrackedLocks(Transaction* txn);

  LogManager* const log_;
  LockManager* const locks_;
  BufferManager* const bm_;
  SpaceManager* const space_;
  LogicalUndoHook* hook_ = nullptr;

  std::atomic<TxnId> next_txn_id_{1};
  mutable Mutex mu_;
  // Active transactions. The Transaction object is owned by the caller;
  // Commit, Abort or its destructor (Forget) removes it, so the table
  // never holds a freed one.
  std::map<TxnId, Transaction*> active_ OIR_GUARDED_BY(mu_);
  // Transactions destroyed while active: id -> {last_lsn, begin_lsn}.
  struct Orphan {
    Lsn last_lsn;
    Lsn begin_lsn;
  };
  std::map<TxnId, Orphan> orphans_ OIR_GUARDED_BY(mu_);
};

}  // namespace oir

#endif  // OIR_TXN_TRANSACTION_MANAGER_H_
