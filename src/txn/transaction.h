#ifndef OIR_TXN_TRANSACTION_H_
#define OIR_TXN_TRANSACTION_H_

// Transactions and nested top actions (Section 2). A transaction carries
// its prevLSN chain (TxnContext) and the set of transaction-duration locks
// (logical row locks). Address locks taken by split/shrink/rebuild top
// actions are tracked by the NTA scopes inside the index manager, not here,
// because they are released when the top action completes rather than at
// transaction end.

#include <cstdint>
#include <vector>

#include "sync/lock_manager.h"
#include "util/types.h"
#include "wal/log_manager.h"

namespace oir {

class TransactionManager;

enum class TxnState : uint8_t {
  kActive = 0,
  kCommitted = 1,
  kAborted = 2,
};

class Transaction {
 public:
  Transaction(TxnId id, TransactionManager* owner) : owner_(owner) {
    ctx_.txn_id = id;
  }
  // A transaction destroyed while still active (an error or a crash point
  // unwound its owner before Commit/Abort) leaves the owner's active table;
  // the owner keeps what a checkpoint needs of it (see
  // TransactionManager::Forget), so recovery still finds it a loser.
  ~Transaction();

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  TxnId id() const { return ctx_.txn_id; }
  TxnContext* ctx() { return &ctx_; }
  Lsn last_lsn() const { return LoadLsn(ctx_.last_lsn); }

  // LSN of the transaction's begin record: the log may not be truncated
  // past the oldest active transaction's begin (its undo chain must stay
  // readable). kInvalidLsn until the first record is logged (lazy begin).
  Lsn begin_lsn() const { return LoadLsn(ctx_.begin_lsn); }

  TxnState state() const { return state_; }
  void set_state(TxnState s) { state_ = s; }

  // Registers a transaction-duration lock for release at commit/abort.
  void TrackLock(LockKey key) { txn_locks_.push_back(key); }
  const std::vector<LockKey>& tracked_locks() const { return txn_locks_; }
  void clear_tracked_locks() { txn_locks_.clear(); }

 private:
  TransactionManager* const owner_;
  TxnContext ctx_;
  TxnState state_ = TxnState::kActive;
  std::vector<LockKey> txn_locks_;
};

}  // namespace oir

#endif  // OIR_TXN_TRANSACTION_H_
