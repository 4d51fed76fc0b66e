#include "txn/transaction_manager.h"

#include "obs/json.h"
#include "obs/waitstate.h"
#include "testing/crash_point.h"
#include "util/logging.h"

namespace oir {

Transaction::~Transaction() {
  if (state_ == TxnState::kActive) owner_->Forget(this);
}

TransactionManager::TransactionManager(LogManager* log, LockManager* locks,
                                       BufferManager* bm, SpaceManager* space)
    : log_(log), locks_(locks), bm_(bm), space_(space) {}

std::unique_ptr<Transaction> TransactionManager::Begin() {
  TxnId id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  auto txn = std::make_unique<Transaction>(id, this);
  // The begin record is written lazily by LogManager::Append just before
  // the transaction's first real record; a read-only transaction never
  // touches the log.
  {
    MutexLock l(mu_);
    active_[id] = txn.get();
  }
  return txn;
}

Status TransactionManager::Commit(Transaction* txn) {
  obs::OpScope op(obs::OpType::kCommit);
  OIR_CHECK(txn->state() == TxnState::kActive);
  if (txn->last_lsn() != kInvalidLsn) {
    LogRecord commit;
    commit.type = LogType::kCommitTxn;
    OIR_CRASH_POINT("txn.commit.pre_flush");
    Lsn lsn = log_->Append(&commit, txn->ctx());
    OIR_RETURN_IF_ERROR(log_->FlushTo(lsn));
    OIR_CRASH_POINT("txn.commit.flushed");
    ReleaseTrackedLocks(txn);
    LogRecord end;
    end.type = LogType::kEndTxn;
    log_->Append(&end, txn->ctx());
    OIR_CRASH_POINT("txn.commit.end");
  } else {
    // Nothing logged: nothing to make durable or to undo.
    ReleaseTrackedLocks(txn);
  }
  txn->set_state(TxnState::kCommitted);
  {
    MutexLock l(mu_);
    active_.erase(txn->id());
  }
  return Status::OK();
}

Status TransactionManager::Abort(Transaction* txn) {
  OIR_CHECK(txn->state() == TxnState::kActive);
  if (txn->last_lsn() == kInvalidLsn) {
    ReleaseTrackedLocks(txn);
    txn->set_state(TxnState::kAborted);
    MutexLock l(mu_);
    active_.erase(txn->id());
    return Status::OK();
  }
  OIR_CRASH_POINT("txn.abort.begin");
  LogRecord abort;
  abort.type = LogType::kAbortTxn;
  log_->Append(&abort, txn->ctx());

  ApplyContext ctx{bm_, space_, log_};
  OIR_RETURN_IF_ERROR(RollbackTo(&ctx, txn->ctx(), kInvalidLsn, hook_));

  OIR_CRASH_POINT("txn.abort.rolled_back");
  ReleaseTrackedLocks(txn);
  LogRecord end;
  end.type = LogType::kEndTxn;
  log_->Append(&end, txn->ctx());
  txn->set_state(TxnState::kAborted);
  {
    MutexLock l(mu_);
    active_.erase(txn->id());
  }
  return Status::OK();
}

Status TransactionManager::LockLogical(Transaction* txn, RowId row,
                                       LockMode mode) {
  LockKey key = LogicalLockKey(row);
  OIR_RETURN_IF_ERROR(locks_->Lock(txn->id(), key, mode,
                                   /*conditional=*/false));
  txn->TrackLock(key);
  return Status::OK();
}

void TransactionManager::ReleaseTrackedLocks(Transaction* txn) {
  for (const LockKey& key : txn->tracked_locks()) {
    locks_->Unlock(txn->id(), key);
  }
  txn->clear_tracked_locks();
}

void TransactionManager::Forget(const Transaction* txn) {
  MutexLock l(mu_);
  auto it = active_.find(txn->id());
  if (it == active_.end() || it->second != txn) return;  // crash forgot it
  active_.erase(it);
  orphans_[txn->id()] = Orphan{txn->last_lsn(), txn->begin_lsn()};
}

void TransactionManager::ResetAfterCrash(TxnId next_id) {
  MutexLock l(mu_);
  active_.clear();
  orphans_.clear();
  TxnId cur = next_txn_id_.load(std::memory_order_relaxed);
  if (next_id > cur) next_txn_id_.store(next_id, std::memory_order_relaxed);
}

void TransactionManager::SnapshotActive(std::vector<CheckpointTxn>* out,
                                        Lsn* oldest_begin) const {
  MutexLock l(mu_);
  out->clear();
  *oldest_begin = kInvalidLsn;
  auto add = [&](TxnId id, Lsn last_lsn, Lsn begin_lsn) {
    // A transaction that has not logged anything yet (lazy begin) needs no
    // recovery work and does not pin the log.
    if (last_lsn == kInvalidLsn) return;
    out->push_back(CheckpointTxn{id, last_lsn});
    if (*oldest_begin == kInvalidLsn || begin_lsn < *oldest_begin) {
      *oldest_begin = begin_lsn;
    }
  };
  for (const auto& [id, txn] : active_) {
    add(id, txn->last_lsn(), txn->begin_lsn());
  }
  for (const auto& [id, o] : orphans_) add(id, o.last_lsn, o.begin_lsn);
}

std::string TransactionManager::DumpActiveTxnsJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("active").BeginArray();
  {
    MutexLock l(mu_);
    for (const auto& [id, txn] : active_) {
      w.BeginObject();
      w.Key("txn").Value(static_cast<uint64_t>(id));
      w.Key("last_lsn").Value(static_cast<uint64_t>(txn->last_lsn()));
      w.EndObject();
    }
    for (const auto& [id, o] : orphans_) {
      w.BeginObject();
      w.Key("txn").Value(static_cast<uint64_t>(id));
      w.Key("last_lsn").Value(static_cast<uint64_t>(o.last_lsn));
      w.Key("orphaned").Value(true);
      w.EndObject();
    }
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

size_t TransactionManager::NumActive() const {
  MutexLock l(mu_);
  return active_.size() + orphans_.size();
}

}  // namespace oir
