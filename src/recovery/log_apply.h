#ifndef OIR_RECOVERY_LOG_APPLY_H_
#define OIR_RECOVERY_LOG_APPLY_H_

// Redo and undo application of individual log records, shared by runtime
// rollback (transaction abort, failed top actions) and restart recovery.
//
// Undo of leaf-level kInsert/kDelete records is *logical*: by the time a
// transaction rolls back, the key may have migrated to a different leaf via
// splits, shrinks or an online rebuild, so position-based (physical) undo
// would corrupt the tree. The LogicalUndoHook — implemented by the B+-tree —
// re-traverses and compensates through the index manager, ARIES/IM style.
// All records written inside nested top actions are undone physically: an
// incomplete NTA still holds its address locks (runtime) or has no
// concurrent activity (restart), so positions are stable.

#include "space/space_manager.h"
#include "storage/buffer_manager.h"
#include "storage/slotted_page.h"
#include "util/status.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace oir {

struct ApplyContext {
  BufferManager* bm = nullptr;
  SpaceManager* space = nullptr;
  LogManager* log = nullptr;
};

// Implemented by the B+-tree for logical compensation of leaf operations.
class LogicalUndoHook {
 public:
  virtual ~LogicalUndoHook() = default;
  // Compensates a leaf insert: removes rec.row from wherever it now lives.
  // Writes the CLR (chained to ctx) itself.
  virtual Status UndoLeafInsert(TxnContext* ctx, const LogRecord& rec) = 0;
  // Compensates a leaf delete: re-inserts rec.row.
  virtual Status UndoLeafDelete(TxnContext* ctx, const LogRecord& rec) = 0;
};

// Applies a row record (kInsert, kDelete, kBatchInsert, kBatchDelete) to
// its page, `sp`: the one row mover of the B+-tree's logged updates, of
// redo and of compensation.
void ApplyRows(SlottedPage* sp, const LogRecord& rec);

// The page link that a kSetNextLink or kSetPrevLink record of `type` sets.
inline PageId* LinkOf(PageHeader* h, LogType type) {
  return type == LogType::kSetNextLink ? &h->next_page : &h->prev_page;
}

// Redo during restart recovery: applies `rec` if the affected page's
// pageLSN is older than rec.lsn. Also replays page state transitions into
// the space manager.
Status RedoRecord(ApplyContext* ctx, const LogRecord& rec);

// Undoes a single record, writing the compensation log record (CLR) chained
// into `txn`. For leaf-level kInsert/kDelete, delegates to `hook` when
// non-null; otherwise performs physical undo.
Status UndoRecord(ApplyContext* ctx, TxnContext* txn, const LogRecord& rec,
                  LogicalUndoHook* hook);

// Walks the transaction's prevLSN chain from txn->last_lsn backwards,
// undoing every undoable record until (and excluding) `until_lsn`
// (kInvalidLsn = roll back everything). Completed nested top actions are
// skipped via their NtaEnd dummy CLR. On return, txn->last_lsn points at
// the last CLR written.
Status RollbackTo(ApplyContext* ctx, TxnContext* txn, Lsn until_lsn,
                  LogicalUndoHook* hook);

}  // namespace oir

#endif  // OIR_RECOVERY_LOG_APPLY_H_
