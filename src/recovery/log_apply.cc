#include "recovery/log_apply.h"

#include <algorithm>
#include <map>
#include <set>

#include <cstring>
#include <vector>

#include "storage/slotted_page.h"
#include "util/coding.h"
#include "util/logging.h"

namespace oir {

namespace {

// Fetches rec.page_id, X-latches it, runs `fn` on the slotted view, stamps
// the page LSN and marks it dirty. `fn` must not fail.
template <typename Fn>
Status WithPageX(ApplyContext* ctx, PageId page, Lsn stamp_lsn, Fn fn) {
  PageRef ref;
  OIR_RETURN_IF_ERROR(ctx->bm->Fetch(page, &ref));
  ref.latch().LockX();
  SlottedPage sp(ref.data(), ctx->bm->page_size());
  fn(&sp);
  sp.header()->page_lsn = stamp_lsn;
  ref.latch().UnlockX();
  ref.MarkDirty();
  return Status::OK();
}

Lsn PageLsnOf(ApplyContext* ctx, PageId page) {
  PageRef ref;
  Status s = ctx->bm->Fetch(page, &ref);
  OIR_CHECK(s.ok());
  ref.latch().LockS();
  Lsn lsn = ref.header()->page_lsn;
  ref.latch().UnlockS();
  return lsn;
}

// Applies the row movements of a kKeyCopy record onto its target pages.
// Targets whose pageLSN is already >= rec.lsn are skipped (redo test is
// per target page since one record covers many pages). Each source page is
// copied once into a page image under a brief S latch (a source's entries
// are adjacent in the record), and its rows go to the target with the same
// SlottedPage::InsertRowsFrom the rebuild's own apply uses.
Status RedoKeyCopy(ApplyContext* ctx, const LogRecord& rec) {
  // Decide per-target whether redo is needed.
  std::map<PageId, bool> need;
  for (const KeyCopyEntry& e : rec.copies) {
    if (need.count(e.tgt_page)) continue;
    need[e.tgt_page] = PageLsnOf(ctx, e.tgt_page) < rec.lsn;
  }
  const uint32_t page_size = ctx->bm->page_size();
  std::vector<char> image(page_size);
  SlottedPage sp(image.data(), page_size);
  PageId imaged = kInvalidPageId;
  // Apply entries in record order (ascending target positions per target).
  for (const KeyCopyEntry& e : rec.copies) {
    if (!need[e.tgt_page]) continue;
    if (e.src_page != imaged) {
      PageRef src;
      OIR_RETURN_IF_ERROR(ctx->bm->Fetch(e.src_page, &src));
      src.latch().LockS();
      if (src.header()->page_lsn != e.src_ts) {
        src.latch().UnlockS();
        return Status::Corruption(
            "keycopy redo: source page timestamp mismatch (flush-before-free "
            "ordering violated?)");
      }
      std::memcpy(image.data(), src.data(), page_size);
      src.latch().UnlockS();
      imaged = e.src_page;
    }
    OIR_RETURN_IF_ERROR(WithPageX(
        ctx, e.tgt_page, /*stamp (temporary)=*/rec.lsn, [&](SlottedPage* tp) {
          OIR_CHECK(tp->InsertRowsFrom(e.tgt_first, sp, e.src_first,
                                       e.src_last));
        }));
    // Keep `need` true so later entries for the same target still apply:
    // the stamp above already set page_lsn = rec.lsn, but the decision map
    // is what we consult.
  }
  return Status::OK();
}

// Removes the copied rows from target pages (redo of kKeyCopyUndo CLRs and
// runtime undo of kKeyCopy share this application).
Status ApplyKeyCopyRemoval(ApplyContext* ctx, const LogRecord& rec,
                           bool check_lsn) {
  std::map<PageId, bool> need;
  for (const KeyCopyEntry& e : rec.copies) {
    if (need.count(e.tgt_page)) continue;
    need[e.tgt_page] = !check_lsn || PageLsnOf(ctx, e.tgt_page) < rec.lsn;
  }
  // Delete in reverse record order so higher positions go first and earlier
  // entries' positions stay valid.
  for (auto it = rec.copies.rbegin(); it != rec.copies.rend(); ++it) {
    const KeyCopyEntry& e = *it;
    if (!need[e.tgt_page]) continue;
    const uint32_t count = e.src_last - e.src_first + 1;
    OIR_RETURN_IF_ERROR(
        WithPageX(ctx, e.tgt_page, rec.lsn, [&](SlottedPage* tp) {
          for (uint32_t j = 0; j < count; ++j) {
            tp->DeleteAt(e.tgt_first);
          }
        }));
  }
  return Status::OK();
}

}  // namespace

void ApplyRows(SlottedPage* sp, const LogRecord& r) {
  switch (r.type) {
    case LogType::kInsert:
      OIR_CHECK(sp->InsertAt(r.pos, Slice(r.row)));
      break;
    case LogType::kDelete:
      OIR_DCHECK(sp->Get(r.pos) == Slice(r.row));
      sp->DeleteAt(r.pos);
      break;
    case LogType::kBatchInsert:
      for (size_t i = 0; i < r.rows.size(); ++i) {
        OIR_CHECK(sp->InsertAt(static_cast<SlotId>(r.pos + i), r.rows[i]));
      }
      break;
    default:  // kBatchDelete
      for (size_t i = 0; i < r.rows.size(); ++i) sp->DeleteAt(r.pos);
      break;
  }
}

Status RedoRecord(ApplyContext* ctx, const LogRecord& rec) {
  switch (rec.type) {
    case LogType::kBeginTxn:
    case LogType::kCommitTxn:
    case LogType::kAbortTxn:
    case LogType::kEndTxn:
    case LogType::kNtaEnd:
    case LogType::kCheckpoint:
    case LogType::kRebuildProgress:
      // Bookkeeping records: never applied to a page. Checkpoints seed the
      // analysis pass and rebuild-progress records arm the resume cursor —
      // both are consumed by RecoveryManager, not here.
      return Status::OK();

    case LogType::kAlloc: {
      Disk* disk = ctx->bm->disk();
      for (PageId p : rec.pages) {
        // Make sure the device covers the page, then record the state.
        if (p >= disk->NumPages()) {
          OIR_RETURN_IF_ERROR(disk->Extend(p + 1));
        }
        ctx->space->SetStateForRecovery(p, PageState::kAllocated);
      }
      return Status::OK();
    }
    case LogType::kDealloc:
      for (PageId p : rec.pages) {
        ctx->space->SetStateForRecovery(p, PageState::kDeallocated);
      }
      return Status::OK();
    case LogType::kFreePage:
      for (PageId p : rec.pages) {
        ctx->bm->Discard(p);
        ctx->space->SetStateForRecovery(p, PageState::kFree);
      }
      return Status::OK();

    case LogType::kFormatPage: {
      if (PageLsnOf(ctx, rec.page_id) >= rec.lsn) return Status::OK();
      return WithPageX(ctx, rec.page_id, rec.lsn, [&](SlottedPage* sp) {
        sp->Init(rec.page_id, rec.level);
        sp->header()->prev_page = rec.prev_page;
        sp->header()->next_page = rec.next_page;
      });
    }
    case LogType::kInsert:
    case LogType::kDelete:
    case LogType::kBatchInsert:
    case LogType::kBatchDelete: {
      if (PageLsnOf(ctx, rec.page_id) >= rec.lsn) return Status::OK();
      return WithPageX(ctx, rec.page_id, rec.lsn,
                       [&](SlottedPage* sp) { ApplyRows(sp, rec); });
    }
    case LogType::kSetPrevLink:
    case LogType::kSetNextLink: {
      if (PageLsnOf(ctx, rec.page_id) >= rec.lsn) return Status::OK();
      return WithPageX(ctx, rec.page_id, rec.lsn, [&](SlottedPage* sp) {
        *LinkOf(sp->header(), rec.type) = rec.link_new;
      });
    }
    case LogType::kMetaRoot: {
      if (PageLsnOf(ctx, rec.page_id) >= rec.lsn) return Status::OK();
      return WithPageX(ctx, rec.page_id, rec.lsn, [&](SlottedPage* sp) {
        EncodeFixed32(sp->data() + kMetaRootOffset, rec.link_new);
      });
    }
    case LogType::kKeyCopy:
      return RedoKeyCopy(ctx, rec);
    case LogType::kKeyCopyUndo:
      return ApplyKeyCopyRemoval(ctx, rec, /*check_lsn=*/true);

    case LogType::kInvalid:
      break;
  }
  return Status::Corruption("redo of invalid log record type");
}

Status UndoRecord(ApplyContext* ctx, TxnContext* txn, const LogRecord& rec,
                  LogicalUndoHook* hook) {
  OIR_CHECK(!rec.is_clr);
  switch (rec.type) {
    case LogType::kInsert:
    case LogType::kDelete:
    case LogType::kBatchInsert:
    case LogType::kBatchDelete: {
      // Leaf rows are undone logically (they may have moved since); other
      // rows by the inverse record at the same slots, a redo-only CLR.
      if (rec.type == LogType::kInsert && rec.level == kLeafLevel &&
          hook != nullptr) {
        return hook->UndoLeafInsert(txn, rec);
      }
      if (rec.type == LogType::kDelete && rec.level == kLeafLevel &&
          hook != nullptr) {
        return hook->UndoLeafDelete(txn, rec);
      }
      LogRecord clr;
      clr.type = rec.type == LogType::kInsert        ? LogType::kDelete
                 : rec.type == LogType::kDelete      ? LogType::kInsert
                 : rec.type == LogType::kBatchInsert ? LogType::kBatchDelete
                                                     : LogType::kBatchInsert;
      clr.is_clr = true;
      clr.undo_next = rec.prev_lsn;
      clr.page_id = rec.page_id;
      clr.pos = rec.pos;
      clr.row = rec.row;
      clr.rows = rec.rows;
      clr.level = rec.level;
      Lsn lsn = ctx->log->Append(&clr, txn);
      return WithPageX(ctx, rec.page_id, lsn,
                       [&](SlottedPage* sp) { ApplyRows(sp, clr); });
    }
    case LogType::kKeyCopy: {
      LogRecord clr;
      clr.type = LogType::kKeyCopyUndo;
      clr.is_clr = true;
      clr.undo_next = rec.prev_lsn;
      clr.copies = rec.copies;
      ctx->log->Append(&clr, txn);
      return ApplyKeyCopyRemoval(ctx, clr, /*check_lsn=*/false);
    }
    case LogType::kFormatPage:
      // Nothing to compensate: the undo of the corresponding kAlloc returns
      // the page to the free state and its content becomes meaningless.
      return Status::OK();
    case LogType::kSetPrevLink:
    case LogType::kSetNextLink: {
      LogRecord clr;
      clr.type = rec.type;
      clr.is_clr = true;
      clr.undo_next = rec.prev_lsn;
      clr.page_id = rec.page_id;
      clr.link_old = rec.link_new;
      clr.link_new = rec.link_old;
      Lsn lsn = ctx->log->Append(&clr, txn);
      return WithPageX(ctx, rec.page_id, lsn, [&](SlottedPage* sp) {
        *LinkOf(sp->header(), rec.type) = rec.link_old;
      });
    }
    case LogType::kMetaRoot: {
      LogRecord clr;
      clr.type = LogType::kMetaRoot;
      clr.is_clr = true;
      clr.undo_next = rec.prev_lsn;
      clr.page_id = rec.page_id;
      clr.link_old = rec.link_new;
      clr.link_new = rec.link_old;
      Lsn lsn = ctx->log->Append(&clr, txn);
      return WithPageX(ctx, rec.page_id, lsn, [&](SlottedPage* sp) {
        EncodeFixed32(sp->data() + kMetaRootOffset, rec.link_old);
      });
    }
    case LogType::kAlloc: {
      LogRecord clr;
      clr.type = LogType::kFreePage;
      clr.is_clr = true;
      clr.undo_next = rec.prev_lsn;
      clr.pages = rec.pages;
      ctx->log->Append(&clr, txn);
      for (PageId p : rec.pages) {
        ctx->bm->Discard(p);  // before the state flips to free
        ctx->space->UndoAlloc(p);
      }
      return Status::OK();
    }
    case LogType::kDealloc: {
      LogRecord clr;
      clr.type = LogType::kAlloc;
      clr.is_clr = true;
      clr.undo_next = rec.prev_lsn;
      clr.pages = rec.pages;
      ctx->log->Append(&clr, txn);
      for (PageId p : rec.pages) {
        ctx->space->UndoDealloc(p);
      }
      return Status::OK();
    }
    case LogType::kBeginTxn:
    case LogType::kCommitTxn:
    case LogType::kAbortTxn:
    case LogType::kEndTxn:
    case LogType::kNtaEnd:
    case LogType::kFreePage:
    case LogType::kKeyCopyUndo:
    case LogType::kCheckpoint:
    case LogType::kRebuildProgress:
    case LogType::kInvalid:
      break;
  }
  return Status::Corruption("undo of non-undoable log record type");
}

Status RollbackTo(ApplyContext* ctx, TxnContext* txn, Lsn until_lsn,
                  LogicalUndoHook* hook) {
  Lsn cur = txn->last_lsn;
  while (cur != kInvalidLsn && cur != until_lsn) {
    LogRecord rec;
    OIR_RETURN_IF_ERROR(ctx->log->ReadRecord(cur, &rec));
    if (rec.is_clr || rec.type == LogType::kNtaEnd) {
      cur = rec.undo_next;
      continue;
    }
    if (rec.type == LogType::kBeginTxn) break;
    if (rec.type == LogType::kCommitTxn || rec.type == LogType::kAbortTxn ||
        rec.type == LogType::kEndTxn) {
      cur = rec.prev_lsn;
      continue;
    }
    OIR_RETURN_IF_ERROR(UndoRecord(ctx, txn, rec, hook));
    cur = rec.prev_lsn;
  }
  return Status::OK();
}

}  // namespace oir
