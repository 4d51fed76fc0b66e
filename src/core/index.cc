#include "core/index.h"

#include "btree/cursor.h"
#include "obs/waitstate.h"
#include "util/logging.h"

namespace oir {

Index::Index(BTree* tree, TransactionManager* tm, BufferManager* bm,
             LogManager* log, LockManager* locks, SpaceManager* space,
             RebuildJournal* journal)
    : tree_(tree), tm_(tm), bm_(bm), space_(space),
      rebuilder_(tree, tm, bm, log, locks, space, journal) {}

// Row locks are taken before the gate: an operation inside the gate never
// waits on a transaction-duration lock, so the offline rebuild's drain
// cannot wait behind another transaction.
Status Index::Insert(Transaction* txn, const Slice& key, RowId rid) {
  obs::OpScope op(obs::OpType::kWrite);
  // Row-level logical lock (Section 2), held to transaction end.
  OIR_RETURN_IF_ERROR(tm_->LockLogical(txn, rid, LockMode::kX));
  GatePass pass(gate_);
  return tree_->Insert(OpCtx{txn->id(), txn->ctx()}, key, rid);
}

Status Index::Delete(Transaction* txn, const Slice& key, RowId rid) {
  obs::OpScope op(obs::OpType::kWrite);
  OIR_RETURN_IF_ERROR(tm_->LockLogical(txn, rid, LockMode::kX));
  GatePass pass(gate_);
  return tree_->Delete(OpCtx{txn->id(), txn->ctx()}, key, rid);
}

Status Index::Lookup(Transaction* txn, const Slice& key, RowId rid,
                     bool* found) {
  obs::OpScope op(obs::OpType::kRead);
  GatePass pass(gate_);
  return tree_->Lookup(OpCtx{txn->id(), txn->ctx()}, key, rid, found);
}

std::unique_ptr<Cursor> Index::NewCursor(Transaction* txn) {
  return std::make_unique<Cursor>(tree_, OpCtx{txn->id(), txn->ctx()});
}

std::unique_ptr<LockingCursor> Index::NewLockingCursor(Transaction* txn) {
  return std::make_unique<LockingCursor>(NewCursor(txn), tm_, txn);
}

Status Index::RebuildOnline(const RebuildOptions& options,
                            RebuildResult* result,
                            const RebuildProgressInfo* resume) {
  // No gate, no logical locks — the whole point of the paper.
  return rebuilder_.Run(options, result, resume);
}

Status Index::RebuildOffline(RebuildResult* result) {
  // Drop-and-recreate baseline: every point operation is shut out for the
  // duration, the behavior the paper's introduction describes as
  // unacceptable for OLTP. The gate reopens when this function returns,
  // after the commit.
  *result = RebuildResult();
  GateClosed closed(gate_);
  std::unique_ptr<Transaction> txn = tm_->Begin();
  OpCtx op{txn->id(), txn->ctx()};

  // Collect every row and every page of the old tree.
  Status s;
  std::vector<std::string> rows;
  std::vector<PageId> old_pages;
  {
    // Gather pages level by level from the root.
    std::vector<PageId> frontier = {tree_->root()};
    while (!frontier.empty()) {
      std::vector<PageId> next;
      for (PageId p : frontier) {
        old_pages.push_back(p);
        PageRef ref;
        s = bm_->Fetch(p, &ref);
        if (!s.ok()) break;
        SlottedPage sp(ref.data(), bm_->page_size());
        if (ref.header()->level != kLeafLevel) {
          for (SlotId i = 0; i < sp.nslots(); ++i) {
            next.push_back(node::ChildOf(sp.Get(i)));
          }
        } else {
          for (SlotId i = 0; i < sp.nslots(); ++i) {
            rows.push_back(sp.Get(i).ToString());
          }
        }
      }
      if (!s.ok()) break;
      frontier = std::move(next);
    }
  }
  if (!s.ok()) {
    (void)tm_->Abort(txn.get());  // already propagating the first error
    return s;
  }

  // Bulk-load a fresh tree bottom-up: each level's (separator, page) pairs
  // are the next level's rows, and a non-leaf page's first row keeps only
  // its child pointer (its separator moves up).
  const uint32_t cap = bm_->page_size() - kPageHeaderSize;
  auto build_level = [&](const std::vector<std::string>& level_rows,
                         uint16_t level,
                         std::vector<std::pair<std::string, PageId>>* out)
      -> Status {
    if (level_rows.empty()) return Status::OK();
    const bool leaf = level == kLeafLevel;
    std::vector<size_t> begins;  // first row of each page, then the end
    uint32_t used = 0;
    for (size_t r = 0; r < level_rows.size(); ++r) {
      if (begins.empty() || used + level_rows[r].size() + kSlotSize > cap) {
        begins.push_back(r);
        used = 0;
      }
      used += static_cast<uint32_t>(level_rows[r].size()) + kSlotSize;
    }
    begins.push_back(level_rows.size());
    const uint32_t n = static_cast<uint32_t>(begins.size() - 1);
    std::vector<PageId> ids;
    OIR_RETURN_IF_ERROR(space_->AllocateChunk(op.ctx, n, &ids));
    for (uint32_t i = 0; i < n; ++i) {
      std::vector<Slice> page_rows(level_rows.begin() + begins[i],
                                   level_rows.begin() + begins[i + 1]);
      const Slice first = page_rows[0];
      if (!leaf) page_rows[0] = Slice(first.data(), sizeof(PageId));
      PageRef ref;
      OIR_RETURN_IF_ERROR(tree_->FormatNewPage(
          op, ids[i], level, leaf && i > 0 ? ids[i - 1] : kInvalidPageId,
          leaf && i + 1 < n ? ids[i + 1] : kInvalidPageId, &ref));
      tree_->LogBatchInsert(op, &ref, 0, page_rows, level);
      ref.latch().UnlockX();
      out->emplace_back(
          (leaf ? first : node::SeparatorOf(first)).ToString(), ids[i]);
    }
    return Status::OK();
  };

  std::vector<std::pair<std::string, PageId>> level_pages;
  s = build_level(rows, kLeafLevel, &level_pages);
  for (uint16_t level = 1; s.ok() && level_pages.size() > 1; ++level) {
    std::vector<std::string> parent_rows;
    for (size_t i = 0; i < level_pages.size(); ++i) {
      parent_rows.push_back(node::MakeNonLeafRow(
          level_pages[i].second,
          i == 0 ? Slice() : Slice(level_pages[i].first)));
    }
    std::vector<std::pair<std::string, PageId>> next_pages;
    s = build_level(parent_rows, level, &next_pages);
    level_pages = std::move(next_pages);
  }
  if (s.ok() && level_pages.empty()) {
    // Empty index: a fresh empty root leaf.
    std::vector<PageId> ids;
    s = space_->AllocateChunk(op.ctx, 1, &ids);
    if (s.ok()) {
      PageRef ref;
      s = tree_->FormatNewPage(op, ids[0], kLeafLevel, kInvalidPageId,
                               kInvalidPageId, &ref);
      if (s.ok()) ref.latch().UnlockX();
      level_pages.emplace_back(std::string(), ids[0]);
    }
  }
  if (s.ok()) s = tree_->SetRoot(op, level_pages[0].second);
  if (s.ok()) {
    for (PageId p : old_pages) {
      s = space_->Deallocate(op.ctx, p);
      if (!s.ok()) break;
    }
  }
  if (!s.ok()) {
    (void)tm_->Abort(txn.get());  // already propagating the first error
    return s;
  }
  OIR_RETURN_IF_ERROR(bm_->FlushAll());
  OIR_RETURN_IF_ERROR(tm_->Commit(txn.get()));
  for (PageId p : old_pages) {
    bm_->Discard(p);  // before Free (see OnlineRebuilder: a concurrent
    space_->Free(p);  // allocation must not race with the discard)
  }
  result->old_leaf_pages = old_pages.size();
  result->keys_moved = rows.size();
  result->transactions = 1;
  return Status::OK();
}

}  // namespace oir
