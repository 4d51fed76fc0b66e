// Structure modification operations: leaf split, shrink, their bottom-up
// propagation (Sections 2.2-2.4), and the logical-undo compensation hooks.

#include "btree/btree.h"
#include "obs/trace.h"
#include "testing/crash_point.h"
#include "util/logging.h"

namespace oir {

namespace {

// Split position by accumulated row bytes: first position p (clamped to
// [min_pos, nslots-1]) such that rows [0, p) hold at least half the used
// bytes.
SlotId PickSplitPos(const SlottedPage& sp, SlotId min_pos) {
  const uint16_t n = sp.nslots();
  OIR_CHECK(n >= 2);
  size_t total = 0;
  for (SlotId i = 0; i < n; ++i) total += sp.Get(i).size() + kSlotSize;
  size_t acc = 0;
  SlotId pos = min_pos;
  for (SlotId i = 0; i < n; ++i) {
    acc += sp.Get(i).size() + kSlotSize;
    if (acc >= total / 2) {
      pos = static_cast<SlotId>(i + 1);
      break;
    }
  }
  if (pos < min_pos) pos = min_pos;
  if (pos > n - 1) pos = static_cast<SlotId>(n - 1);
  return pos;
}

}  // namespace

// -------------------------------------------------------------- leaf split

Status BTree::LeafSplit(OpCtx op, PageRef leaf, Path* path) {
  OIR_CRASH_POINT("btree.split.begin");
  NtaScope nta;
  BeginNta(op, &nta);
  const PageId p0 = leaf.id();

  // X address lock + SPLIT bit on the old page (Section 2.2). The page is
  // bit-free, but the rebuild locks a batch's pages before it latches them
  // to set their bits, so the lock may be held: ask conditionally, and
  // never wait for it while holding the latch. On Busy, drop the latch,
  // wait for the holder without retaining the lock, and let the caller
  // retraverse.
  Status s = locks_->Lock(op.id, AddressLockKey(p0), LockMode::kX,
                          /*conditional=*/true);
  if (!s.ok()) {
    leaf.latch().UnlockX();
    leaf.Release();
    ReleaseNtaResources(op, &nta);
    if (!s.IsBusy()) return s;
    OIR_RETURN_IF_ERROR(locks_->LockInstant(
        op.id, AddressLockKey(p0), LockMode::kS, /*conditional=*/false));
    return Status::Busy("leaf locked by a top action");
  }
  nta.locked.push_back(p0);
  leaf.header()->flags |= kFlagSplit;
  nta.bits.push_back(p0);

  PageId n0;
  s = space_->Allocate(op.ctx, &n0);
  if (!s.ok()) {
    leaf.latch().UnlockX();
    leaf.Release();
    Status rb = AbortNta(op, &nta);
    return s.ok() ? rb : s;
  }
  OIR_CRASH_POINT("btree.split.alloc");
  OIR_CHECK(locks_
                ->Lock(op.id, AddressLockKey(n0), LockMode::kX,
                       /*conditional=*/false)
                .ok());  // freshly allocated: uncontended
  nta.locked.push_back(n0);

  const PageId old_next = leaf.header()->next_page;
  PageRef right;
  s = FormatNewPage(op, n0, kLeafLevel, p0, old_next, &right);
  if (!s.ok()) {
    leaf.latch().UnlockX();
    leaf.Release();
    Status rb = AbortNta(op, &nta);
    (void)rb;
    return s;
  }
  right.header()->flags |= kFlagSplit;
  nta.bits.push_back(n0);

  // Move the upper rows to the new page. A rightmost leaf (the ascending-
  // load pattern) splits near its end so sequential loads pack pages almost
  // full; interior leaves split at the byte midpoint.
  SlottedPage lsp(leaf.data(), bm_->page_size());
  const uint16_t n = lsp.nslots();
  const bool rightmost = old_next == kInvalidPageId;
  const SlotId split_pos =
      rightmost ? static_cast<SlotId>(n - 1) : PickSplitPos(lsp, 1);
  std::vector<Slice> moved;
  moved.reserve(n - split_pos);
  for (SlotId i = split_pos; i < n; ++i) moved.push_back(lsp.Get(i));
  LogBatchInsert(op, &right, 0, moved, kLeafLevel);
  LogBatchDelete(op, &leaf, split_pos, static_cast<uint16_t>(n - split_pos),
                 kLeafLevel);
  LogSetLink(op, &leaf, LogType::kSetNextLink, n0);
  OIR_CRASH_POINT("btree.split.moved");

  // Separator between the two halves (suffix compression).
  SlottedPage rsp(right.data(), bm_->page_size());
  std::string sep =
      MakeSeparator(lsp.Get(static_cast<SlotId>(lsp.nslots() - 1)),
                    rsp.Get(0))
          .ToString();

  leaf.latch().UnlockX();
  leaf.Release();
  right.latch().UnlockX();
  right.Release();

  // Fix the back link of the old next page. A link-only write is permitted
  // even if that page carries SPLIT/SHRINK bits (footnote 3 of the paper):
  // chain links are protected by latches, not by the bits.
  if (old_next != kInvalidPageId) {
    PageRef np;
    s = bm_->Fetch(old_next, &np);
    if (s.ok()) {
      np.latch().LockX();
      if (np.header()->prev_page == p0) {
        LogSetLink(op, &np, LogType::kSetPrevLink, n0);
      }
      np.latch().UnlockX();
    }
  }
  OIR_CRASH_POINT("btree.split.linked");

  s = PropagateInsert(op, &nta, 1, std::move(sep), n0, p0, path);
  if (!s.ok()) {
    Status rb = AbortNta(op, &nta);
    (void)rb;
    return s;
  }
  OIR_CRASH_POINT("btree.split.propagated");
  OIR_TRACE(obs::TraceEventType::kSmoSplit, p0, n0);
  return EndNta(op, &nta);
}

// ------------------------------------------------- split propagation up

Status BTree::PropagateInsert(OpCtx op, NtaScope* nta, uint16_t level,
                              std::string sep, PageId child_new,
                              PageId split_old, Path* path) {
  std::string cur_sep = std::move(sep);
  PageId cur_child = child_new;
  PageId cur_split_old = split_old;
  uint16_t cur_level = level;

  for (;;) {
    OIR_CRASH_POINT("btree.propagate.insert");
    // If the page that split was the root, grow the tree instead of
    // traversing to a level that does not exist. No other transaction can
    // change the root meanwhile: doing so would require splitting or
    // shrinking cur_split_old, which we hold X-locked with bits set.
    if (root() == cur_split_old) {
      return NewRoot(op, cur_split_old, {{cur_sep, cur_child}},
                     static_cast<uint16_t>(cur_level - 1));
    }

    PageRef parent;
    OIR_RETURN_IF_ERROR(Traverse(op, Slice(cur_sep), /*writer=*/true,
                                 cur_level, &parent, path));
    SlottedPage sp(parent.data(), bm_->page_size());
    std::string row = node::MakeNonLeafRow(cur_child, Slice(cur_sep));
    if (sp.HasRoomFor(static_cast<uint32_t>(row.size()))) {
      SlotId pos = node::FindEntryInsertPos(sp, Slice(cur_sep));
      LogInsert(op, &parent, pos, row, cur_level);
      parent.latch().UnlockX();
      return Status::OK();
    }

    // Split the non-leaf page (Section 2.3): X lock, SPLIT +
    // OLDPGOFSPLIT bits and a side entry on the old page so concurrent
    // traversals can route to the new sibling before the next level is
    // updated.
    const PageId pid = parent.id();
    Status s = locks_->Lock(op.id, AddressLockKey(pid), LockMode::kX,
                            /*conditional=*/false);
    if (!s.ok()) {
      parent.latch().UnlockX();
      return s;
    }
    nta->locked.push_back(pid);

    PageId nid;
    s = space_->Allocate(op.ctx, &nid);
    if (!s.ok()) {
      parent.latch().UnlockX();
      return s;
    }
    OIR_CHECK(locks_
                  ->Lock(op.id, AddressLockKey(nid), LockMode::kX,
                         /*conditional=*/false)
                  .ok());
    nta->locked.push_back(nid);

    PageRef sibling;
    s = FormatNewPage(op, nid, cur_level, kInvalidPageId, kInvalidPageId,
                      &sibling);
    if (!s.ok()) {
      parent.latch().UnlockX();
      return s;
    }

    const uint16_t n = sp.nslots();
    const SlotId split_pos = PickSplitPos(sp, /*min_pos=*/1);
    // The separator of the row at split_pos is promoted; the row itself
    // becomes the (separator-less) first row of the sibling.
    std::string promoted = node::SeparatorOf(sp.Get(split_pos)).ToString();

    SetSideEntry(pid, promoted, nid);
    nta->side_entries.push_back(pid);
    parent.header()->flags |= kFlagSplit | kFlagOldPgOfSplit;
    nta->bits.push_back(pid);
    sibling.header()->flags |= kFlagSplit;
    nta->bits.push_back(nid);

    // The promoted row keeps only its child pointer, the row's prefix.
    std::vector<Slice> moved;
    moved.reserve(n - split_pos);
    moved.push_back(Slice(sp.Get(split_pos).data(), sizeof(PageId)));
    for (SlotId i = static_cast<SlotId>(split_pos + 1); i < n; ++i) {
      moved.push_back(sp.Get(i));
    }
    LogBatchInsert(op, &sibling, 0, moved, cur_level);
    LogBatchDelete(op, &parent, split_pos,
                   static_cast<uint16_t>(n - split_pos), cur_level);

    // Insert the pending entry on the correct side.
    SlottedPage nsp(sibling.data(), bm_->page_size());
    if (Slice(cur_sep).compare(Slice(promoted)) < 0) {
      SlotId pos = node::FindEntryInsertPos(sp, Slice(cur_sep));
      OIR_CHECK(sp.HasRoomFor(static_cast<uint32_t>(row.size())));
      LogInsert(op, &parent, pos, row, cur_level);
    } else {
      SlotId pos = node::FindEntryInsertPos(nsp, Slice(cur_sep));
      OIR_CHECK(nsp.HasRoomFor(static_cast<uint32_t>(row.size())));
      LogInsert(op, &sibling, pos, row, cur_level);
    }

    parent.latch().UnlockX();
    parent.Release();
    sibling.latch().UnlockX();
    sibling.Release();

    cur_split_old = pid;
    cur_sep = std::move(promoted);
    cur_child = nid;
    ++cur_level;
  }
}

Status BTree::NewRoot(OpCtx op, PageId first,
                      const std::vector<std::pair<Slice, PageId>>& rest,
                      uint16_t child_level) {
  OIR_CRASH_POINT("btree.newroot");
  PageId rid;
  OIR_RETURN_IF_ERROR(space_->Allocate(op.ctx, &rid));
  PageRef root_page;
  OIR_RETURN_IF_ERROR(FormatNewPage(op, rid,
                                    static_cast<uint16_t>(child_level + 1),
                                    kInvalidPageId, kInvalidPageId,
                                    &root_page));
  std::vector<std::string> encoded;
  encoded.push_back(node::MakeNonLeafRow(first, Slice()));
  for (const auto& [sep, child] : rest) {
    encoded.push_back(node::MakeNonLeafRow(child, sep));
  }
  const std::vector<Slice> rows(encoded.begin(), encoded.end());
  LogBatchInsert(op, &root_page, 0, rows,
                 static_cast<uint16_t>(child_level + 1));
  root_page.latch().UnlockX();
  root_page.Release();
  // The new root is not reachable until the meta pointer flips, so it needs
  // no lock or bits.
  return SetRoot(op, rid);
}

// ------------------------------------------------------------------ shrink

Status BTree::ShrinkLeaf(OpCtx op, PageRef leaf, const Slice& composite,
                         Path* path) {
  const PageId p = leaf.id();

  // The row delete is a normal, undoable leaf record: it must NOT be part
  // of the shrink top action (which is never undone once complete). If the
  // transaction later rolls back, logical undo re-inserts the key wherever
  // it then belongs.
  OIR_CHECK(SlottedPage(leaf.data(), bm_->page_size()).nslots() == 1);
  LogDelete(op, &leaf, 0, kLeafLevel);

  OIR_CRASH_POINT("btree.shrink.begin");
  NtaScope nta;
  BeginNta(op, &nta);

  Status s = locks_->Lock(op.id, AddressLockKey(p), LockMode::kX,
                          /*conditional=*/false);
  if (!s.ok()) {
    leaf.latch().UnlockX();
    ReleaseNtaResources(op, &nta);
    return s;
  }
  nta.locked.push_back(p);
  leaf.header()->flags |= kFlagShrink;
  nta.bits.push_back(p);

  PageId pp = leaf.header()->prev_page;
  const PageId np = leaf.header()->next_page;
  leaf.latch().UnlockX();
  leaf.Release();

  // Lock the previous page, revalidating the back link afterwards: a
  // concurrent split of the previous page may have inserted a new page
  // between it and us (link writes are allowed under our SHRINK bit).
  while (pp != kInvalidPageId) {
    s = locks_->Lock(op.id, AddressLockKey(pp), LockMode::kX,
                     /*conditional=*/false);
    if (!s.ok()) {
      Status rb = AbortNta(op, &nta);
      (void)rb;
      return s;
    }
    PageRef self;
    OIR_CHECK(bm_->Fetch(p, &self).ok());
    self.latch().LockS();
    PageId now_prev = self.header()->prev_page;
    self.latch().UnlockS();
    if (now_prev == pp) {
      nta.locked.push_back(pp);
      break;
    }
    locks_->Unlock(op.id, AddressLockKey(pp));
    pp = now_prev;
  }

  // Unlink from the leaf chain.
  if (pp != kInvalidPageId) {
    PageRef prev;
    OIR_CHECK(bm_->Fetch(pp, &prev).ok());
    prev.latch().LockX();
    OIR_CHECK(prev.header()->next_page == p);
    LogSetLink(op, &prev, LogType::kSetNextLink, np);
    prev.latch().UnlockX();
  }
  if (np != kInvalidPageId) {
    PageRef next;
    OIR_CHECK(bm_->Fetch(np, &next).ok());
    next.latch().LockX();
    OIR_CHECK(next.header()->prev_page == p);
    LogSetLink(op, &next, LogType::kSetPrevLink, pp);
    next.latch().UnlockX();
  }
  OIR_CRASH_POINT("btree.shrink.unlinked");

  s = space_->Deallocate(op.ctx, p);
  if (!s.ok()) {
    Status rb = AbortNta(op, &nta);
    (void)rb;
    return s;
  }
  nta.deallocated.push_back(p);
  OIR_CRASH_POINT("btree.shrink.dealloc");

  s = PropagateDelete(op, &nta, 1, composite, p, path);
  if (!s.ok()) {
    Status rb = AbortNta(op, &nta);
    (void)rb;
    return s;
  }
  OIR_CRASH_POINT("btree.shrink.propagated");
  OIR_RETURN_IF_ERROR(EndNta(op, &nta));
  OIR_TRACE(obs::TraceEventType::kSmoShrink, p, 0);

  // Shrink frees its deallocated pages when the top action commits
  // (Section 4.1.3). Nothing was copied anywhere, so no flush ordering is
  // required.
  for (PageId dp : nta.deallocated) {
    bm_->Discard(dp);  // before Free: the page must not be allocatable
    space_->Free(dp);  // while its stale frame is still cached
  }
  return Status::OK();
}

Status BTree::PropagateDelete(OpCtx op, NtaScope* nta, uint16_t level,
                              const Slice& key_hint, PageId child_dead,
                              Path* path) {
  PageId dead = child_dead;
  uint16_t cur_level = level;

  for (;;) {
    PageRef parent;
    OIR_RETURN_IF_ERROR(
        Traverse(op, key_hint, /*writer=*/true, cur_level, &parent, path));
    SlottedPage sp(parent.data(), bm_->page_size());
    int pos = node::FindChildPos(sp, dead);
    if (pos < 0) {
      parent.latch().UnlockX();
      return Status::Corruption("parent entry for shrunk child missing");
    }

    const PageId pid = parent.id();
    Status s = locks_->Lock(op.id, AddressLockKey(pid), LockMode::kX,
                            /*conditional=*/false);
    if (!s.ok()) {
      parent.latch().UnlockX();
      return s;
    }
    nta->locked.push_back(pid);
    parent.header()->flags |= kFlagShrink;
    nta->bits.push_back(pid);

    if (sp.nslots() == 1) {
      // The page becomes empty: it shrinks as well. There is no need to
      // perform the delete — the page is deallocated directly (footnote 6).
      OIR_CHECK(pid != root());
      parent.latch().UnlockX();
      parent.Release();
      OIR_RETURN_IF_ERROR(space_->Deallocate(op.ctx, pid));
      nta->deallocated.push_back(pid);
      dead = pid;
      ++cur_level;
      continue;
    }

    if (pid == root() && sp.nslots() == 2 && cur_level >= 1) {
      // The root is left with a single child: collapse it (the tree loses
      // a level).
      PageId remaining = node::ChildOf(sp.Get(pos == 0 ? 1 : 0));
      parent.latch().UnlockX();
      parent.Release();
      OIR_RETURN_IF_ERROR(SetRoot(op, remaining));
      OIR_RETURN_IF_ERROR(space_->Deallocate(op.ctx, pid));
      nta->deallocated.push_back(pid);
      return Status::OK();
    }

    if (pos == 0) {
      // Deleting the first child: the next child becomes first and loses
      // its separator.
      LogDelete(op, &parent, 0, cur_level);
      PageId c = node::ChildOf(sp.Get(0));
      LogDelete(op, &parent, 0, cur_level);
      LogInsert(op, &parent, 0, node::MakeNonLeafRow(c, Slice()), cur_level);
    } else {
      LogDelete(op, &parent, static_cast<SlotId>(pos), cur_level);
    }
    parent.latch().UnlockX();
    return Status::OK();
  }
}

// ------------------------------------------------------ logical undo hooks

Status BTree::UndoLeafInsert(TxnContext* ctx, const LogRecord& rec) {
  OpCtx op{ctx->txn_id, ctx};
  // The whole compensation runs as a top action whose dummy CLR points past
  // the record being undone: if it completes, the record is compensated and
  // skipped; if it does not, its pieces are physically undone and the
  // record is re-undone from scratch.
  NtaScope nta;
  BeginNta(op, &nta);
  Status s = DeleteComposite(op, Slice(rec.row));
  if (!s.ok()) {
    Status rb = AbortNta(op, &nta);
    (void)rb;
    return s.IsNotFound()
               ? Status::Corruption("undo: inserted key missing from tree")
               : s;
  }
  return EndNta(op, &nta, /*undo_next_override=*/rec.prev_lsn);
}

Status BTree::UndoLeafDelete(TxnContext* ctx, const LogRecord& rec) {
  OpCtx op{ctx->txn_id, ctx};
  NtaScope nta;
  BeginNta(op, &nta);
  Status s = InsertComposite(op, Slice(rec.row));
  if (!s.ok()) {
    Status rb = AbortNta(op, &nta);
    (void)rb;
    return s.IsInvalidArgument()
               ? Status::Corruption("undo: deleted key already present")
               : s;
  }
  return EndNta(op, &nta, /*undo_next_override=*/rec.prev_lsn);
}

}  // namespace oir
