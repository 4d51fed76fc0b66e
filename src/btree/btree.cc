#include "btree/btree.h"

#include "testing/crash_point.h"
#include "util/coding.h"
#include "util/counters.h"
#include "util/logging.h"

namespace oir {

namespace {
constexpr int kMaxTraversalRestarts = 1000000;
}  // namespace

BTree::BTree(BufferManager* bm, LogManager* log, LockManager* locks,
             SpaceManager* space)
    : bm_(bm), log_(log), locks_(locks), space_(space) {}

// --------------------------------------------------------------- lifecycle

Status BTree::CreateNew(TxnContext* ctx) {
  OpCtx op{ctx->txn_id, ctx};
  // Format the metadata page (outside the space manager's managed range).
  PageRef meta;
  OIR_RETURN_IF_ERROR(bm_->Create(kMetaPageId, &meta));
  meta.latch().LockX();
  SlottedPage msp(meta.data(), bm_->page_size());
  msp.Init(kMetaPageId, kInvalidLevel);
  EncodeFixed32(meta.data() + kMetaRootOffset, kInvalidPageId);
  meta.latch().UnlockX();
  meta.MarkDirty();
  meta.Release();

  // Allocate and format the empty root leaf.
  PageId root_id;
  OIR_RETURN_IF_ERROR(space_->Allocate(ctx, &root_id));
  PageRef root;
  OIR_RETURN_IF_ERROR(FormatNewPage(op, root_id, kLeafLevel, kInvalidPageId,
                                    kInvalidPageId, &root));
  root.latch().UnlockX();
  root.Release();
  return SetRoot(op, root_id);
}

Status BTree::Open() {
  PageRef meta;
  OIR_RETURN_IF_ERROR(bm_->Fetch(kMetaPageId, &meta));
  meta.latch().LockS();
  PageId root_id = DecodeFixed32(meta.data() + kMetaRootOffset);
  meta.latch().UnlockS();
  if (root_id == kInvalidPageId) {
    return Status::Corruption("meta page has no root");
  }
  root_.store(root_id, std::memory_order_release);
  return Status::OK();
}

Status BTree::SetRoot(OpCtx op, PageId new_root) {
  MutexLock ml(meta_mu_);
  PageRef meta;
  OIR_RETURN_IF_ERROR(bm_->Fetch(kMetaPageId, &meta));
  meta.latch().LockX();
  LogRecord rec;
  rec.type = LogType::kMetaRoot;
  rec.page_id = kMetaPageId;
  rec.old_page_lsn = meta.header()->page_lsn;
  rec.link_old = DecodeFixed32(meta.data() + kMetaRootOffset);
  rec.link_new = new_root;
  Lsn lsn = log_->Append(&rec, op.ctx);
  EncodeFixed32(meta.data() + kMetaRootOffset, new_root);
  meta.header()->page_lsn = lsn;
  meta.latch().UnlockX();
  meta.MarkDirty();
  root_.store(new_root, std::memory_order_release);
  return Status::OK();
}

void BTree::ResetTransient() {
  MutexLock l(side_mu_);
  side_entries_.clear();
  root_.store(kInvalidPageId, std::memory_order_release);
}

// ---------------------------------------------------------- side entries

void BTree::SetSideEntry(PageId page, std::string sep, PageId right) {
  MutexLock l(side_mu_);
  side_entries_[page] = {std::move(sep), right};
}

void BTree::EraseSideEntry(PageId page) {
  MutexLock l(side_mu_);
  side_entries_.erase(page);
}

bool BTree::GetSideEntry(PageId page, std::string* sep, PageId* right) const {
  MutexLock l(side_mu_);
  auto it = side_entries_.find(page);
  if (it == side_entries_.end()) return false;
  *sep = it->second.first;
  *right = it->second.second;
  return true;
}

// ------------------------------------------------------- logging helpers
// All helpers require the caller to hold the X latch on *page; they append
// the record, apply the change, stamp the pageLSN and mark the frame dirty.

Lsn BTree::LogRows(OpCtx op, PageRef* page, LogRecord* rec) {
  rec->page_id = page->id();
  rec->old_page_lsn = page->header()->page_lsn;
  Lsn lsn = log_->Append(rec, op.ctx);
  SlottedPage sp(page->data(), bm_->page_size());
  ApplyRows(&sp, *rec);
  sp.header()->page_lsn = lsn;
  page->MarkDirty();
  return lsn;
}

Lsn BTree::LogInsert(OpCtx op, PageRef* page, SlotId pos, const Slice& row,
                     uint16_t level) {
  LogRecord rec;
  rec.type = LogType::kInsert;
  rec.pos = pos;
  rec.row = row.ToString();
  rec.level = level;
  return LogRows(op, page, &rec);
}

Lsn BTree::LogDelete(OpCtx op, PageRef* page, SlotId pos, uint16_t level) {
  LogRecord rec;
  rec.type = LogType::kDelete;
  rec.pos = pos;
  rec.row = SlottedPage(page->data(), bm_->page_size()).Get(pos).ToString();
  rec.level = level;
  return LogRows(op, page, &rec);
}

Lsn BTree::LogBatchInsert(OpCtx op, PageRef* page, SlotId pos,
                          std::span<const Slice> rows, uint16_t level) {
  LogRecord rec;
  rec.type = LogType::kBatchInsert;
  rec.pos = pos;
  rec.rows.assign(rows.begin(), rows.end());
  rec.level = level;
  return LogRows(op, page, &rec);
}

Lsn BTree::LogBatchDelete(OpCtx op, PageRef* page, SlotId pos, uint16_t count,
                          uint16_t level) {
  SlottedPage sp(page->data(), bm_->page_size());
  LogRecord rec;
  rec.type = LogType::kBatchDelete;
  rec.pos = pos;
  rec.level = level;
  rec.rows.reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    rec.rows.push_back(sp.Get(static_cast<SlotId>(pos + i)));
  }
  return LogRows(op, page, &rec);
}

Lsn BTree::LogSetLink(OpCtx op, PageRef* page, LogType type, PageId to) {
  PageHeader* h = page->header();
  LogRecord rec;
  rec.type = type;
  rec.page_id = page->id();
  rec.old_page_lsn = h->page_lsn;
  rec.link_old = *LinkOf(h, type);
  rec.link_new = to;
  h->page_lsn = log_->Append(&rec, op.ctx);
  *LinkOf(h, type) = to;
  page->MarkDirty();
  return h->page_lsn;
}

Status BTree::FormatNewPage(OpCtx op, PageId id, uint16_t level, PageId prev,
                            PageId next, PageRef* out) {
  OIR_RETURN_IF_ERROR(bm_->Create(id, out));
  out->latch().LockX();
  LogRecord rec;
  rec.type = LogType::kFormatPage;
  rec.page_id = id;
  rec.level = level;
  rec.prev_page = prev;
  rec.next_page = next;
  Lsn lsn = log_->Append(&rec, op.ctx);
  SlottedPage sp(out->data(), bm_->page_size());
  sp.Init(id, level);
  sp.header()->prev_page = prev;
  sp.header()->next_page = next;
  sp.header()->page_lsn = lsn;
  out->MarkDirty();
  return Status::OK();
}

// ---------------------------------------------------------------- NTAs

void BTree::BeginNta(OpCtx op, NtaScope* nta) {
  nta->saved_lsn = op.ctx->last_lsn;
  nta->locked.clear();
  nta->bits.clear();
  nta->side_entries.clear();
}

void BTree::ReleaseNtaResources(OpCtx op, NtaScope* nta) {
  // Clear flag bits on pages that are still allocated (deallocated pages
  // are unreachable; their bits die with them). Bit changes are not logged
  // and do not bump the pageLSN.
  for (PageId p : nta->bits) {
    if (space_->GetState(p) != PageState::kAllocated) continue;
    PageRef ref;
    Status s = bm_->Fetch(p, &ref);
    if (!s.ok()) continue;
    ref.latch().LockX();
    ref.header()->flags &=
        static_cast<uint16_t>(~(kFlagSplit | kFlagShrink | kFlagOldPgOfSplit));
    ref.latch().UnlockX();
    ref.MarkDirty();
  }
  // Side entries are erased after the OLDPGOFSPLIT bits are cleared, so a
  // traversal that saw the bit under its S latch always finds the entry.
  for (PageId p : nta->side_entries) {
    EraseSideEntry(p);
  }
  for (PageId p : nta->locked) {
    locks_->Unlock(op.id, AddressLockKey(p));
  }
  nta->locked.clear();
  nta->bits.clear();
  nta->side_entries.clear();
}

Status BTree::EndNta(OpCtx op, NtaScope* nta, Lsn undo_next_override) {
  OIR_CRASH_POINT("btree.nta.end.pre");
  LogRecord rec;
  rec.type = LogType::kNtaEnd;
  rec.undo_next = undo_next_override != kInvalidLsn ? undo_next_override
                                                    : nta->saved_lsn;
  log_->Append(&rec, op.ctx);
  OIR_CRASH_POINT("btree.nta.end.post");
  ReleaseNtaResources(op, nta);
  return Status::OK();
}

Status BTree::AbortNta(OpCtx op, NtaScope* nta) {
  OIR_CRASH_POINT("btree.nta.abort");
  ApplyContext actx{bm_, space_, log_};
  // Physical undo is safe: the top action still holds its address locks.
  Status s = RollbackTo(&actx, op.ctx, nta->saved_lsn, /*hook=*/nullptr);
  ReleaseNtaResources(op, nta);
  return s;
}

// ------------------------------------------------------------- traversal

Status BTree::Traverse(OpCtx op, const Slice& key, bool writer,
                       uint16_t target_level, PageRef* out, Path* path) {
  auto& counters = GlobalCounters::Get();
  int restarts = -1;

retraverse:
  ++restarts;
  if (restarts > 0) {
    counters.traversal_restarts.fetch_add(1, std::memory_order_relaxed);
  }
  if (restarts > kMaxTraversalRestarts) {
    return Status::Aborted("traversal restart livelock");
  }

  PageRef cur;
  uint16_t cur_level = 0;
  LatchMode cur_mode = LatchMode::kShared;
  bool have_cur = false;

  // Resume from the deepest safe remembered page (Section 2.6.1). Per the
  // paper, a page is safe only if it is still at the expected level AND
  // "the search key is within the range of key values on it". Identity or
  // pageLSN checks alone would be WRONG: the remembered path may have
  // served a different key, and an untouched page can simply be the wrong
  // subtree for this one (e.g. after an earlier rebuild top action split a
  // neighboring subtree). Keys strictly inside the separator span
  // [Sep_1, Sep_last) are sufficient: a live page's entries always route
  // into live subtrees covering those keys.
  while (!path->empty() && !have_cur) {
    PathEntry pe = path->back();
    path->pop_back();
    if (pe.level <= target_level) continue;
    if (space_->GetState(pe.page) != PageState::kAllocated) continue;
    PageRef ref;
    if (!bm_->Fetch(pe.page, &ref).ok()) continue;
    ref.latch().LockS();
    const PageHeader* h = ref.header();
    bool safe = h->page_id == pe.page && h->level == pe.level &&
                (h->flags & (kFlagShrink | kFlagOldPgOfSplit)) == 0 &&
                h->nslots >= 3;
    if (safe) {
      SlottedPage sp(ref.data(), bm_->page_size());
      Slice lo = node::SeparatorOf(sp.Get(1));
      Slice hi = node::SeparatorOf(sp.Get(h->nslots - 1));
      safe = lo.compare(key) <= 0 && key.compare(hi) < 0;
    }
    if (!safe) {
      ref.latch().UnlockS();
      continue;
    }
    cur = std::move(ref);
    cur_level = pe.level;
    cur_mode = LatchMode::kShared;
    have_cur = true;  // descent re-pushes this page with a fresh LSN
  }

  if (!have_cur) {
    path->clear();
    PageId root_id = root();
    PageRef ref;
    OIR_RETURN_IF_ERROR(bm_->Fetch(root_id, &ref));
    // Guess the latch mode: if the root may be the target, take X for
    // writers. A wrong guess is corrected by restarting.
    ref.latch().LockS();
    if (root_id != root()) {  // root changed while we latched
      ref.latch().UnlockS();
      goto retraverse;
    }
    cur_level = ref.header()->level;
    if (cur_level < target_level) {
      ref.latch().UnlockS();
      return Status::Corruption("target level above root");
    }
    if (writer && cur_level == target_level) {
      // Upgrade by restart-free relatch: drop S, take X, revalidate.
      ref.latch().UnlockS();
      ref.latch().LockX();
      if (root_id != root() || ref.header()->level != target_level) {
        ref.latch().UnlockX();
        goto retraverse;
      }
      cur_mode = LatchMode::kExclusive;
    } else {
      cur_mode = LatchMode::kShared;
    }
    cur = std::move(ref);
    have_cur = true;
  }

  // Descend.
  while (true) {
    // A SHRINK bit blocks both readers and writers (Section 2.4): release
    // the latch and wait for the top action via an unconditional
    // instant-duration S lock. Pages marked by our own in-flight top action
    // (we hold their X address lock) are never waited on — the rebuild's
    // propagation traverses while holding bits on many pages.
    if ((cur.header()->flags & kFlagShrink) != 0 &&
        !locks_->IsHeld(op.id, AddressLockKey(cur.id()), LockMode::kX)) {
      PageId blocked = cur.id();
      cur.latch().Unlock(cur_mode);
      cur.Release();
      counters.blocked_traversals.fetch_add(1, std::memory_order_relaxed);
      OIR_RETURN_IF_ERROR(locks_->LockInstant(
          op.id, AddressLockKey(blocked), LockMode::kS, /*conditional=*/false));
      goto retraverse;
    }

    // Route around an in-flight split of this page (Section 2.3).
    if ((cur.header()->flags & kFlagOldPgOfSplit) != 0) {
      std::string side_sep;
      PageId side_right = kInvalidPageId;
      // The bit cannot be cleared while we hold a latch, so the entry must
      // exist.
      OIR_CHECK(GetSideEntry(cur.id(), &side_sep, &side_right));
      if (key.compare(Slice(side_sep)) >= 0) {
        PageRef sib;
        OIR_RETURN_IF_ERROR(bm_->Fetch(side_right, &sib));
        sib.latch().Lock(cur_mode);
        cur.latch().Unlock(cur_mode);
        cur = std::move(sib);
        continue;  // recheck bits on the sibling
      }
    }

    if (cur_level == target_level) break;

    SlottedPage sp(cur.data(), bm_->page_size());
    SlotId idx = node::FindChildIdx(sp, key);
    PageId child_id = node::ChildOf(sp.Get(idx));
    if (cur_level == 1) {
      counters.level1_visits.fetch_add(1, std::memory_order_relaxed);
    }

    LatchMode child_mode =
        (writer && cur_level - 1 == target_level) ? LatchMode::kExclusive
                                                  : LatchMode::kShared;
    PageRef child;
    OIR_RETURN_IF_ERROR(bm_->Fetch(child_id, &child));
    child.latch().Lock(child_mode);
    // Record the parent in the path, then release it (crabbing).
    path->push_back(PathEntry{cur.id(), cur_level,
                              cur.header()->page_lsn});
    cur.latch().Unlock(cur_mode);
    cur = std::move(child);
    cur_mode = child_mode;
    --cur_level;
  }

  // At the target level. Writers must additionally wait out SPLIT bits
  // (Section 2.2: SPLIT blocks writes, not reads) — unless the bit is our
  // own top action's.
  if (writer && (cur.header()->flags & kFlagSplit) != 0 &&
      !locks_->IsHeld(op.id, AddressLockKey(cur.id()), LockMode::kX)) {
    PageId blocked = cur.id();
    cur.latch().Unlock(cur_mode);
    cur.Release();
    counters.blocked_traversals.fetch_add(1, std::memory_order_relaxed);
    OIR_RETURN_IF_ERROR(locks_->LockInstant(
        op.id, AddressLockKey(blocked), LockMode::kS, /*conditional=*/false));
    goto retraverse;
  }
  *out = std::move(cur);
  return Status::OK();
}

Status BTree::MoveRightLeaf(OpCtx op, PageRef* leaf, const Slice& composite,
                            bool writer) {
  // Boundary race with a completed concurrent leaf split: the key may
  // belong to a right sibling that the parent did not yet show when we
  // descended. Readers may also cross SPLIT-bit pages (reads allowed).
  LatchMode mode = writer ? LatchMode::kExclusive : LatchMode::kShared;
  for (;;) {
    SlottedPage sp(leaf->data(), bm_->page_size());
    if (sp.nslots() > 0 &&
        composite.compare(sp.Get(sp.nslots() - 1)) <= 0) {
      return Status::OK();  // key within this leaf's resident range
    }
    PageId next_id = leaf->header()->next_page;
    if (next_id == kInvalidPageId) return Status::OK();
    PageRef next;
    OIR_RETURN_IF_ERROR(bm_->Fetch(next_id, &next));
    next.latch().Lock(mode);
    uint16_t flags = next.header()->flags;
    if ((flags & kFlagShrink) != 0 || (writer && (flags & kFlagSplit) != 0)) {
      // Blocked on the neighbour: wait and report Busy so the caller
      // retraverses.
      next.latch().Unlock(mode);
      next.Release();
      leaf->latch().Unlock(mode);
      leaf->Release();
      OIR_RETURN_IF_ERROR(locks_->LockInstant(
          op.id, AddressLockKey(next_id), LockMode::kS, /*conditional=*/false));
      return Status::Busy("blocked while moving right");
    }
    SlottedPage nsp(next.data(), bm_->page_size());
    if (nsp.nslots() == 0 || composite.compare(nsp.Get(0)) < 0) {
      // Key belongs at the end of the current leaf.
      next.latch().Unlock(mode);
      return Status::OK();
    }
    leaf->latch().Unlock(mode);
    *leaf = std::move(next);
  }
}

// ------------------------------------------------------------ public ops

Status BTree::Insert(OpCtx op, const Slice& user_key, RowId rid) {
  if (user_key.size() > kMaxUserKeyLen) {
    return Status::InvalidArgument("key too long");
  }
  std::string composite = MakeIndexKey(user_key, rid);
  return InsertComposite(op, Slice(composite));
}

Status BTree::Delete(OpCtx op, const Slice& user_key, RowId rid) {
  if (user_key.size() > kMaxUserKeyLen) {
    return Status::InvalidArgument("key too long");
  }
  std::string composite = MakeIndexKey(user_key, rid);
  return DeleteComposite(op, Slice(composite));
}

Status BTree::Lookup(OpCtx op, const Slice& user_key, RowId rid, bool* found) {
  std::string composite = MakeIndexKey(user_key, rid);
  Path path;
  for (;;) {
    PageRef leaf;
    OIR_RETURN_IF_ERROR(Traverse(op, Slice(composite), /*writer=*/false,
                                 kLeafLevel, &leaf, &path));
    Status s = MoveRightLeaf(op, &leaf, Slice(composite), /*writer=*/false);
    if (s.IsBusy()) continue;
    OIR_RETURN_IF_ERROR(s);
    SlottedPage sp(leaf.data(), bm_->page_size());
    SlotId pos;
    *found = node::LeafFind(sp, Slice(composite), &pos);
    leaf.latch().UnlockS();
    return Status::OK();
  }
}

Status BTree::InsertComposite(OpCtx op, const Slice& composite) {
  Path path;
  for (;;) {
    PageRef leaf;
    OIR_RETURN_IF_ERROR(
        Traverse(op, composite, /*writer=*/true, kLeafLevel, &leaf, &path));
    Status s = MoveRightLeaf(op, &leaf, composite, /*writer=*/true);
    if (s.IsBusy()) continue;
    OIR_RETURN_IF_ERROR(s);

    SlottedPage sp(leaf.data(), bm_->page_size());
    SlotId pos = node::LeafLowerBound(sp, composite);
    if (pos < sp.nslots() && sp.Get(pos) == composite) {
      leaf.latch().UnlockX();
      return Status::InvalidArgument("duplicate index key");
    }
    if (sp.HasRoomFor(static_cast<uint32_t>(composite.size()))) {
      LogInsert(op, &leaf, pos, composite, kLeafLevel);
      leaf.latch().UnlockX();
      return Status::OK();
    }
    // Full: split (a nested top action), then retry the insert — the row
    // insert must stay outside the NTA so rollback can compensate it. Busy:
    // the leaf was locked by another top action, which has now ended.
    Status split = LeafSplit(op, std::move(leaf), &path);
    if (!split.ok() && !split.IsBusy()) return split;
  }
}

Status BTree::DeleteComposite(OpCtx op, const Slice& composite) {
  Path path;
  for (;;) {
    PageRef leaf;
    OIR_RETURN_IF_ERROR(
        Traverse(op, composite, /*writer=*/true, kLeafLevel, &leaf, &path));
    Status s = MoveRightLeaf(op, &leaf, composite, /*writer=*/true);
    if (s.IsBusy()) continue;
    OIR_RETURN_IF_ERROR(s);

    SlottedPage sp(leaf.data(), bm_->page_size());
    SlotId pos;
    if (!node::LeafFind(sp, composite, &pos)) {
      leaf.latch().UnlockX();
      return Status::NotFound("index key not found");
    }
    const bool is_only_leaf = leaf.header()->prev_page == kInvalidPageId &&
                              leaf.header()->next_page == kInvalidPageId;
    if (sp.nslots() > 1 || is_only_leaf) {
      LogDelete(op, &leaf, pos, kLeafLevel);
      leaf.latch().UnlockX();
      return Status::OK();
    }
    // Removing the last row: shrink the page out of the tree (Section 2.4).
    return ShrinkLeaf(op, std::move(leaf), composite, &path);
  }
}

}  // namespace oir
