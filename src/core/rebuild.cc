#include "core/rebuild.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "core/rebuild_throttle.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "obs/waitstate.h"
#include "testing/crash_point.h"
#include "util/clock.h"
#include "util/counters.h"
#include "util/logging.h"

namespace oir {

namespace {

// One propagation entry (Section 5.1). `sender` is the page that passed the
// entry; UPDATE/INSERT entries carry the index entry [sep -> child] to put
// at the next level; route_key is a key from the sender's range used to
// traverse to its parent.
struct PropEntry {
  enum class Kind { kDelete, kUpdate, kInsert };
  Kind kind = Kind::kDelete;
  PageId sender = kInvalidPageId;
  std::string route_key;
  std::string sep;
  PageId child = kInvalidPageId;
};

// The level-1 page open for left-sibling inserts (Section 5.5).
struct OpenLeft {
  bool valid = false;
  PageId page = kInvalidPageId;
};

}  // namespace

struct OnlineRebuilder::Impl {
  BTree* tree;
  TransactionManager* tm;
  BufferManager* bm;
  LogManager* log;
  LockManager* locks;
  SpaceManager* space;
  RebuildJournal* journal = nullptr;
  RebuildOptions opts;
  RebuildResult* result;
  obs::RebuildProgressTracker* progress;

  // Rebuild position: largest composite key copied so far.
  std::string resume_key;
  bool has_resume = false;

  // Counters of the crashed run this one resumes (0 for a fresh run);
  // progress records carry them forward.
  uint64_t base_top_actions = 0;
  uint64_t base_transactions = 0;

  // Highest new page id produced so far (0 = none yet): the side-file
  // high-water mark carried in progress records so a resumed run knows the
  // extent of already-produced pages.
  PageId new_page_hwm = kInvalidPageId;

  // Per-transaction page sets. flush_pages_txn holds every keycopy TARGET
  // of the transaction — the new pages plus each top action's PP, which may
  // be a page created by an earlier transaction. All of them must reach
  // disk before the old pages are freed (Section 3), since keycopy redo
  // reconstructs targets from the source pages.
  std::vector<PageId> flush_pages_txn;
  std::vector<PageId> old_pages_txn;

  // Page images of the current top action's batch, one page-sized slot per
  // source page; reused across top actions so the copy phase allocates
  // nothing per row.
  std::vector<char> images;

  uint32_t page_size() const { return bm->page_size(); }
  uint32_t LeafCapacityBytes() const {
    return page_size() - kPageHeaderSize;
  }
  uint32_t FillTargetBytes() const {
    uint32_t t = LeafCapacityBytes() * opts.fillfactor / 100;
    // Always leave room for at least one maximal row so packing can make
    // progress.
    uint32_t min_t = kMaxUserKeyLen + sizeof(RowId) + kSlotSize;
    return std::max(t, min_t);
  }

  Status Run();
  // Appends a kRebuildProgress record describing the current position,
  // mirrored into the journal for checkpoint embedding, and fires the
  // "rebuild.progress.logged" crash point. `in_txn` records ride ahead of
  // their transaction's commit record (its flush makes them durable);
  // standalone markers are flushed immediately.
  Status LogProgress(bool done_flag, bool in_txn);
  Status TopAction(OpCtx op, BTree::Path* path, bool* done);
  Status LockBatch(OpCtx op, BTree::NtaScope* nta, const Slice& skey,
                   PageId* pp_id, std::vector<PageId>* batch, PageId* np_id,
                   bool* done);
  Status CopyPhase(OpCtx op, BTree::NtaScope* nta, PageId pp_id,
                   const std::vector<PageId>& batch, PageId np_id,
                   std::vector<PropEntry>* leaf_entries,
                   std::string* pp_route_key, bool* have_pp_route);
  Status Propagate(OpCtx op, BTree::NtaScope* nta,
                   std::vector<PropEntry> entries, uint16_t level,
                   const std::string& pp_route_key, bool have_pp_route,
                   BTree::Path* path);
  Status ApplyGroup(OpCtx op, BTree::NtaScope* nta, PageRef* parent,
                    uint16_t level, const PropEntry* entries, size_t count,
                    OpenLeft* open_left, std::vector<PropEntry>* next_level);
  Status SetBit(OpCtx op, BTree::NtaScope* nta, PageId page, uint16_t flag);
  Status FreeOldPagesViaLogScan(Transaction* txn);
};

OnlineRebuilder::OnlineRebuilder(BTree* tree, TransactionManager* tm,
                                 BufferManager* bm, LogManager* log,
                                 LockManager* locks, SpaceManager* space,
                                 RebuildJournal* journal)
    : tree_(tree),
      tm_(tm),
      bm_(bm),
      log_(log),
      locks_(locks),
      space_(space),
      journal_(journal) {}

Status OnlineRebuilder::Run(const RebuildOptions& options,
                            RebuildResult* result,
                            const RebuildProgressInfo* resume) {
  if (options.ntasize < 1 || options.xactsize < options.ntasize ||
      options.fillfactor < 50 || options.fillfactor > 100 ||
      options.io_pages < 1) {
    return Status::InvalidArgument("bad rebuild options");
  }
  // An io_pages run larger than the pool cannot be staged for a forced
  // multi-page write (and the prefetch path uses the same run size).
  if (options.io_pages > bm_->pool_frames()) {
    return Status::InvalidArgument("io_pages exceeds the buffer pool size");
  }
  if (resume != nullptr && resume->has_cursor && resume->cursor.empty()) {
    return Status::InvalidArgument("resume cursor marked valid but empty");
  }
  *result = RebuildResult();
  Impl impl;
  impl.tree = tree_;
  impl.tm = tm_;
  impl.bm = bm_;
  impl.log = log_;
  impl.locks = locks_;
  impl.space = space_;
  impl.journal = journal_;
  impl.opts = options;
  impl.result = result;
  impl.progress = &progress_;

  progress_.Reset();
  progress_.Begin(space_->CountInState(PageState::kAllocated));
  if (resume != nullptr) {
    // The copy restarts after the last durable cursor. Carry the crashed
    // run's counters so pollers see cumulative progress; RebuildResult
    // stays this-run-only.
    if (resume->has_cursor) {
      impl.resume_key = resume->cursor;
      impl.has_resume = true;
    }
    impl.base_top_actions = resume->top_actions;
    impl.base_transactions = resume->transactions;
    progress_.resumed.store(true, std::memory_order_relaxed);
    progress_.leaves_rebuilt.store(resume->leaves_rebuilt,
                                   std::memory_order_relaxed);
    progress_.top_actions.store(resume->top_actions,
                                std::memory_order_relaxed);
    progress_.transactions.store(resume->transactions,
                                 std::memory_order_relaxed);
    result->resumed = true;
    result->resume_cursor = impl.resume_key;
  }

  CounterSnapshot before = GlobalCounters::Get().Snapshot();
  uint64_t cpu0 = ThreadCpuNanos();
  uint64_t wall0 = NowNanos();
  Status s = impl.Run();
  result->cpu_ns = ThreadCpuNanos() - cpu0;
  result->wall_ns = NowNanos() - wall0;
  CounterSnapshot delta = GlobalCounters::Get().Snapshot() - before;
  result->log_bytes = delta.log_bytes;
  result->log_records = delta.log_records;
  result->level1_visits = delta.level1_visits;
  result->io_ops = delta.io_ops;
  progress_.Finish();
  if (options.on_progress) options.on_progress(progress_.Load());
  MutexLock l(last_mu_);
  last_ = *result;
  return s;
}

bool OnlineRebuilder::last_result(RebuildResult* out) const {
  MutexLock l(last_mu_);
  if (!last_) return false;
  *out = *last_;
  return true;
}

std::string RebuildResult::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("old_leaf_pages").Value(old_leaf_pages);
  w.Key("new_leaf_pages").Value(new_leaf_pages);
  w.Key("keys_moved").Value(keys_moved);
  w.Key("top_actions").Value(top_actions);
  w.Key("transactions").Value(transactions);
  w.Key("log_bytes").Value(log_bytes);
  w.Key("log_records").Value(log_records);
  w.Key("cpu_ns").Value(cpu_ns);
  w.Key("wall_ns").Value(wall_ns);
  w.Key("level1_visits").Value(level1_visits);
  w.Key("io_ops").Value(io_ops);
  w.Key("resumed").Value(resumed);
  w.Key("resume_cursor").Value(resume_cursor);
  w.Key("progress_records").Value(progress_records);
  w.Key("throttle_pauses").Value(throttle_pauses);
  w.Key("throttle_pause_us").Value(throttle_pause_us);
  w.EndObject();
  return w.str();
}

Status OnlineRebuilder::Impl::Run() {
  // Admission control: paced between top actions; lives for this run only.
  RebuildThrottle throttle(RebuildThrottle::Config{
      opts.max_foreground_degradation_pct, opts.throttle_baseline_ns});
  throttle.Start();

  // Durable begin marker: recovery learns a rebuild is in flight even
  // before the first transaction commits (resume falls back to "restart
  // from the cursor carried here" — for a fresh run, from the beginning,
  // but with the prior counters intact).
  Status ps = LogProgress(/*done_flag=*/false, /*in_txn=*/false);
  if (!ps.ok()) return ps;

  bool done = false;
  BTree::Path path;
  Status s;  // stays OK while the loop runs; an error ends it
  while (!done) {
    OIR_CRASH_POINT("rebuild.txn.begin");
    std::unique_ptr<Transaction> txn = tm->Begin();
    OpCtx op{txn->id(), txn->ctx()};
    flush_pages_txn.clear();
    old_pages_txn.clear();
    uint32_t pages_this_txn = 0;
    while (pages_this_txn < opts.xactsize && !done) {
      size_t before = old_pages_txn.size();
      OIR_TRACE(obs::TraceEventType::kTopActionBegin, result->top_actions, 0);
      {
        // Each top action is one rebuild "operation" in the wait profile;
        // pacing inside the scope attributes the pause as throttled time
        // of the rebuild op rather than unclassified thread idle.
        obs::OpScope rebuild_op(obs::OpType::kRebuild);
        throttle.Pace();
        const RebuildThrottle::Stats ts = throttle.stats();
        progress->throttle_pauses.store(ts.pauses, std::memory_order_relaxed);
        progress->throttle_us.store(ts.pause_us, std::memory_order_relaxed);
        s = TopAction(op, &path, &done);
      }
      const uint64_t delta = old_pages_txn.size() - before;
      OIR_TRACE(obs::TraceEventType::kTopActionEnd, result->top_actions,
                delta);
      if (!s.ok()) break;
      pages_this_txn += static_cast<uint32_t>(delta);
      progress->leaves_rebuilt.fetch_add(delta, std::memory_order_relaxed);
      progress->top_actions.store(base_top_actions + result->top_actions,
                                  std::memory_order_relaxed);
      if (opts.on_progress) opts.on_progress(progress->Load());
    }
    // Commit path (Section 3): force the new pages, commit, then free the
    // old pages found by scanning the transaction's log chain.
    const uint64_t flush0 = NowNanos();
    if (s.ok()) {
      OIR_CRASH_POINT("rebuild.txn.flush");
      s = bm->FlushPages(flush_pages_txn, opts.io_pages);
    }
    // Durable progress rides AHEAD of the commit record: the group-commit
    // flush that makes this transaction durable makes the progress record
    // durable in the same prefix, so the resume point can never trail the
    // committed transaction count — a crash anywhere after Commit returns
    // still finds this transaction's cursor on disk. (Safe even if the
    // commit record itself is lost: the record's top actions are NTAs in
    // the same durable prefix, and they survive the rollback.) The done
    // record doubles as the "no resume needed" marker for recovery and
    // clears the checkpoint journal.
    if (s.ok()) s = LogProgress(/*done_flag=*/done, /*in_txn=*/true);
    if (!s.ok()) {
      // Abort path (Section 4.1.3): the in-flight top action was already
      // rolled back inside TopAction; completed top actions survive the
      // transaction rollback (nested top actions). Their new pages must
      // reach disk before their old pages are freed (Section 3); if this
      // forced write fails too, the old pages stay deallocated and restart
      // recovery frees them.
      const bool flushed = bm->FlushPages(flush_pages_txn, opts.io_pages).ok();
      (void)tm->Abort(txn.get());  // already propagating the first error
      for (PageId p : old_pages_txn) {
        if (flushed && space->GetState(p) == PageState::kDeallocated) {
          // Drop the stale buffer BEFORE the page becomes allocatable;
          // otherwise a concurrent allocation could format the page and
          // have its frame discarded from under it.
          bm->Discard(p);
          space->Free(p);
        }
      }
      break;
    }
    OIR_CRASH_POINT("rebuild.txn.commit");
    OIR_RETURN_IF_ERROR(tm->Commit(txn.get()));
    OIR_RETURN_IF_ERROR(FreeOldPagesViaLogScan(txn.get()));
    OIR_CRASH_POINT("rebuild.txn.freed");
    progress->flush_us.fetch_add((NowNanos() - flush0) / 1000,
                                 std::memory_order_relaxed);
    ++result->transactions;
    progress->transactions.fetch_add(1, std::memory_order_relaxed);
    if (opts.on_progress) opts.on_progress(progress->Load());
  }
  RebuildThrottle::Stats ts = throttle.stats();
  result->throttle_pauses = ts.pauses;
  result->throttle_pause_us = ts.pause_us;
  return s;
}

Status OnlineRebuilder::Impl::LogProgress(bool done_flag, bool in_txn) {
  LogRecord rec;
  rec.type = LogType::kRebuildProgress;
  RebuildProgressInfo& rp = rec.rebuild_progress;
  rp.active = !done_flag;
  rp.done = done_flag;
  rp.has_cursor = has_resume;
  rp.cursor = resume_key;
  rp.leaves_rebuilt =
      progress->leaves_rebuilt.load(std::memory_order_relaxed);
  rp.top_actions = base_top_actions + result->top_actions;
  // An in-transaction record rides ahead of its transaction's commit
  // record, so it counts the transaction it rides in: if the record is
  // durable, every preceding top action is durable with it (WAL flushes
  // are prefix-ordered, and top actions are NTAs that survive even their
  // transaction's rollback) — the cursor is valid no matter how the commit
  // itself fares.
  rp.transactions =
      base_transactions + result->transactions + (in_txn ? 1 : 0);
  rp.new_page_hwm = new_page_hwm;
  const Lsn lsn = journal != nullptr ? journal->AppendAndPublish(log, &rec)
                                     : log->AppendSystem(&rec);
  if (!in_txn) {
    // Standalone marker (begin): nothing downstream is about to flush it,
    // so force it durable now. In-transaction records skip this — the
    // group-commit flush that makes the transaction durable covers them.
    OIR_RETURN_IF_ERROR(log->FlushTo(lsn));
  }
  OIR_CRASH_POINT("rebuild.progress.logged");
  ++result->progress_records;
  progress->progress_records.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status OnlineRebuilder::Impl::FreeOldPagesViaLogScan(Transaction* txn) {
  // Section 4.1.3: the transaction scans its own log records to find the
  // pages it deallocated and frees them.
  Lsn cur = txn->last_lsn();
  while (cur != kInvalidLsn) {
    LogRecord rec;
    OIR_RETURN_IF_ERROR(log->ReadRecord(cur, &rec));
    if (rec.type == LogType::kDealloc && !rec.is_clr) {
      for (PageId p : rec.pages) {
        if (space->GetState(p) == PageState::kDeallocated) {
          // Discard first: once Free() runs the page is allocatable by
          // concurrent transactions, and discarding after that could
          // destroy a freshly formatted page.
          bm->Discard(p);
          space->Free(p);
        }
      }
    }
    cur = rec.prev_lsn;
  }
  return Status::OK();
}

Status OnlineRebuilder::Impl::SetBit(OpCtx /*op*/, BTree::NtaScope* nta,
                                     PageId page, uint16_t flag) {
  PageRef ref;
  OIR_RETURN_IF_ERROR(bm->Fetch(page, &ref));
  ref.latch().LockX();
  ref.header()->flags |= flag;
  ref.latch().UnlockX();
  nta->bits.push_back(page);
  return Status::OK();
}

// Locks PP, P1..Pn per Section 4.1.1: PP and P1 unconditionally (but
// releasing everything before waiting, per the Section 6.5 deadlock rule),
// P2..Pn conditionally — a busy page truncates the batch.
Status OnlineRebuilder::Impl::LockBatch(OpCtx op, BTree::NtaScope* nta,
                                        const Slice& skey, PageId* pp_id,
                                        std::vector<PageId>* batch,
                                        PageId* np_id, bool* done) {
  for (int attempt = 0;; ++attempt) {
    if (attempt > 1000000) return Status::Aborted("rebuild lock livelock");
    // Find P1: the leaf owning skey, or a successor if that leaf holds no
    // row >= skey.
    BTree::Path scratch;
    PageRef p1;
    OIR_RETURN_IF_ERROR(
        tree->Traverse(op, skey, /*writer=*/true, kLeafLevel, &p1, &scratch));
    for (;;) {
      SlottedPage sp(p1.data(), page_size());
      if (node::LeafLowerBound(sp, skey) < sp.nslots()) break;
      PageId next = p1.header()->next_page;
      if (next == kInvalidPageId) {
        p1.latch().UnlockX();
        *done = true;
        return Status::OK();
      }
      PageRef nref;
      OIR_RETURN_IF_ERROR(bm->Fetch(next, &nref));
      nref.latch().LockX();
      if ((nref.header()->flags & (kFlagSplit | kFlagShrink)) != 0) {
        nref.latch().UnlockX();
        nref.Release();
        p1.latch().UnlockX();
        p1.Release();
        OIR_RETURN_IF_ERROR(locks->LockInstant(op.id, AddressLockKey(next),
                                               LockMode::kS,
                                               /*conditional=*/false));
        nref = PageRef();
        goto retry;
      }
      p1.latch().UnlockX();
      p1 = std::move(nref);
    }
    {
      const PageId p1_id = p1.id();
      progress->current_page.store(p1_id, std::memory_order_relaxed);
      const PageId prev_guess = p1.header()->prev_page;
      p1.latch().UnlockX();
      p1.Release();

      // Acquire PP then P1, left to right, conditionally; on conflict
      // release everything, wait, retry (Section 6.5).
      if (prev_guess != kInvalidPageId) {
        Status ls = locks->Lock(op.id, AddressLockKey(prev_guess),
                                LockMode::kX, /*conditional=*/true);
        if (ls.IsBusy()) {
          OIR_RETURN_IF_ERROR(locks->LockInstant(
              op.id, AddressLockKey(prev_guess), LockMode::kS,
              /*conditional=*/false));
          goto retry;
        }
        OIR_RETURN_IF_ERROR(ls);
      }
      Status ls = locks->Lock(op.id, AddressLockKey(p1_id), LockMode::kX,
                              /*conditional=*/true);
      if (ls.IsBusy()) {
        if (prev_guess != kInvalidPageId) {
          locks->Unlock(op.id, AddressLockKey(prev_guess));
        }
        OIR_RETURN_IF_ERROR(locks->LockInstant(op.id, AddressLockKey(p1_id),
                                               LockMode::kS,
                                               /*conditional=*/false));
        goto retry;
      }
      if (!ls.ok()) {
        if (prev_guess != kInvalidPageId) {
          locks->Unlock(op.id, AddressLockKey(prev_guess));
        }
        return ls;
      }

      // Revalidate: P1 still allocated, a leaf, and its prev link still
      // matches (the link may have changed before we got the locks).
      bool valid = space->GetState(p1_id) == PageState::kAllocated;
      if (valid) {
        PageRef chk;
        OIR_RETURN_IF_ERROR(bm->Fetch(p1_id, &chk));
        chk.latch().LockS();
        valid = chk.header()->level == kLeafLevel &&
                chk.header()->prev_page == prev_guess;
        chk.latch().UnlockS();
      }
      if (!valid) {
        locks->Unlock(op.id, AddressLockKey(p1_id));
        if (prev_guess != kInvalidPageId) {
          locks->Unlock(op.id, AddressLockKey(prev_guess));
        }
        goto retry;
      }

      // Locks are stable: record them in the top action and set the SHRINK
      // bits in left-to-right order (Section 4.1.1).
      // Section 6.2 enhancement: the pages being rebuilt get SPLIT bits
      // during the copy phase so readers stay unblocked; PP gets SHRINK
      // (it receives rows). The SPLIT bits are flipped to SHRINK after the
      // copying, right before the old pages are unlinked.
      *pp_id = prev_guess;
      if (prev_guess != kInvalidPageId) {
        nta->locked.push_back(prev_guess);
        OIR_RETURN_IF_ERROR(SetBit(op, nta, prev_guess, kFlagShrink));
      }
      nta->locked.push_back(p1_id);
      OIR_RETURN_IF_ERROR(SetBit(op, nta, p1_id, kFlagSplit));

      // Extend the batch with P2..Pn under conditional locks.
      batch->clear();
      batch->push_back(p1_id);
      PageId cur = p1_id;
      // Read-ahead twin of the forced write (Section 6.3): the chain walk
      // below is where a cold rebuild first touches each old page, so pull
      // them in with multi-page transfers of up to io_pages pages. The
      // leaf chain of a bulk-loaded index is mostly physically sequential;
      // a jump just starts a new window, and Prefetch skips whatever is
      // already cached. Purely speculative — failures fall back to the
      // per-page Fetch.
      PageId ra_first = kInvalidPageId;
      while (batch->size() < opts.ntasize) {
        PageRef cref;
        OIR_RETURN_IF_ERROR(bm->Fetch(cur, &cref));
        cref.latch().LockS();
        PageId next = cref.header()->next_page;
        cref.latch().UnlockS();
        cref.Release();
        if (next == kInvalidPageId) break;
        if (opts.prefetch && opts.io_pages > 1 &&
            (ra_first == kInvalidPageId || next < ra_first ||
             next >= ra_first + opts.io_pages)) {
          (void)bm->Prefetch(next, opts.io_pages);
          ra_first = next;
        }
        Status cs = locks->Lock(op.id, AddressLockKey(next), LockMode::kX,
                                /*conditional=*/true);
        if (cs.IsBusy()) {
          // Truncate the batch (Section 4.1.1).
          progress->batches_truncated.fetch_add(1, std::memory_order_relaxed);
          OIR_TRACE(obs::TraceEventType::kTopActionTruncate, next,
                    batch->size());
          break;
        }
        OIR_RETURN_IF_ERROR(cs);
        // Revalidate adjacency now that the lock pins the link.
        PageRef chk;
        OIR_RETURN_IF_ERROR(bm->Fetch(cur, &chk));
        chk.latch().LockS();
        bool still_next = chk.header()->next_page == next;
        chk.latch().UnlockS();
        if (!still_next) {
          locks->Unlock(op.id, AddressLockKey(next));
          continue;  // chain changed; re-read and retry this link
        }
        nta->locked.push_back(next);
        OIR_RETURN_IF_ERROR(SetBit(op, nta, next, kFlagSplit));
        batch->push_back(next);
        cur = next;
      }
      {
        PageRef lref;
        OIR_RETURN_IF_ERROR(bm->Fetch(cur, &lref));
        lref.latch().LockS();
        *np_id = lref.header()->next_page;
        lref.latch().UnlockS();
      }
      return Status::OK();
    }
  retry:
    // Undo nothing — no bits were set before this point on this attempt.
    progress->retries.fetch_add(1, std::memory_order_relaxed);
    continue;
  }
}

Status OnlineRebuilder::Impl::TopAction(OpCtx op, BTree::Path* path,
                                        bool* done) {
  const uint64_t ta = result->top_actions;  // ordinal for trace correlation
  const uint64_t copy0 = NowNanos();
  OIR_TRACE(obs::TraceEventType::kCopyPhaseBegin, ta, 0);
  // Copy phase = lock the batch + copy the rows (Section 4.1). Charged as
  // one phase; ends before propagation begins.
  auto end_copy = [&](uint64_t pages) {
    progress->copy_us.fetch_add((NowNanos() - copy0) / 1000,
                                std::memory_order_relaxed);
    OIR_TRACE(obs::TraceEventType::kCopyPhaseEnd, ta, pages);
  };

  std::string skey =
      has_resume ? resume_key + std::string(1, '\0') : std::string();

  OIR_CRASH_POINT("rebuild.topaction.begin");
  BTree::NtaScope nta;
  tree->BeginNta(op, &nta);

  PageId pp_id = kInvalidPageId;
  PageId np_id = kInvalidPageId;
  std::vector<PageId> batch;
  Status s = LockBatch(op, &nta, Slice(skey), &pp_id, &batch, &np_id, done);
  if (!s.ok() || *done) {
    tree->ReleaseNtaResources(op, &nta);
    end_copy(0);
    return s;
  }
  OIR_CRASH_POINT("rebuild.lockbatch.locked");

  const bool batch_is_root_leaf = batch.size() == 1 && batch[0] == tree->root();

  std::vector<PropEntry> leaf_entries;
  std::string pp_route_key;
  bool have_pp_route = false;
  s = CopyPhase(op, &nta, pp_id, batch, np_id, &leaf_entries, &pp_route_key,
                &have_pp_route);
  end_copy(batch.size());
  const bool prop_began = s.ok();
  const uint64_t prop0 = NowNanos();
  if (prop_began) OIR_TRACE(obs::TraceEventType::kPropagatePhaseBegin, ta, 0);
  if (s.ok() && batch_is_root_leaf) {
    // Height-1 tree: there is no level 1 to propagate into. The new pages
    // either become the root directly (one page) or get a fresh level-1
    // root above them.
    std::vector<std::pair<std::string, PageId>> kids;
    for (const PropEntry& e : leaf_entries) {
      if (e.kind != PropEntry::Kind::kDelete) kids.emplace_back(e.sep, e.child);
    }
    OIR_CHECK(!kids.empty());
    const PageId first = kids[0].second;
    kids.erase(kids.begin());
    s = kids.empty() ? tree->SetRoot(op, first)
                     : tree->NewRoot(op, first, kids, kLeafLevel);
  } else if (s.ok()) {
    s = Propagate(op, &nta, std::move(leaf_entries), 1, pp_route_key,
                  have_pp_route, path);
  }
  if (prop_began) {
    progress->propagate_us.fetch_add((NowNanos() - prop0) / 1000,
                                     std::memory_order_relaxed);
    OIR_TRACE(obs::TraceEventType::kPropagatePhaseEnd, ta, 0);
  }
  if (!s.ok()) {
    Status rb = tree->AbortNta(op, &nta);
    (void)rb;
    return s;
  }
  OIR_CRASH_POINT("rebuild.topaction.end");
  OIR_RETURN_IF_ERROR(tree->EndNta(op, &nta));
  old_pages_txn.insert(old_pages_txn.end(), batch.begin(), batch.end());
  ++result->top_actions;
  result->old_leaf_pages += batch.size();
  return Status::OK();
}

Status OnlineRebuilder::Impl::CopyPhase(OpCtx op, BTree::NtaScope* nta,
                                        PageId pp_id,
                                        const std::vector<PageId>& batch,
                                        PageId np_id,
                                        std::vector<PropEntry>* leaf_entries,
                                        std::string* pp_route_key,
                                        bool* have_pp_route) {
  const uint32_t fill_target = FillTargetBytes();

  // Snapshot the source pages: each is copied whole into its slot of
  // `images` under a brief S latch. The pages are X-locked and SPLIT-marked,
  // so writers stay out and the image is stable. Planning, separators and
  // the keycopy apply all read rows as Slices into these images.
  struct Source {
    PageId page;
    Lsn ts;
    SlottedPage rows;  // view of the page image
    uint16_t n;        // rows.nslots()
    Slice first_key() const { return n > 0 ? rows.Get(0) : Slice(); }
  };
  std::vector<Source> sources;
  sources.reserve(batch.size());
  images.resize(batch.size() * page_size());

  for (PageId p : batch) {
    PageRef ref;
    OIR_RETURN_IF_ERROR(bm->Fetch(p, &ref));
    char* image = images.data() + sources.size() * page_size();
    ref.latch().LockS();
    std::memcpy(image, ref.data(), page_size());
    ref.latch().UnlockS();
    SlottedPage sp(image, page_size());
    sources.push_back(Source{p, sp.header()->page_lsn, sp, sp.nslots()});
  }
  OIR_CRASH_POINT("rebuild.copy.sources_read");

  // PP's available budget under the fill target, and its last key (for
  // separator compression). PP is live, so its keys are copied out.
  uint32_t pp_budget = 0;
  std::string pp_last_key;
  Slice prev_last_key;  // last key physically before the copy point
  if (pp_id != kInvalidPageId) {
    PageRef ref;
    OIR_RETURN_IF_ERROR(bm->Fetch(pp_id, &ref));
    ref.latch().LockS();
    SlottedPage sp(ref.data(), page_size());
    uint32_t used = sp.UsedSpace();
    uint32_t freeb = sp.FreeSpace();
    if (used < fill_target) {
      pp_budget = std::min(fill_target - used, freeb);
    }
    if (sp.nslots() > 0) {
      pp_last_key = sp.Get(static_cast<SlotId>(sp.nslots() - 1)).ToString();
      prev_last_key = Slice(pp_last_key);
      *pp_route_key = sp.Get(0).ToString();
      *have_pp_route = true;
    }
    ref.latch().UnlockS();
  }

  // Plan the packing: assign every source row to PP or to a new page. A
  // placement is (target index: -1 = PP, j = new page j; slot).
  struct Placement {
    int target;   // -1 = PP, else index into new pages
    SlotId slot;  // target slot
  };
  std::vector<std::vector<Placement>> placements(sources.size());
  // Per new page: accumulated bytes; opener source index.
  std::vector<uint32_t> new_used;
  std::vector<size_t> opener;            // source index that opened the page
  std::vector<Slice> first_keys;         // first row per new page
  std::vector<Slice> last_keys;          // last row per new page
  std::vector<SlotId> new_counts;
  uint32_t pp_used_extra = 0;
  SlotId pp_slot = 0;  // relative slot counter; absolute base added later
  uint64_t keys_total = 0;

  for (size_t si = 0; si < sources.size(); ++si) {
    placements[si].resize(sources[si].n);
    for (SlotId ri = 0; ri < sources[si].n; ++ri) {
      const Slice row = sources[si].rows.Get(ri);
      const uint32_t need = static_cast<uint32_t>(row.size()) + kSlotSize;
      ++keys_total;
      if (new_used.empty() && pp_used_extra + need <= pp_budget) {
        placements[si][ri] = Placement{-1, pp_slot++};
        pp_used_extra += need;
        // PP's last key advances as it absorbs rows; the separator of the
        // first new page must compress against the *post-copy* last key.
        prev_last_key = row;
        continue;
      }
      if (new_used.empty() || new_used.back() + need > fill_target) {
        new_used.push_back(0);
        opener.push_back(si);
        first_keys.push_back(row);
        last_keys.push_back(Slice());
        new_counts.push_back(0);
      }
      placements[si][ri] =
          Placement{static_cast<int>(new_used.size() - 1), new_counts.back()};
      ++new_counts.back();
      new_used.back() += need;
      last_keys.back() = row;
    }
  }
  const uint32_t k = static_cast<uint32_t>(new_used.size());

  // Allocate the new pages from a contiguous chunk (Section 6.1) and format
  // them, linked PP -> N1 -> ... -> Nk -> NP. SPLIT bits + X locks keep
  // writers out while readers may pass once linked (Section 6.2).
  std::vector<PageId> new_ids;
  if (k > 0) {
    OIR_RETURN_IF_ERROR(space->AllocateChunk(op.ctx, k, &new_ids));
    for (PageId id : new_ids) {
      if (id > new_page_hwm) new_page_hwm = id;
    }
  }
  OIR_CRASH_POINT("rebuild.copy.alloc");
  for (uint32_t j = 0; j < k; ++j) {
    OIR_CHECK(locks
                  ->Lock(op.id, AddressLockKey(new_ids[j]), LockMode::kX,
                         /*conditional=*/false)
                  .ok());
    nta->locked.push_back(new_ids[j]);
    PageId prev = j == 0 ? pp_id : new_ids[j - 1];
    PageId next = j + 1 < k ? new_ids[j + 1] : np_id;
    PageRef ref;
    OIR_RETURN_IF_ERROR(
        tree->FormatNewPage(op, new_ids[j], kLeafLevel, prev, next, &ref));
    ref.header()->flags |= kFlagSplit;
    nta->bits.push_back(new_ids[j]);
    ref.latch().UnlockX();
  }

  // Record base slot of PP.
  SlotId pp_base = 0;
  if (pp_id != kInvalidPageId && pp_used_extra > 0) {
    PageRef ref;
    OIR_RETURN_IF_ERROR(bm->Fetch(pp_id, &ref));
    ref.latch().LockS();
    pp_base = SlottedPage(ref.data(), page_size()).nslots();
    ref.latch().UnlockS();
  }

  auto target_page = [&](int t) {
    return t == -1 ? pp_id : new_ids[t];
  };
  auto target_slot = [&](const Placement& pl) {
    return static_cast<SlotId>(pl.target == -1 ? pp_base + pl.slot : pl.slot);
  };

  // Log + apply the copy. Normal mode: one keycopy record with positions
  // only (Section 4.1.2). Ablation mode (log_full_keys): batch inserts with
  // the key bytes.
  if (!opts.log_full_keys) {
    LogRecord rec;
    rec.type = LogType::kKeyCopy;
    for (size_t si = 0; si < sources.size(); ++si) {
      size_t ri = 0;
      while (ri < sources[si].n) {
        // Maximal run of rows from this source going to one target.
        size_t rj = ri + 1;
        while (rj < sources[si].n &&
               placements[si][rj].target == placements[si][ri].target) {
          ++rj;
        }
        KeyCopyEntry e;
        e.src_page = sources[si].page;
        e.src_ts = sources[si].ts;
        e.tgt_page = target_page(placements[si][ri].target);
        e.src_first = static_cast<SlotId>(ri);
        e.src_last = static_cast<SlotId>(rj - 1);
        e.tgt_first = target_slot(placements[si][ri]);
        rec.copies.push_back(e);
        ri = rj;
      }
    }
    if (!rec.copies.empty()) {
      Lsn lsn = log->Append(&rec, op.ctx);
      OIR_CRASH_POINT("rebuild.copy.keycopy_logged");
      // Apply each entry to its target under the target's X latch, with
      // the row mover keycopy redo uses. Entries run in source order.
      size_t si = 0;
      for (const KeyCopyEntry& e : rec.copies) {
        while (sources[si].page != e.src_page) ++si;
        PageRef ref;
        OIR_RETURN_IF_ERROR(bm->Fetch(e.tgt_page, &ref));
        ref.latch().LockX();
        SlottedPage sp(ref.data(), page_size());
        OIR_CHECK(sp.InsertRowsFrom(e.tgt_first, sources[si].rows,
                                    e.src_first, e.src_last));
        sp.header()->page_lsn = lsn;
        ref.latch().UnlockX();
        ref.MarkDirty();
      }
    }
  } else {
    // Ablation: group rows per target page and log their contents.
    std::vector<std::vector<std::string>> per_target(k + 1);
    for (size_t si = 0; si < sources.size(); ++si) {
      for (SlotId ri = 0; ri < sources[si].n; ++ri) {
        int t = placements[si][ri].target;
        per_target[t + 1].push_back(sources[si].rows.Get(ri).ToString());
      }
    }
    for (size_t t = 0; t < per_target.size(); ++t) {
      if (per_target[t].empty()) continue;
      PageId pid = t == 0 ? pp_id : new_ids[t - 1];
      SlotId base = t == 0 ? pp_base : 0;
      PageRef ref;
      OIR_RETURN_IF_ERROR(bm->Fetch(pid, &ref));
      ref.latch().LockX();
      tree->LogBatchInsert(op, &ref, base, per_target[t], kLeafLevel);
      ref.latch().UnlockX();
    }
  }

  OIR_CRASH_POINT("rebuild.copy.applied");
  // The copying is done: flip the batch pages' SPLIT bits to SHRINK bits
  // (under an X latch, Section 6.2) so readers drain before the pages are
  // unlinked and deallocated.
  for (PageId p : batch) {
    PageRef ref;
    OIR_RETURN_IF_ERROR(bm->Fetch(p, &ref));
    ref.latch().LockX();
    ref.header()->flags = static_cast<uint16_t>(
        (ref.header()->flags & ~kFlagSplit) | kFlagShrink);
    ref.latch().UnlockX();
  }
  OIR_CRASH_POINT("rebuild.copy.bits_flipped");

  // Fix the chain around the batch: PP.next and NP.prev skip the old pages
  // ("changeprevlink", Section 4.1.2).
  const PageId after_pp = k > 0 ? new_ids[0] : np_id;
  const PageId before_np = k > 0 ? new_ids[k - 1] : pp_id;
  if (pp_id != kInvalidPageId) {
    PageRef ref;
    OIR_RETURN_IF_ERROR(bm->Fetch(pp_id, &ref));
    ref.latch().LockX();
    tree->LogSetNextLink(op, &ref, after_pp);
    ref.latch().UnlockX();
  }
  if (np_id != kInvalidPageId) {
    PageRef ref;
    OIR_RETURN_IF_ERROR(bm->Fetch(np_id, &ref));
    ref.latch().LockX();
    tree->LogSetPrevLink(op, &ref, before_np);
    ref.latch().UnlockX();
  }
  OIR_CRASH_POINT("rebuild.copy.prevlink");

  // Deallocate the old pages (freed at transaction commit; Section 4.1.3).
  OIR_RETURN_IF_ERROR(space->DeallocateBatch(op.ctx, batch));
  OIR_CRASH_POINT("rebuild.copy.dealloc");

  // Build the leaf propagation entries (Section 5.2).
  for (size_t si = 0; si < sources.size(); ++si) {
    PropEntry base;
    base.sender = sources[si].page;
    base.route_key = (sources[si].n == 0 && si > 0
                          ? sources[si - 1].first_key()
                          : sources[si].first_key())
                         .ToString();
    bool first_for_sender = true;
    for (uint32_t j = 0; j < k; ++j) {
      if (opener[j] != si) continue;
      PropEntry e = base;
      e.kind = first_for_sender ? PropEntry::Kind::kUpdate
                                : PropEntry::Kind::kInsert;
      first_for_sender = false;
      e.child = new_ids[j];
      // Separator between the previous target's last key and this page's
      // first key (suffix compression).
      const Slice left = j == 0 ? prev_last_key : last_keys[j - 1];
      e.sep = left.empty() ? first_keys[j].ToString()
                           : MakeSeparator(left, first_keys[j]);
      leaf_entries->push_back(std::move(e));
    }
    if (first_for_sender) {
      // No allocations were needed for this page's keys: DELETE entry.
      PropEntry e = base;
      e.kind = PropEntry::Kind::kDelete;
      leaf_entries->push_back(std::move(e));
    }
  }

  // Advance the rebuild position.
  if (k > 0 && !last_keys.back().empty()) {
    resume_key.assign(last_keys.back().data(), last_keys.back().size());
    has_resume = true;
  } else {
    // Everything fit into PP: the last copied row is the last row overall.
    for (size_t si = sources.size(); si-- > 0;) {
      if (sources[si].n > 0) {
        const Slice last = sources[si].rows.Get(sources[si].n - 1);
        resume_key.assign(last.data(), last.size());
        has_resume = true;
        break;
      }
    }
  }
  result->keys_moved += keys_total;
  result->new_leaf_pages += k;
  flush_pages_txn.insert(flush_pages_txn.end(), new_ids.begin(),
                         new_ids.end());
  if (pp_id != kInvalidPageId && pp_used_extra > 0) {
    // PP received copied rows: it is a keycopy target and must be part of
    // the forced write even though it was created by an earlier
    // transaction.
    flush_pages_txn.push_back(pp_id);
  }
  return Status::OK();
}

// -------------------------------------------------------------- propagation

Status OnlineRebuilder::Impl::Propagate(OpCtx op, BTree::NtaScope* nta,
                                        std::vector<PropEntry> entries,
                                        uint16_t level,
                                        const std::string& pp_route_key,
                                        bool have_pp_route,
                                        BTree::Path* path) {
  while (!entries.empty()) {
    std::vector<PropEntry> next_level;
    OpenLeft open_left;

    // Section 5.5: at level 1, the parent of PP starts as the open left
    // page — the worked example of Figure 2 inserts [22, N1] into it.
    if (level == 1 && opts.reorganize_level1 && have_pp_route) {
      PageRef lp;
      OIR_RETURN_IF_ERROR(tree->Traverse(op, Slice(pp_route_key),
                                         /*writer=*/true, level, &lp, path));
      const PageId lid = lp.id();
      Status ls = locks->Lock(op.id, AddressLockKey(lid), LockMode::kX,
                              /*conditional=*/false);
      if (!ls.ok()) {
        lp.latch().UnlockX();
        return ls;
      }
      nta->locked.push_back(lid);
      lp.header()->flags |= kFlagSplit;  // insert-only so far (Section 5.4.2)
      nta->bits.push_back(lid);
      lp.latch().UnlockX();
      open_left.valid = true;
      open_left.page = lid;
    }

    size_t i = 0;
    while (i < entries.size()) {
      PageRef parent;
      OIR_RETURN_IF_ERROR(tree->Traverse(op, Slice(entries[i].route_key),
                                         /*writer=*/true, level, &parent,
                                         path));
      SlottedPage sp(parent.data(), page_size());
      // Group = maximal run of entries whose senders are children of this
      // parent (they are contiguous in the list; Section 5.4.1).
      size_t j = i;
      while (j < entries.size() &&
             node::FindChildPos(sp, entries[j].sender) >= 0) {
        ++j;
      }
      if (j == i) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "propagation: sender entry missing from parent "
                      "(level=%u sender=%u landed=%u nslots=%u kind=%d "
                      "entry=%zu/%zu)",
                      level, entries[i].sender, parent.id(),
                      SlottedPage(parent.data(), page_size()).nslots(),
                      static_cast<int>(entries[i].kind), i, entries.size());
        parent.latch().UnlockX();
        return Status::Corruption(buf);
      }
      OIR_RETURN_IF_ERROR(ApplyGroup(op, nta, &parent, level, &entries[i],
                                     j - i, &open_left, &next_level));
      i = j;
    }
    entries = std::move(next_level);
    ++level;
    have_pp_route = false;  // the left-page seeding applies to level 1 only
  }
  return Status::OK();
}

Status OnlineRebuilder::Impl::ApplyGroup(OpCtx op, BTree::NtaScope* nta,
                                         PageRef* parent, uint16_t level,
                                         const PropEntry* entries,
                                         size_t count, OpenLeft* open_left,
                                         std::vector<PropEntry>* next_level) {
  OIR_CRASH_POINT("rebuild.propagate.group");
  const PageId pid = parent->id();
  Status ls = locks->Lock(op.id, AddressLockKey(pid), LockMode::kX,
                          /*conditional=*/false);
  if (!ls.ok()) {
    parent->latch().UnlockX();
    return ls;
  }
  nta->locked.push_back(pid);

  SlottedPage sp(parent->data(), page_size());

  // Snapshot rows, find the contiguous delete range and collect inserts.
  std::vector<std::string> old_rows;
  old_rows.reserve(sp.nslots());
  for (SlotId r = 0; r < sp.nslots(); ++r) {
    old_rows.push_back(sp.Get(r).ToString());
  }

  int d0 = -1;
  int d1 = -1;  // delete range [d0, d1)
  std::vector<std::pair<std::string, PageId>> inserts;
  for (size_t e = 0; e < count; ++e) {
    const PropEntry& pe = entries[e];
    if (pe.kind == PropEntry::Kind::kDelete ||
        pe.kind == PropEntry::Kind::kUpdate) {
      int pos = node::FindChildPos(sp, pe.sender);
      OIR_CHECK(pos >= 0);
      if (d0 < 0) {
        d0 = pos;
        d1 = pos + 1;
      } else {
        OIR_CHECK(pos == d1);  // contiguous (Section 5.4.2)
        d1 = pos + 1;
      }
    }
    if (pe.kind == PropEntry::Kind::kUpdate ||
        pe.kind == PropEntry::Kind::kInsert) {
      inserts.emplace_back(pe.sep, pe.child);
    }
  }
  const uint16_t dcount = d0 < 0 ? 0 : static_cast<uint16_t>(d1 - d0);
  if (d0 < 0) {
    // Pure-insert group (possible above level 1): position by separator.
    d0 = node::FindEntryInsertPos(sp, Slice(inserts.front().first));
    d1 = d0;
  }

  // Flag bits per Section 5.4.2: SHRINK when any delete is performed (or
  // the page splits), SPLIT when insert-only.
  parent->header()->flags |= (dcount > 0) ? kFlagShrink : kFlagSplit;
  nta->bits.push_back(pid);

  // Section 5.5: when the first child of the page is being deleted, move as
  // many inserts as fit into the open left page.
  if (level == 1 && opts.reorganize_level1 && open_left->valid &&
      open_left->page != pid && d0 == 0 && dcount > 0 && !inserts.empty()) {
    PageRef lp;
    OIR_RETURN_IF_ERROR(bm->Fetch(open_left->page, &lp));
    lp.latch().LockX();
    SlottedPage lsp(lp.data(), page_size());
    std::vector<std::string> moved;
    size_t used = lsp.UsedSpace();
    size_t cap = LeafCapacityBytes();
    size_t take = 0;
    while (take < inserts.size()) {
      std::string row = node::MakeNonLeafRow(inserts[take].second,
                                             Slice(inserts[take].first));
      if (used + row.size() + kSlotSize > cap) break;
      used += row.size() + kSlotSize;
      moved.push_back(std::move(row));
      ++take;
    }
    if (take > 0) {
      tree->LogBatchInsert(op, &lp, lsp.nslots(), moved, level);
      inserts.erase(inserts.begin(), inserts.begin() + take);
    }
    lp.latch().UnlockX();
  }

  // Final layout of this page.
  struct FinalRow {
    std::string sep;  // separator value (ignored for the first row)
    PageId child;
  };
  std::vector<FinalRow> final_rows;
  final_rows.reserve(old_rows.size() - dcount + inserts.size());
  for (int r = 0; r < d0; ++r) {
    final_rows.push_back(FinalRow{
        node::SeparatorOf(Slice(old_rows[r])).ToString(),
        node::ChildOf(Slice(old_rows[r]))});
  }
  for (auto& [s, c] : inserts) final_rows.push_back(FinalRow{s, c});
  for (size_t r = d1; r < old_rows.size(); ++r) {
    final_rows.push_back(FinalRow{
        node::SeparatorOf(Slice(old_rows[r])).ToString(),
        node::ChildOf(Slice(old_rows[r]))});
  }

  const bool is_root = tree->root() == pid;
  const std::string group_route = entries[0].route_key;

  if (final_rows.empty()) {
    // Section 5.3.1 + footnote 6: all children gone — the page shrinks;
    // deallocate directly, no deletes performed.
    OIR_CHECK(!is_root);
    parent->latch().UnlockX();
    parent->Release();
    OIR_RETURN_IF_ERROR(space->Deallocate(op.ctx, pid));
    nta->deallocated.push_back(pid);
    PropEntry del;
    del.kind = PropEntry::Kind::kDelete;
    del.sender = pid;
    del.route_key = group_route;
    next_level->push_back(std::move(del));
    return Status::OK();
  }

  // Did the page's key-range start move (first entry deleted)? Then the
  // next level gets an UPDATE [S, pid] where S is the separator value the
  // new first row carried (Section 5.3.3). It is sent first: the next level
  // lays out its inserts in entry order, so if pid splits below, this
  // UPDATE must come before the INSERTs of pid's new right siblings.
  const bool range_start_moved = (dcount > 0 && d0 == 0);
  if (range_start_moved && !is_root) {
    PropEntry upd;
    upd.kind = PropEntry::Kind::kUpdate;
    upd.sender = pid;
    upd.route_key = group_route;
    upd.sep = final_rows.front().sep;
    upd.child = pid;
    next_level->push_back(std::move(upd));
  }

  // Encode the final rows (first row loses its separator).
  std::vector<std::string> encoded;
  encoded.reserve(final_rows.size());
  size_t total_bytes = 0;
  for (size_t r = 0; r < final_rows.size(); ++r) {
    encoded.push_back(node::MakeNonLeafRow(
        final_rows[r].child, r == 0 ? Slice() : Slice(final_rows[r].sep)));
    total_bytes += encoded.back().size() + kSlotSize;
  }

  const size_t cap = LeafCapacityBytes();
  if (total_bytes <= cap) {
    // In-place: one batch delete + one batch insert (Section 4.2's "no
    // more than one batchdelete and one batchinsert" per page). We rewrite
    // the splice region [min(d0,needed)..] only when the first row changes.
    uint16_t del_from = static_cast<uint16_t>(d0);
    uint16_t del_cnt = dcount;
    size_t ins_from = static_cast<size_t>(d0);
    size_t ins_to = static_cast<size_t>(d0) + inserts.size();
    if (range_start_moved || (d0 == 0 && !inserts.empty() && dcount == 0)) {
      // The first physical row changes: extend the splice to position 0.
      del_from = 0;
      del_cnt = static_cast<uint16_t>(dcount);
      ins_from = 0;
    }
    if (d0 == 0 && dcount > 0 && inserts.empty()) {
      // Surviving old row becomes first: rewrite it without separator.
      del_cnt = static_cast<uint16_t>(dcount + 1);
      ins_to = 1;
    }
    if (del_cnt > 0) {
      tree->LogBatchDelete(op, parent, del_from, del_cnt, level);
    }
    if (ins_to > ins_from) {
      std::vector<std::string> ins_rows(encoded.begin() + ins_from,
                                        encoded.begin() + ins_to);
      tree->LogBatchInsert(op, parent, static_cast<SlotId>(ins_from),
                           ins_rows, level);
    }
    parent->latch().UnlockX();
  } else {
    // Overflow: the page splits so that the layout becomes
    // [prefix on pid][chunks on new siblings] (Section 5.3.2). SHRINK bit
    // covers the split case (Section 5.4.2, rule 3).
    parent->header()->flags |= kFlagShrink;
    // Keep the maximal prefix on pid.
    size_t keep = 0;
    size_t used = 0;
    while (keep < encoded.size() &&
           used + encoded[keep].size() + kSlotSize <= cap) {
      used += encoded[keep].size() + kSlotSize;
      ++keep;
    }
    OIR_CHECK(keep >= 1 && keep < encoded.size());

    // Rewrite pid: delete everything from min(d0,0 if first changes)... we
    // simply rewrite the whole row area for clarity of the split case: one
    // batch delete of all old rows, one batch insert of the kept prefix.
    tree->LogBatchDelete(op, parent, 0,
                         static_cast<uint16_t>(old_rows.size()), level);
    std::vector<std::string> keep_rows(encoded.begin(),
                                       encoded.begin() + keep);
    tree->LogBatchInsert(op, parent, 0, keep_rows, level);
    parent->latch().UnlockX();

    // Spill the rest into new sibling pages.
    std::vector<std::pair<std::string, PageId>> sibling_entries;
    size_t r = keep;
    while (r < final_rows.size()) {
      PageId sid;
      OIR_RETURN_IF_ERROR(space->Allocate(op.ctx, &sid));
      OIR_CHECK(locks
                    ->Lock(op.id, AddressLockKey(sid), LockMode::kX,
                           /*conditional=*/false)
                    .ok());
      nta->locked.push_back(sid);
      PageRef sib;
      OIR_RETURN_IF_ERROR(tree->FormatNewPage(op, sid, level, kInvalidPageId,
                                              kInvalidPageId, &sib));
      sib.header()->flags |= kFlagShrink;
      nta->bits.push_back(sid);
      std::vector<std::string> rows;
      size_t sused = 0;
      size_t first_r = r;
      while (r < final_rows.size()) {
        std::string row = node::MakeNonLeafRow(
            final_rows[r].child,
            r == first_r ? Slice() : Slice(final_rows[r].sep));
        if (sused + row.size() + kSlotSize > cap) break;
        sused += row.size() + kSlotSize;
        rows.push_back(std::move(row));
        ++r;
      }
      OIR_CHECK(!rows.empty());
      tree->LogBatchInsert(op, &sib, 0, rows, level);
      sib.latch().UnlockX();
      sibling_entries.emplace_back(final_rows[first_r].sep, sid);
    }

    if (is_root) {
      // The root split during rebuild propagation: grow the tree with a new
      // root over [pid, siblings...].
      OIR_RETURN_IF_ERROR(tree->NewRoot(op, pid, sibling_entries, level));
    } else {
      for (auto& [s, c] : sibling_entries) {
        PropEntry ins;
        ins.kind = PropEntry::Kind::kInsert;
        ins.sender = pid;
        ins.route_key = group_route;
        ins.sep = s;
        ins.child = c;
        next_level->push_back(std::move(ins));
      }
    }
  }

  // Root collapse: if the root is down to a single child, the tree loses a
  // level.
  if (is_root && final_rows.size() == 1 && level >= 1) {
    OIR_RETURN_IF_ERROR(tree->SetRoot(op, final_rows[0].child));
    OIR_RETURN_IF_ERROR(space->Deallocate(op.ctx, pid));
    nta->deallocated.push_back(pid);
  }

  if (level == 1) {
    open_left->valid = true;
    open_left->page = pid;  // groups run left to right; pid is now the
                            // rightmost settled page at this level
  }
  return Status::OK();
}

}  // namespace oir
