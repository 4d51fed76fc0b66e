#include "core/rebuild.h"

#include <algorithm>
#include <cstring>

#include "core/rebuild_impl.h"
#include "core/rebuild_throttle.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "obs/waitstate.h"
#include "testing/crash_point.h"
#include "util/clock.h"
#include "util/counters.h"
#include "util/logging.h"

namespace oir {

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
  Impl impl(this, options, result);

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
  OIR_RETURN_IF_ERROR(LogProgress(/*done_flag=*/false, /*in_txn=*/false));

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
                                        const Slice& skey,
                                        std::vector<PageId>* batch,
                                        PageId* pp_id, PageId* np_id,
                                        bool* done) {
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
      auto unlock_pp = [&] {
        if (prev_guess != kInvalidPageId) {
          locks->Unlock(op.id, AddressLockKey(prev_guess));
        }
      };

      // Acquire PP then P1, left to right, conditionally; on conflict
      // release everything, wait, retry (Section 6.5).
      PageId busy = kInvalidPageId;
      Status ls;
      if (prev_guess != kInvalidPageId) {
        ls = locks->Lock(op.id, AddressLockKey(prev_guess), LockMode::kX,
                         /*conditional=*/true);
        if (ls.IsBusy()) busy = prev_guess;
      }
      if (ls.ok()) {
        ls = locks->Lock(op.id, AddressLockKey(p1_id), LockMode::kX,
                         /*conditional=*/true);
        if (!ls.ok()) unlock_pp();
        if (ls.IsBusy()) busy = p1_id;
      }
      if (busy != kInvalidPageId) {
        OIR_RETURN_IF_ERROR(locks->LockInstant(op.id, AddressLockKey(busy),
                                               LockMode::kS,
                                               /*conditional=*/false));
        goto retry;
      }
      OIR_RETURN_IF_ERROR(ls);

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
        unlock_pp();
        goto retry;
      }

      // Locks are stable: record them and set the bits left to right
      // (Section 4.1.1). PP gets SHRINK (it receives rows); the pages being
      // rebuilt get SPLIT so readers pass during the copy (Section 6.2),
      // flipped to SHRINK right before the old pages are unlinked.
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
      // is where a cold rebuild first touches each old page, so it pulls
      // them in io_pages at a time (a jump in the chain starts a new
      // window). Speculative: a failure falls back to the per-page Fetch.
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

  std::string start_key = resume_key;  // the first key to copy
  if (has_resume) start_key.push_back('\0');

  OIR_CRASH_POINT("rebuild.topaction.begin");
  BTree::NtaScope nta;
  tree->BeginNta(op, &nta);

  PageId pp_id = kInvalidPageId;
  PageId np_id = kInvalidPageId;
  Status s =
      LockBatch(op, &nta, Slice(start_key), &plan.batch, &pp_id, &np_id, done);
  if (!s.ok() || *done) {
    tree->ReleaseNtaResources(op, &nta);
    end_copy(0);
    return s;
  }
  OIR_CRASH_POINT("rebuild.lockbatch.locked");

  const bool batch_is_root_leaf =
      plan.batch.size() == 1 && plan.batch[0] == tree->root();

  arena.Reset();
  s = PlanCopy(pp_id, &plan);
  if (s.ok()) s = ApplyCopy(op, &nta, pp_id, np_id, &plan);
  if (s.ok()) s = Relink(op, pp_id, np_id, plan, &prop);
  end_copy(plan.batch.size());
  const bool prop_began = s.ok();
  const uint64_t prop0 = NowNanos();
  if (prop_began) OIR_TRACE(obs::TraceEventType::kPropagatePhaseBegin, ta, 0);
  if (s.ok() && batch_is_root_leaf) {
    // Height-1 tree: there is no level 1 to propagate into. The new pages
    // either become the root directly (one page) or get a fresh level-1
    // root above them.
    siblings.clear();
    for (const PropEntry& e : prop) {
      if (e.kind != PropEntry::Kind::kDelete) {
        siblings.emplace_back(e.sep, e.child);
      }
    }
    OIR_CHECK(!siblings.empty());
    const PageId first = siblings[0].second;
    siblings.erase(siblings.begin());
    s = siblings.empty() ? tree->SetRoot(op, first)
                         : tree->NewRoot(op, first, siblings, kLeafLevel);
  } else if (s.ok()) {
    s = Propagate(op, &nta, plan.pp_route_key, &prop, path);
  }
  if (prop_began) {
    progress->propagate_us.fetch_add((NowNanos() - prop0) / 1000,
                                     std::memory_order_relaxed);
    OIR_TRACE(obs::TraceEventType::kPropagatePhaseEnd, ta, 0);
  }
  if (!s.ok()) {
    (void)tree->AbortNta(op, &nta);  // already returning the first error
    return s;
  }
  OIR_CRASH_POINT("rebuild.topaction.end");
  OIR_RETURN_IF_ERROR(tree->EndNta(op, &nta));
  old_pages_txn.insert(old_pages_txn.end(), plan.batch.begin(),
                       plan.batch.end());
  ++result->top_actions;
  result->old_leaf_pages += plan.batch.size();
  return Status::OK();
}

// Copy step 1, plan: snapshot the batch's pages and assign every row to PP
// (up to the fill target) or to a new page, as runs of source rows.
Status OnlineRebuilder::Impl::PlanCopy(PageId pp_id, CopyPlan* plan) {
  // Each source page is copied whole into its slot of `images` under a
  // brief S latch. The pages are X-locked and SPLIT-marked, so writers stay
  // out and the image is stable.
  std::vector<Source>& sources = plan->sources;
  std::vector<CopyRun>& runs = plan->runs;
  std::vector<NewPage>& new_pages = plan->new_pages;
  sources.clear();
  runs.clear();
  new_pages.clear();
  plan->pp_route_key = plan->pp_last_key = Slice();
  plan->rows = 0;
  images.resize(plan->batch.size() * page_size());
  for (PageId p : plan->batch) {
    PageRef ref;
    OIR_RETURN_IF_ERROR(bm->Fetch(p, &ref));
    char* image = images.data() + sources.size() * page_size();
    ref.latch().LockS();
    std::memcpy(image, ref.data(), page_size());
    ref.latch().UnlockS();
    sources.push_back(Source{p, SlottedPage(image, page_size())});
  }
  OIR_CRASH_POINT("rebuild.copy.sources_read");

  // PP's room under the fill target, its slot count, and its first and
  // last keys (the first new page's separator compresses against the
  // last). PP is live, so its keys are copied to the arena.
  const uint32_t fill_target = FillTargetBytes();
  uint32_t pp_room = 0;
  SlotId pp_rows = 0;
  if (pp_id != kInvalidPageId) {
    PageRef ref;
    OIR_RETURN_IF_ERROR(bm->Fetch(pp_id, &ref));
    ref.latch().LockS();
    SlottedPage sp(ref.data(), page_size());
    if (sp.UsedSpace() < fill_target) {
      pp_room = std::min(fill_target - sp.UsedSpace(), sp.FreeSpace());
    }
    pp_rows = sp.nslots();
    if (pp_rows > 0) {
      plan->pp_last_key = arena.Copy(sp.Get(static_cast<SlotId>(pp_rows - 1)));
      plan->pp_route_key = arena.Copy(sp.Get(0));
    }
    ref.latch().UnlockS();
  }

  uint32_t page_used = 0;
  for (uint32_t si = 0; si < sources.size(); ++si) {
    const SlottedPage& rows = sources[si].rows;
    for (SlotId ri = 0; ri < rows.nslots(); ++ri) {
      const Slice row = rows.Get(ri);
      const uint32_t need = static_cast<uint32_t>(row.size()) + kSlotSize;
      int target = -1;
      SlotId slot;
      if (new_pages.empty() && need <= pp_room) {
        pp_room -= need;
        // PP's last key advances as it absorbs rows; the separator of the
        // first new page must compress against the *post-copy* last key.
        plan->pp_last_key = row;
        slot = pp_rows++;
      } else {
        if (new_pages.empty() || page_used + need > fill_target) {
          new_pages.push_back(NewPage{si, row, row, 0});
          page_used = 0;
        }
        target = static_cast<int>(new_pages.size() - 1);
        page_used += need;
        new_pages.back().last_key = row;
        slot = new_pages.back().rows++;
      }
      if (!runs.empty() && runs.back().src == si &&
          runs.back().target == target) {
        runs.back().last = ri;
      } else {
        runs.push_back(CopyRun{si, target, ri, ri, slot});
      }
      plan->last_row = row;
      ++plan->rows;
    }
  }
  return Status::OK();
}

// Copy step 2, apply: allocate and format the new pages, then log and apply
// the copy as ONE keycopy record of positions only (Section 4.1.2) — or, in
// the log_full_keys ablation, as batch inserts carrying the key bytes.
Status OnlineRebuilder::Impl::ApplyCopy(OpCtx op, BTree::NtaScope* nta,
                                        PageId pp_id, PageId np_id,
                                        CopyPlan* plan) {
  // Allocate the new pages from a contiguous chunk (Section 6.1) and format
  // them, linked PP -> N1 -> ... -> Nk -> NP. SPLIT bits + X locks keep
  // writers out while readers may pass once linked (Section 6.2).
  const std::vector<Source>& sources = plan->sources;
  const std::vector<CopyRun>& runs = plan->runs;
  std::vector<PageId>& new_ids = plan->new_ids;
  const uint32_t k = static_cast<uint32_t>(plan->new_pages.size());
  new_ids.clear();
  if (k > 0) {
    OIR_RETURN_IF_ERROR(space->AllocateChunk(op.ctx, k, &new_ids));
    new_page_hwm = std::max(new_page_hwm, new_ids.back());
  }
  OIR_CRASH_POINT("rebuild.copy.alloc");
  for (uint32_t j = 0; j < k; ++j) {
    PageRef ref;
    OIR_RETURN_IF_ERROR(FormatLocked(
        op, nta, new_ids[j], kLeafLevel, j == 0 ? pp_id : new_ids[j - 1],
        j + 1 < k ? new_ids[j + 1] : np_id, kFlagSplit, &ref));
    ref.latch().UnlockX();
  }

  auto target_page = [&](int t) { return t < 0 ? pp_id : new_ids[t]; };
  if (!opts.log_full_keys && !runs.empty()) {
    LogRecord rec;
    rec.type = LogType::kKeyCopy;
    rec.copies.reserve(runs.size());
    for (const CopyRun& r : runs) {
      const Source& src = sources[r.src];
      rec.copies.push_back(KeyCopyEntry{src.page, target_page(r.target),
                                        r.first, r.last, r.tgt_first,
                                        src.rows.header()->page_lsn});
    }
    Lsn lsn = log->Append(&rec, op.ctx);
    OIR_CRASH_POINT("rebuild.copy.keycopy_logged");
    // Apply each run to its target under the target's X latch, with the
    // row mover keycopy redo uses.
    for (const CopyRun& r : runs) {
      PageRef ref;
      OIR_RETURN_IF_ERROR(bm->Fetch(target_page(r.target), &ref));
      ref.latch().LockX();
      SlottedPage sp(ref.data(), page_size());
      OIR_CHECK(sp.InsertRowsFrom(r.tgt_first, sources[r.src].rows, r.first,
                                  r.last));
      sp.header()->page_lsn = lsn;
      ref.latch().UnlockX();
      ref.MarkDirty();
    }
  } else if (opts.log_full_keys) {
    // Ablation: one batch insert per target page, in page order.
    for (size_t i = 0; i < runs.size();) {
      const int t = runs[i].target;
      const SlotId base = runs[i].tgt_first;
      row_scratch.clear();
      for (; i < runs.size() && runs[i].target == t; ++i) {
        for (SlotId ri = runs[i].first; ri <= runs[i].last; ++ri) {
          row_scratch.push_back(sources[runs[i].src].rows.Get(ri));
        }
      }
      PageRef ref;
      OIR_RETURN_IF_ERROR(bm->Fetch(target_page(t), &ref));
      ref.latch().LockX();
      tree->LogBatchInsert(op, &ref, base, row_scratch, kLeafLevel);
      ref.latch().UnlockX();
    }
  }
  OIR_CRASH_POINT("rebuild.copy.applied");
  return Status::OK();
}

// Copy step 3, relink: retire the old pages from the chain and pass the
// leaf propagation entries (Section 5.2).
Status OnlineRebuilder::Impl::Relink(OpCtx op, PageId pp_id, PageId np_id,
                                     const CopyPlan& plan,
                                     std::vector<PropEntry>* entries) {
  // Flip the batch pages' SPLIT bits to SHRINK bits (under an X latch,
  // Section 6.2) so readers drain before the pages are unlinked and
  // deallocated.
  for (PageId p : plan.batch) {
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
  const std::vector<PageId>& new_ids = plan.new_ids;
  const size_t k = new_ids.size();
  if (pp_id != kInvalidPageId) {
    PageRef ref;
    OIR_RETURN_IF_ERROR(bm->Fetch(pp_id, &ref));
    ref.latch().LockX();
    tree->LogSetLink(op, &ref, LogType::kSetNextLink,
                     k > 0 ? new_ids[0] : np_id);
    ref.latch().UnlockX();
  }
  if (np_id != kInvalidPageId) {
    PageRef ref;
    OIR_RETURN_IF_ERROR(bm->Fetch(np_id, &ref));
    ref.latch().LockX();
    tree->LogSetLink(op, &ref, LogType::kSetPrevLink,
                     k > 0 ? new_ids[k - 1] : pp_id);
    ref.latch().UnlockX();
  }
  OIR_CRASH_POINT("rebuild.copy.prevlink");

  // Deallocate the old pages (freed at transaction commit; Section 4.1.3).
  OIR_RETURN_IF_ERROR(space->DeallocateBatch(op.ctx, plan.batch));
  OIR_CRASH_POINT("rebuild.copy.dealloc");

  // A source that opened new pages passes UPDATE for its first and INSERT
  // for the rest; any other passes DELETE. Separators are suffix-compressed
  // against the previous target's last key.
  const std::vector<Source>& sources = plan.sources;
  const std::vector<NewPage>& new_pages = plan.new_pages;
  entries->clear();
  size_t j = 0;
  for (uint32_t si = 0; si < sources.size(); ++si) {
    const Source& src = sources[si];
    const SlottedPage& rows =
        src.rows.nslots() == 0 && si > 0 ? sources[si - 1].rows : src.rows;
    const Slice route = rows.nslots() > 0 ? rows.Get(0) : Slice();
    const size_t j0 = j;
    for (; j < k && new_pages[j].opener == si; ++j) {
      const Slice left = j == 0 ? plan.pp_last_key : new_pages[j - 1].last_key;
      const Slice first = new_pages[j].first_key;
      entries->push_back(PropEntry{
          j == j0 ? PropEntry::Kind::kUpdate : PropEntry::Kind::kInsert,
          src.page, route, left.empty() ? first : MakeSeparator(left, first),
          new_ids[j]});
    }
    if (j == j0) {
      entries->push_back(PropEntry{PropEntry::Kind::kDelete, src.page, route,
                                   Slice(), kInvalidPageId});
    }
  }

  // Advance the rebuild position to the last row copied.
  if (plan.rows > 0) {
    resume_key.assign(plan.last_row.data(), plan.last_row.size());
    has_resume = true;
  }
  result->keys_moved += plan.rows;
  result->new_leaf_pages += k;
  flush_pages_txn.insert(flush_pages_txn.end(), new_ids.begin(),
                         new_ids.end());
  // PP, if it received rows, is a keycopy target too: it joins the forced
  // write even though an earlier transaction created it.
  if (!plan.runs.empty() && plan.runs.front().target < 0) {
    flush_pages_txn.push_back(pp_id);
  }
  return Status::OK();
}

}  // namespace oir
