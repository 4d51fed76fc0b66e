#ifndef OIR_CORE_REBUILD_H_
#define OIR_CORE_REBUILD_H_

// Online index rebuild — the paper's contribution (Sections 3-5).
//
// The rebuild runs as a sequence of transactions; each transaction performs
// a series of multipage rebuild top actions; each top action rebuilds up to
// `ntasize` contiguous leaf pages:
//
//   copy phase (Section 4.1)
//     - X address locks + SHRINK bits on PP, P1..Pn (left to right;
//       conditional requests on P2..Pn truncate the batch instead of
//       waiting; a busy PP/P1 releases everything and waits);
//     - keys are copied to PP (up to fillfactor) and freshly chunk-
//       allocated pages N1..Nk, logged as ONE keycopy record holding only
//       page numbers, timestamps and positions — no key bytes;
//     - chain linkage is fixed (changeprevlink on NP) and P1..Pn are
//       deallocated.
//
//   propagation phase (Section 5)
//     - propagation entries (DELETE / UPDATE / INSERT) are computed per
//       rebuilt page (Section 5.2) and applied level by level, bottom-up,
//       left to right (Section 5.4);
//     - level-1 pages are reorganized on the way by moving inserts into
//       the left sibling when the first child of the target page is being
//       deleted (Section 5.5) — no separate pass;
//     - non-leaf modifications are covered by X locks with SHRINK bits
//       (deletes performed) or SPLIT bits (insert-only), per Section 5.4.2.
//
// At the end of each transaction the new pages are forced to disk with
// large I/Os and only then are the old pages freed for reallocation — this
// ordering is what makes the position-only keycopy logging recoverable
// (Section 3).

#include <memory>
#include <optional>

#include "btree/btree.h"
#include "core/options.h"
#include "core/rebuild_journal.h"
#include "obs/progress.h"
#include "sync/mutex.h"
#include "txn/transaction_manager.h"

namespace oir {

class OnlineRebuilder {
 public:
  // `journal` (optional) receives every durable progress record the rebuild
  // appends, so a checkpoint taken mid-rebuild can embed the latest one.
  OnlineRebuilder(BTree* tree, TransactionManager* tm, BufferManager* bm,
                  LogManager* log, LockManager* locks, SpaceManager* space,
                  RebuildJournal* journal = nullptr);

  // Runs a full online rebuild of the index. Concurrent inserts, deletes
  // and scans are allowed throughout; only the pages of the current top
  // action are restricted. Every rebuild transaction logs one
  // kRebuildProgress record, plus one at start, so restart recovery can
  // re-arm a crashed rebuild from the last durable one.
  //
  // `resume` (null for a fresh run) is a crashed run's last durable
  // progress record, as recovery found it (Db::ResumeRebuild): the copy
  // starts after its cursor instead of at the leftmost leaf (from the
  // beginning when it has none), and its counters carry into the progress
  // tracker.
  Status Run(const RebuildOptions& options, RebuildResult* result,
             const RebuildProgressInfo* resume = nullptr);

  // Progress snapshot, pollable from any thread while Run executes (and
  // after: `done` stays set). leaves_total is an allocated-page upper-bound
  // estimate taken at the start of the run.
  obs::RebuildProgress progress() const { return progress_.Load(); }

  // Result of the last Run that got past option validation, successful or
  // not; false before the first one. Callable from any thread.
  bool last_result(RebuildResult* out) const;

 private:
  struct Impl;

  obs::RebuildProgressTracker progress_;
  mutable Mutex last_mu_;
  std::optional<RebuildResult> last_ OIR_GUARDED_BY(last_mu_);
  BTree* const tree_;
  TransactionManager* const tm_;
  BufferManager* const bm_;
  LogManager* const log_;
  LockManager* const locks_;
  SpaceManager* const space_;
  RebuildJournal* const journal_;
};

}  // namespace oir

#endif  // OIR_CORE_REBUILD_H_
