#ifndef OIR_BTREE_BTREE_H_
#define OIR_BTREE_BTREE_H_

// Concurrent B+-tree index manager implementing the protocols of Section 2:
//
//  * doubly linked leaf pages, unlinked non-leaf pages, n-1 separators for
//    n children, suffix-compressed separators;
//  * latch-crabbing traversal with retraversal from the lowest safe page of
//    the remembered path (Section 2.6.1);
//  * leaf split and shrink as nested top actions protected by X address
//    locks and SPLIT/SHRINK bits (Sections 2.2-2.4); blocked operations
//    wait via unconditional instant-duration S locks;
//  * side entries (OLDPGOFSPLIT) on splitting non-leaf pages so concurrent
//    traversals can route around in-flight splits (Section 2.3);
//  * logical undo of leaf inserts/deletes for rollback (ARIES/IM style).
//
// The online rebuild (src/core/rebuild.*) drives the same NTA machinery via
// the RebuildAccess friend interface.

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "btree/key.h"
#include "btree/node.h"
#include "recovery/log_apply.h"
#include "space/space_manager.h"
#include "storage/buffer_manager.h"
#include "sync/lock_manager.h"
#include "sync/mutex.h"
#include "util/status.h"
#include "wal/log_manager.h"

namespace oir {

class Cursor;
class OnlineRebuilder;

// Identity of the operation performing tree work: lock-manager owner id
// plus the logging chain.
struct OpCtx {
  TxnId id = kInvalidTxnId;
  TxnContext* ctx = nullptr;
};

struct TreeStats {
  uint32_t height = 0;           // number of levels (1 = single leaf)
  uint64_t num_leaf_pages = 0;
  uint64_t num_nonleaf_pages = 0;
  uint64_t num_keys = 0;
  uint64_t leaf_bytes_used = 0;
  uint64_t leaf_bytes_capacity = 0;
  uint64_t nonleaf_rows = 0;
  uint64_t nonleaf_row_bytes = 0;
  uint64_t leaf_seq_runs = 0;    // maximal runs of physically consecutive
                                 // leaves in key order (1 = perfectly
                                 // clustered)

  double LeafUtilization() const {
    return leaf_bytes_capacity == 0
               ? 0.0
               : static_cast<double>(leaf_bytes_used) / leaf_bytes_capacity;
  }
  double AvgNonLeafRowBytes() const {
    return nonleaf_rows == 0
               ? 0.0
               : static_cast<double>(nonleaf_row_bytes) / nonleaf_rows;
  }
};

class BTree : public LogicalUndoHook {
 public:
  BTree(BufferManager* bm, LogManager* log, LockManager* locks,
        SpaceManager* space);

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  // Formats the metadata page and an empty root leaf. Run once, inside the
  // bootstrap transaction.
  Status CreateNew(TxnContext* ctx);

  // Loads the root pointer from the metadata page (after restart redo).
  Status Open();

  // Crash simulation: drops transient state (side entries; the root is
  // reloaded by Open()). Side entries never need to survive a crash — the
  // top actions backing them are either complete or undone by recovery.
  void ResetTransient();

  PageId root() const { return root_.load(std::memory_order_acquire); }

  // ---- data operations ----
  // Logical row locks are the caller's concern (Section 2: split, shrink
  // and rebuild never take logical locks; insert/delete/scan take them per
  // isolation level — handled in the Index facade).

  Status Insert(OpCtx op, const Slice& user_key, RowId rid);
  Status Delete(OpCtx op, const Slice& user_key, RowId rid);
  Status Lookup(OpCtx op, const Slice& user_key, RowId rid, bool* found);

  // ---- LogicalUndoHook ----
  Status UndoLeafInsert(TxnContext* ctx, const LogRecord& rec) override;
  Status UndoLeafDelete(TxnContext* ctx, const LogRecord& rec) override;

  // ---- inspection (quiescent: caller ensures no concurrent writers) ----

  // Verifies structural invariants: key order within/across leaves,
  // separator bounds, leaf-chain integrity, reachability. Also fills stats.
  Status Validate(TreeStats* stats) const;

  // Test hook: leftmost leaf page id.
  Status FirstLeaf(PageId* out) const;

  // Human-readable tree dump (quiescent). include_rows prints every leaf
  // row; otherwise leaves are summarized.
  Status Dump(std::string* out, bool include_rows) const;

  // =====================================================================
  // Internal interface — used by the cursor, the online rebuilder and the
  // offline-rebuild baseline. Not meant for applications.
  // =====================================================================

  struct PathEntry {
    PageId page = kInvalidPageId;
    uint16_t level = 0;
    Lsn lsn = kInvalidLsn;
  };
  using Path = std::vector<PathEntry>;

  // Scope of one nested top action: what must be undone/cleaned when it
  // aborts, and what must be cleared/released when it completes.
  struct NtaScope {
    Lsn saved_lsn = kInvalidLsn;
    std::vector<PageId> locked;        // X address locks to release
    std::vector<PageId> bits;          // pages whose flag bits we set
    std::vector<PageId> side_entries;  // pages with a registered side entry
    std::vector<PageId> deallocated;   // pages to free once the action ends
                                       // (shrink frees at top-action commit,
                                       // Section 4.1.3)
  };

  // ---- traversal (Section 2.6) ----
  // On success, *out is pinned and latched: X if writer && level reached is
  // target, else S. `path` accumulates the ancestors visited (for
  // retraversal); it may carry entries from a previous traversal, which are
  // used as safe starting points.
  Status Traverse(OpCtx op, const Slice& key, bool writer,
                  uint16_t target_level, PageRef* out, Path* path);

  // ---- NTA machinery ----
  void BeginNta(OpCtx op, NtaScope* nta);
  // Completes the top action: NtaEnd dummy CLR, clear bits, drop side
  // entries, release address locks. `undo_next_override` replaces the
  // saved LSN in the dummy CLR (used by logical-undo compensation NTAs).
  Status EndNta(OpCtx op, NtaScope* nta, Lsn undo_next_override = kInvalidLsn);
  // Rolls the top action back (failure path) and releases its resources.
  Status AbortNta(OpCtx op, NtaScope* nta);
  void ReleaseNtaResources(OpCtx op, NtaScope* nta);

  // ---- side entries ----
  void SetSideEntry(PageId page, std::string sep, PageId right);
  void EraseSideEntry(PageId page);
  bool GetSideEntry(PageId page, std::string* sep, PageId* right) const;

  // ---- page + logging helpers (page must be X latched by caller) ----
  Lsn LogInsert(OpCtx op, PageRef* page, SlotId pos, const Slice& row,
                uint16_t level);
  Lsn LogDelete(OpCtx op, PageRef* page, SlotId pos, uint16_t level);
  // `rows` may point anywhere but into *page (page images, the arena of a
  // caller); LogBatchDelete logs the deleted rows straight from the page.
  Lsn LogBatchInsert(OpCtx op, PageRef* page, SlotId pos,
                     std::span<const Slice> rows, uint16_t level);
  Lsn LogBatchDelete(OpCtx op, PageRef* page, SlotId pos, uint16_t count,
                     uint16_t level);
  // Sets the link of `type` (kSetNextLink or kSetPrevLink) to `to`.
  Lsn LogSetLink(OpCtx op, PageRef* page, LogType type, PageId to);

  // Allocated-page formatting: Create + X latch + kFormatPage. On return
  // *out is pinned and X latched.
  Status FormatNewPage(OpCtx op, PageId id, uint16_t level, PageId prev,
                       PageId next, PageRef* out);

  // Root pointer update (kMetaRoot) under meta_mu_.
  Status SetRoot(OpCtx op, PageId new_root);

  // Grows the tree: allocates a root at child_level + 1 holding
  // [first][sep_1, child_1]...[sep_n, child_n] (`rest` in key order) and
  // makes it the root.
  Status NewRoot(OpCtx op, PageId first,
                 const std::vector<std::pair<Slice, PageId>>& rest,
                 uint16_t child_level);

 private:
  friend class Cursor;

  // Stamp `rec` with the page, append it, apply it and set the pageLSN.
  Lsn LogRows(OpCtx op, PageRef* page, LogRecord* rec);

  // ---- internal operations on composite keys ----
  Status InsertComposite(OpCtx op, const Slice& composite);
  Status DeleteComposite(OpCtx op, const Slice& composite);

  // Split of a full leaf (consumes `leaf`, which must be X latched). The
  // row that triggered the split is NOT inserted here: structure
  // modification is a nested top action that survives transaction
  // rollback, while the row insert must remain undoable, so the caller
  // retries the insert after the split completes (ARIES/IM style). Busy
  // means another top action held the leaf's address lock: the split
  // waited for it to end without holding the latch, and the caller
  // retraverses.
  Status LeafSplit(OpCtx op, PageRef leaf, Path* path);

  // Inserts [sep -> child_new] at `level`, splitting upward as needed.
  // `split_old` is the page that was split one level below (to detect the
  // root split case).
  Status PropagateInsert(OpCtx op, NtaScope* nta, uint16_t level,
                         std::string sep, PageId child_new, PageId split_old,
                         Path* path);

  // Removes the last row of `leaf` and unlinks/deallocates it (consumes
  // `leaf`, X latched, nslots == 1).
  Status ShrinkLeaf(OpCtx op, PageRef leaf, const Slice& composite,
                    Path* path);

  // Removes the parent entry of `child_dead` at `level`, shrinking upward
  // as needed. `key_hint` routes the traversal.
  Status PropagateDelete(OpCtx op, NtaScope* nta, uint16_t level,
                         const Slice& key_hint, PageId child_dead, Path* path);

  // Move-right at the leaf level for the boundary race with a completed
  // concurrent split: if `composite` sorts after every row of *leaf and the
  // next leaf's first row is <= composite, hop right. Maintains latch mode.
  Status MoveRightLeaf(OpCtx op, PageRef* leaf, const Slice& composite,
                       bool writer);

  // Validation recursion.
  Status ValidateSubtree(PageId page, uint16_t expected_level,
                         const std::string& low, const std::string& high,
                         bool has_high, TreeStats* stats,
                         std::vector<PageId>* leaves_in_order) const;

  BufferManager* const bm_;
  LogManager* const log_;
  LockManager* const locks_;
  SpaceManager* const space_;

  std::atomic<PageId> root_{kInvalidPageId};
  // Serializes root changes (the root_ atomic itself is lock-free for
  // readers; meta_mu_ orders the meta-page update with the WAL append).
  Mutex meta_mu_;

  mutable Mutex side_mu_;
  std::unordered_map<PageId, std::pair<std::string, PageId>> side_entries_
      OIR_GUARDED_BY(side_mu_);
};

}  // namespace oir

#endif  // OIR_BTREE_BTREE_H_
