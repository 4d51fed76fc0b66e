#ifndef OIR_BTREE_CURSOR_H_
#define OIR_BTREE_CURSOR_H_

// Range-scan cursor (Section 2.5). The scan qualifies rows under an S
// latch, releases the latch before returning a row to the caller, and
// re-latches to resume — so it never blocks writers while the application
// consumes rows. On resume, if the page changed (pageLSN differs), was
// shrunk, rebuilt away or freed, the cursor repositions itself by key.
//
// Version-validated steps. When the cursor lands on a leaf it copies the
// whole page (under the same S latch) into a page-sized buffer it owns, and
// records the leaf's latch and that latch's version word (sync/latch.h).
// The current row is a slice of that copy. Next first checks the version:
// if it has not moved, the leaf still holds exactly the copied bytes, so
// the copy's next slot is the successor and the step touches no pool
// shard, no space map and no latch. Past the copy's last slot it latches
// the right neighbour only, and re-checks the leaf's version in place of
// holding the leaf's latch across the hand-over. Otherwise (the version
// moved, or the neighbour does not qualify) Next runs the latched step
// described above. Either way every Next returns the successor of the
// current row in the index as of that call: the semantics are those of
// re-latching on every row.
//
// Isolation: read committed. The cursor takes no logical locks itself;
// callers wanting stronger isolation lock the returned ROWIDs through the
// transaction manager (as the paper's scan does "depending on the
// isolation level").

#include <memory>
#include <string>

#include "btree/btree.h"

namespace oir {

class Cursor {
 public:
  // `op.ctx` may be null: scans write no log records; op.id is used for
  // instant-duration lock waits on SHRINK-marked pages.
  Cursor(BTree* tree, OpCtx op)
      : tree_(tree), op_(op), leaf_(new char[tree->bm_->page_size()]) {}

  // Positions at the first row with user key >= `user_key` (rid 0).
  Status Seek(const Slice& user_key);
  // Positions at the first row of the index.
  Status SeekToFirst();

  bool Valid() const { return valid_; }

  // Accessors for the current row (valid until the next cursor call).
  Slice index_key() const { return current_; }
  Slice user_key() const { return UserKeyOf(current_); }
  RowId rid() const { return RowIdOf(current_); }

  // Advances to the next row in key order.
  Status Next();

  // Number of distinct leaf pages this cursor has latched since creation
  // (a proxy for the disk reads of a range scan; Section 6.1).
  uint64_t pages_visited() const { return pages_visited_; }

 private:
  // Positions at the first row with composite key >= `composite`
  // (`exclusive` = strictly greater).
  Status SeekComposite(const Slice& composite, bool exclusive);

  // Copies the S-latched leaf into leaf_, records its latch version, and
  // makes row `pos` of the copy the current row.
  void Capture(PageRef& page, SlotId pos);
  // Captures row 0 of the S-latched right neighbour `next` when a step may
  // land there (a leaf, not SHRINK-marked, not empty); false otherwise.
  bool CaptureFirstRow(PageRef& next);

  BTree* const tree_;
  OpCtx op_;
  bool valid_ = false;
  // The cursor's copy of its current leaf (page-sized, allocated once),
  // and the latch and version of the frame it was copied from. Frames live
  // as long as the pool, so latch_ stays readable after the page is gone.
  std::unique_ptr<char[]> leaf_;
  const Latch* latch_ = nullptr;
  uint64_t version_ = 0;
  Slice current_;  // a row of leaf_
  PageId page_ = kInvalidPageId;
  Lsn page_lsn_ = kInvalidLsn;
  SlotId pos_ = 0;
  PageId last_counted_page_ = kInvalidPageId;
  uint64_t pages_visited_ = 0;
};

}  // namespace oir

#endif  // OIR_BTREE_CURSOR_H_
