#ifndef OIR_CORE_REBUILD_IMPL_H_
#define OIR_CORE_REBUILD_IMPL_H_

// State and steps of one online rebuild run, shared by rebuild.cc
// (transactions, top actions and the copy phase, Sections 3-4) and
// rebuild_propagate.cc (the propagation phase, Section 5). Private to them.

#include <algorithm>
#include <deque>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/rebuild.h"

namespace oir {

struct OnlineRebuilder::Impl {
  // One propagation entry (Section 5.1). `sender` is the page that passed the
  // entry; UPDATE/INSERT entries carry the index entry [sep -> child] to put
  // at the next level; route_key is a key from the sender's range used to
  // traverse to its parent. Both keys are slices of the top action's source
  // images or of its arena.
  struct PropEntry {
    enum class Kind { kDelete, kUpdate, kInsert };
    Kind kind = Kind::kDelete;
    PageId sender = kInvalidPageId;
    Slice route_key;
    Slice sep;
    PageId child = kInvalidPageId;
  };

  // Byte strings a top action keeps after the latch that guarded them is
  // gone: PP's keys, parent page images, new non-leaf rows. Later top actions
  // reuse the strings (and their capacity); a deque never moves its elements,
  // so slices into them stay valid until Reset.
  class Arena {
   public:
    std::string* Next() {
      if (used_ == strings_.size()) strings_.emplace_back();
      return &strings_[used_++];
    }
    Slice Copy(const Slice& bytes) {
      std::string* s = Next();
      s->assign(bytes.data(), bytes.size());
      return Slice(*s);
    }
    void Reset() { used_ = 0; }

   private:
    std::deque<std::string> strings_;
    size_t used_ = 0;
  };

  Impl(OnlineRebuilder* r, const RebuildOptions& o, RebuildResult* res)
      : tree(r->tree_), tm(r->tm_), bm(r->bm_), log(r->log_),
        locks(r->locks_), space(r->space_), journal(r->journal_), opts(o),
        result(res), progress(&r->progress_) {}

  BTree* tree;
  TransactionManager* tm;
  BufferManager* bm;
  LogManager* log;
  LockManager* locks;
  SpaceManager* space;
  RebuildJournal* journal;
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
  // Per-transaction page sets. flush_pages_txn holds every keycopy target
  // (the new pages and each PP that received rows): all must reach disk
  // before the old pages are freed (Section 3), since keycopy redo
  // reconstructs targets from the source pages.
  std::vector<PageId> flush_pages_txn;
  std::vector<PageId> old_pages_txn;

  // One top action's copy plan, passed from step to step: LockBatch fills
  // `batch`, PlanCopy the rows' places, ApplyCopy `new_ids`. Rows move as
  // slices of the source images (`images`, a page-sized slot per batch
  // page) and of the arena, never as strings of their own.
  struct Source {
    PageId page;
    SlottedPage rows;  // view of the page image, pageLSN included
  };
  // A maximal run [first, last] of one source's rows bound for one target
  // (-1 = PP, j = new page j), from slot tgt_first on: one keycopy entry.
  struct CopyRun {
    uint32_t src;
    int target;
    SlotId first, last, tgt_first;
  };
  struct NewPage {
    uint32_t opener;  // source whose rows opened the page
    Slice first_key, last_key;
    SlotId rows;
  };
  struct CopyPlan {
    std::vector<PageId> batch;
    std::vector<Source> sources;
    std::vector<CopyRun> runs;
    std::vector<NewPage> new_pages;
    std::vector<PageId> new_ids;
    Slice pp_route_key;  // PP's first key, to find its parent
    Slice pp_last_key;   // last key before the first new page
    Slice last_row;      // last row copied
    uint64_t rows = 0;   // rows copied
  };
  // Buffers that keep their capacity from one top action to the next.
  CopyPlan plan;
  std::vector<char> images;
  Arena arena;
  std::vector<PropEntry> prop;       // entries for the current level
  std::vector<PropEntry> prop_next;  // entries they produce one level up
  std::vector<Slice> new_rows;       // a group's new parent rows
  std::vector<Slice> layout;         // a parent's final rows
  std::vector<std::pair<Slice, PageId>> siblings;
  std::vector<Slice> row_scratch;

  uint32_t page_size() const { return bm->page_size(); }
  uint32_t LeafCapacityBytes() const {
    return page_size() - kPageHeaderSize;
  }
  // Always room for at least one maximal row, so packing makes progress.
  uint32_t FillTargetBytes() const {
    return std::max<uint32_t>(LeafCapacityBytes() * opts.fillfactor / 100,
                              kMaxUserKeyLen + sizeof(RowId) + kSlotSize);
  }

  Status Run();
  // Appends a kRebuildProgress record of the current position (mirrored
  // into the journal for checkpoints). `in_txn` records ride ahead of their
  // transaction's commit record; standalone markers are flushed at once.
  Status LogProgress(bool done_flag, bool in_txn);
  Status TopAction(OpCtx op, BTree::Path* path, bool* done);
  Status LockBatch(OpCtx op, BTree::NtaScope* nta, const Slice& skey,
                   std::vector<PageId>* batch, PageId* pp_id, PageId* np_id,
                   bool* done);
  // The copy phase (Section 4.1) in three steps, each a boundary between
  // latched work: plan, apply, relink. Relink passes the leaf entries.
  Status PlanCopy(PageId pp_id, CopyPlan* plan);
  Status ApplyCopy(OpCtx op, BTree::NtaScope* nta, PageId pp_id,
                   PageId np_id, CopyPlan* plan);
  Status Relink(OpCtx op, PageId pp_id, PageId np_id, const CopyPlan& plan,
                std::vector<PropEntry>* entries);
  Status Propagate(OpCtx op, BTree::NtaScope* nta, const Slice& pp_route_key,
                   std::vector<PropEntry>* entries, BTree::Path* path);
  // Applies `group` to its X-latched parent and appends the entries it
  // passes one level up to `up`.
  Status ApplyGroup(OpCtx op, BTree::NtaScope* nta, PageRef* parent,
                    uint16_t level, std::span<const PropEntry> group,
                    PageId* open_left, std::vector<PropEntry>* up);
  // The packer: logs and applies one batch insert of the longest prefix of
  // `rows` that fits in `room` bytes of `page`, at slot `pos`, and returns
  // its length. A row that lands in slot 0 keeps only its child pointer:
  // the first row of a non-leaf page carries no separator.
  size_t Pack(OpCtx op, PageRef* page, SlotId pos, size_t room,
              std::span<Slice> rows, uint16_t level);
  // [child][sep] encoded in the arena.
  Slice NonLeafRow(PageId child, const Slice& sep);
  // Formats the new page `id` under an X address lock and `flag`, both
  // held to the end of the top action; *ref comes back X-latched.
  Status FormatLocked(OpCtx op, BTree::NtaScope* nta, PageId id,
                      uint16_t level, PageId prev, PageId next, uint16_t flag,
                      PageRef* ref);
  Status SetBit(OpCtx op, BTree::NtaScope* nta, PageId page, uint16_t flag);
  Status FreeOldPagesViaLogScan(Transaction* txn);
};

}  // namespace oir

#endif  // OIR_CORE_REBUILD_IMPL_H_
