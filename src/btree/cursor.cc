#include "btree/cursor.h"

#include <cstring>

#include "util/logging.h"

namespace oir {

void Cursor::Capture(PageRef& page, SlotId pos) {
  const uint32_t page_size = tree_->bm_->page_size();
  std::memcpy(leaf_.get(), page.data(), page_size);
  latch_ = &page.latch();
  version_ = latch_->version();
  current_ = SlottedPage(leaf_.get(), page_size).Get(pos);
  page_ = page.id();
  page_lsn_ = page.header()->page_lsn;
  pos_ = pos;
  valid_ = true;
  if (page_ != last_counted_page_) {
    ++pages_visited_;
    last_counted_page_ = page_;
  }
}

bool Cursor::CaptureFirstRow(PageRef& next) {
  const PageHeader* h = next.header();
  if ((h->flags & kFlagShrink) != 0 || h->level != kLeafLevel ||
      h->nslots == 0) {
    return false;
  }
  Capture(next, 0);
  return true;
}

Status Cursor::Seek(const Slice& user_key) {
  std::string composite = MakeIndexKey(user_key, 0);
  return SeekComposite(Slice(composite), /*exclusive=*/false);
}

Status Cursor::SeekToFirst() {
  return SeekComposite(Slice(), /*exclusive=*/false);
}

Status Cursor::SeekComposite(const Slice& composite, bool exclusive) {
  valid_ = false;
  BTree::Path path;
  for (;;) {
    PageRef leaf;
    OIR_RETURN_IF_ERROR(tree_->Traverse(op_, composite, /*writer=*/false,
                                        kLeafLevel, &leaf, &path));
    // Walk right until a qualifying row is found (handles empty leaves and
    // keys that migrated right through a concurrent split).
    for (;;) {
      SlottedPage sp(leaf.data(), tree_->bm_->page_size());
      SlotId pos = node::LeafLowerBound(sp, composite);
      if (exclusive && pos < sp.nslots() && sp.Get(pos) == composite) {
        ++pos;
      }
      if (pos < sp.nslots()) {
        Capture(leaf, pos);
        leaf.latch().UnlockS();
        return Status::OK();
      }
      PageId next = leaf.header()->next_page;
      if (next == kInvalidPageId) {
        leaf.latch().UnlockS();
        return Status::OK();  // end of index; cursor invalid
      }
      PageRef nref;
      OIR_RETURN_IF_ERROR(tree_->bm_->Fetch(next, &nref));
      nref.latch().LockS();
      if ((nref.header()->flags & kFlagShrink) != 0) {
        nref.latch().UnlockS();
        nref.Release();
        leaf.latch().UnlockS();
        leaf.Release();
        OIR_RETURN_IF_ERROR(tree_->locks_->LockInstant(
            op_.id, AddressLockKey(next), LockMode::kS,
            /*conditional=*/false));
        break;  // retraverse
      }
      leaf.latch().UnlockS();
      leaf = std::move(nref);
    }
  }
}

Status Cursor::Next() {
  OIR_CHECK(valid_);
  // Fastest path: the leaf's version has not moved since it was copied, so
  // the copy is the page: its next slot is the successor, and past its last
  // slot the successor is the first row of the leaf it links to.
  SlottedPage copy(leaf_.get(), tree_->bm_->page_size());
  if (latch_->version() == version_ &&
      (copy.header()->flags & kFlagShrink) == 0) {
    if (pos_ + 1 < copy.nslots()) {
      pos_ = static_cast<SlotId>(pos_ + 1);
      current_ = copy.Get(pos_);
      return Status::OK();
    }
    const PageId next = copy.header()->next_page;
    if (next == kInvalidPageId) {
      valid_ = false;
      return Status::OK();
    }
    // Hand over without re-latching the leaf: latch the neighbour, then
    // re-check the leaf's version. An unchanged version while the
    // neighbour is latched stands in for holding the leaf's S latch across
    // the hand-over (no X holder has released the leaf since the copy, so
    // it still links to `next`, and `next` cannot have been freed).
    PageRef nref;
    if (tree_->bm_->Fetch(next, &nref).ok()) {
      nref.latch().LockS();
      const bool stepped =
          latch_->version() == version_ && CaptureFirstRow(nref);
      nref.latch().UnlockS();
      if (stepped) return Status::OK();
    }
  }
  // Latched step (the version moved, or the neighbour did not qualify): go
  // on from the live page if its pageLSN is unchanged.
  if (tree_->space_->GetState(page_) == PageState::kAllocated) {
    PageRef leaf;
    if (tree_->bm_->Fetch(page_, &leaf).ok()) {
      leaf.latch().LockS();
      const PageHeader* h = leaf.header();
      if (h->page_id == page_ && h->level == kLeafLevel &&
          (h->flags & kFlagShrink) == 0 && h->page_lsn == page_lsn_) {
        SlottedPage sp(leaf.data(), tree_->bm_->page_size());
        if (pos_ + 1 < sp.nslots()) {
          Capture(leaf, static_cast<SlotId>(pos_ + 1));
          leaf.latch().UnlockS();
          return Status::OK();
        }
        // Cross to the next leaf in the chain.
        PageId next = h->next_page;
        if (next == kInvalidPageId) {
          leaf.latch().UnlockS();
          valid_ = false;
          return Status::OK();
        }
        PageRef nref;
        Status fs = tree_->bm_->Fetch(next, &nref);
        if (fs.ok()) {
          nref.latch().LockS();
          const bool stepped = CaptureFirstRow(nref);
          nref.latch().UnlockS();
          if (stepped) {
            leaf.latch().UnlockS();
            return Status::OK();
          }
        }
      }
      leaf.latch().UnlockS();
    }
  }
  // Slow path: the page changed, was shrunk or was rebuilt away —
  // reposition by key (Section 2.6.1 retraversal, cursor flavor).
  std::string cur = current_.ToString();  // SeekComposite reuses leaf_
  return SeekComposite(Slice(cur), /*exclusive=*/true);
}

}  // namespace oir
