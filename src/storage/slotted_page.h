#ifndef OIR_STORAGE_SLOTTED_PAGE_H_
#define OIR_STORAGE_SLOTTED_PAGE_H_

// SlottedPage is a non-owning view over a raw page buffer providing slotted
// row storage. It performs no latching and no logging — callers (the B+-tree
// node layer) hold the page latch and emit log records.

#include <cstdint>

#include "storage/page.h"
#include "util/logging.h"
#include "util/slice.h"
#include "util/types.h"

namespace oir {

class SlottedPage {
 public:
  // `data` must point to a buffer of `page_size` bytes and outlive the view.
  SlottedPage(char* data, uint32_t page_size)
      : data_(data), page_size_(page_size) {}

  // Formats the buffer as an empty page at the given level.
  void Init(PageId page_id, uint16_t level);

  PageHeader* header() { return HeaderOf(data_); }
  const PageHeader* header() const { return HeaderOf(data_); }

  char* data() { return data_; }
  const char* data() const { return data_; }
  uint32_t page_size() const { return page_size_; }

  uint16_t nslots() const { return header()->nslots; }

  // Row accessors. `pos` must be < nslots().
  Slice Get(SlotId pos) const;

  // Inserts `row` so that it becomes slot `pos` (existing slots at >= pos
  // shift up by one). Returns false if there is insufficient space even
  // after compaction.
  bool InsertAt(SlotId pos, const Slice& row);

  // Inserts rows [first, last] of `src`, another page, so that they become
  // slots pos, pos + 1, ... in order. Returns false, leaving this page
  // unchanged, if they do not fit even after compaction. The keycopy apply
  // at rebuild time and its redo both move rows with this call.
  bool InsertRowsFrom(SlotId pos, const SlottedPage& src, SlotId first,
                      SlotId last);

  // Removes slot `pos`; slots above shift down by one. Row bytes become
  // garbage until the next compaction.
  void DeleteAt(SlotId pos);

  // Replaces the row at `pos`. Returns false on insufficient space (the
  // original row is left intact in that case).
  bool ReplaceAt(SlotId pos, const Slice& row);

  // Bytes available for a new row of any size (includes the slot entry),
  // counting garbage that compaction would reclaim.
  uint32_t FreeSpace() const;

  // Bytes available without compaction.
  uint32_t ContiguousFreeSpace() const;

  // Bytes consumed by live rows + their slot entries.
  uint32_t UsedSpace() const;

  // True if a row of `row_size` bytes fits (possibly after compaction).
  bool HasRoomFor(uint32_t row_size) const {
    return FreeSpace() >= row_size + kSlotSize;
  }

  // Rewrites the row area to squeeze out garbage: live rows are laid out
  // in slot order from a copy of the row area in a per-thread scratch
  // buffer, so compaction allocates nothing per row.
  void Compact();

  // Verifies internal consistency (slot bounds, free pointer, garbage
  // accounting). Used by tests and debug checks.
  bool Validate() const;

 private:
  uint16_t SlotOffset(SlotId pos) const;
  uint16_t SlotLength(SlotId pos) const;
  void SetSlot(SlotId pos, uint16_t offset, uint16_t length);
  char* SlotEntryPtr(SlotId pos) const;

  char* data_;
  uint32_t page_size_;
};

}  // namespace oir

#endif  // OIR_STORAGE_SLOTTED_PAGE_H_
