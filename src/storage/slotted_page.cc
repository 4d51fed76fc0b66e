#include "storage/slotted_page.h"

#include <cstring>
#include <vector>

namespace oir {

void SlottedPage::Init(PageId page_id, uint16_t level) {
  std::memset(data_, 0, page_size_);
  PageHeader* h = header();
  h->page_id = page_id;
  h->page_lsn = kInvalidLsn;
  h->prev_page = kInvalidPageId;
  h->next_page = kInvalidPageId;
  h->level = level;
  h->flags = 0;
  h->nslots = 0;
  h->free_ptr = static_cast<uint16_t>(kPageHeaderSize);
  h->garbage = 0;
}

char* SlottedPage::SlotEntryPtr(SlotId pos) const {
  return data_ + page_size_ - kSlotSize * (pos + 1);
}

uint16_t SlottedPage::SlotOffset(SlotId pos) const {
  uint16_t v;
  std::memcpy(&v, SlotEntryPtr(pos), sizeof(v));
  return v;
}

uint16_t SlottedPage::SlotLength(SlotId pos) const {
  uint16_t v;
  std::memcpy(&v, SlotEntryPtr(pos) + 2, sizeof(v));
  return v;
}

void SlottedPage::SetSlot(SlotId pos, uint16_t offset, uint16_t length) {
  std::memcpy(SlotEntryPtr(pos), &offset, sizeof(offset));
  std::memcpy(SlotEntryPtr(pos) + 2, &length, sizeof(length));
}

Slice SlottedPage::Get(SlotId pos) const {
  OIR_DCHECK(pos < nslots());
  return Slice(data_ + SlotOffset(pos), SlotLength(pos));
}

uint32_t SlottedPage::ContiguousFreeSpace() const {
  const PageHeader* h = header();
  uint32_t dir_start = page_size_ - kSlotSize * h->nslots;
  OIR_DCHECK(dir_start >= h->free_ptr);
  return dir_start - h->free_ptr;
}

uint32_t SlottedPage::FreeSpace() const {
  return ContiguousFreeSpace() + header()->garbage;
}

uint32_t SlottedPage::UsedSpace() const {
  const PageHeader* h = header();
  return (h->free_ptr - kPageHeaderSize) - h->garbage +
         kSlotSize * h->nslots;
}

bool SlottedPage::InsertAt(SlotId pos, const Slice& row) {
  PageHeader* h = header();
  OIR_DCHECK(pos <= h->nslots);
  const uint32_t need = static_cast<uint32_t>(row.size()) + kSlotSize;
  if (ContiguousFreeSpace() < need) {
    if (FreeSpace() < need) return false;
    Compact();
    if (ContiguousFreeSpace() < need) return false;
  }
  // Shift slot entries at >= pos up by one position (their memory moves
  // down by kSlotSize since the directory grows downward).
  char* dir_start = data_ + page_size_ - kSlotSize * h->nslots;
  const uint32_t move_count = h->nslots - pos;
  if (move_count > 0) {
    std::memmove(dir_start - kSlotSize, dir_start, kSlotSize * move_count);
  }
  ++h->nslots;
  // Write the row bytes at free_ptr.
  std::memcpy(data_ + h->free_ptr, row.data(), row.size());
  SetSlot(pos, h->free_ptr, static_cast<uint16_t>(row.size()));
  h->free_ptr = static_cast<uint16_t>(h->free_ptr + row.size());
  return true;
}

bool SlottedPage::InsertRowsFrom(SlotId pos, const SlottedPage& src,
                                 SlotId first, SlotId last) {
  OIR_DCHECK(src.data() != data_ && first <= last && last < src.nslots());
  uint32_t need = 0;
  for (SlotId i = first; i <= last; ++i) need += src.SlotLength(i) + kSlotSize;
  if (FreeSpace() < need) return false;
  for (SlotId i = first; i <= last; ++i) {
    OIR_CHECK(InsertAt(static_cast<SlotId>(pos + (i - first)), src.Get(i)));
  }
  return true;
}

void SlottedPage::DeleteAt(SlotId pos) {
  PageHeader* h = header();
  OIR_DCHECK(pos < h->nslots);
  const uint16_t len = SlotLength(pos);
  const uint16_t off = SlotOffset(pos);
  // If this row is the last physically, reclaim it directly; otherwise it
  // becomes garbage. Zero-length rows can share the boundary offset, so
  // reclaiming also requires that no other slot points at or above `off`.
  bool reclaim = static_cast<uint32_t>(off) + len == h->free_ptr;
  if (reclaim) {
    for (SlotId i = 0; i < h->nslots; ++i) {
      if (i != pos && SlotOffset(i) >= off) {
        reclaim = false;
        break;
      }
    }
  }
  if (reclaim) {
    h->free_ptr = off;
  } else {
    h->garbage = static_cast<uint16_t>(h->garbage + len);
  }
  // Shift slot entries above pos down by one position.
  char* dir_start = data_ + page_size_ - kSlotSize * h->nslots;
  const uint32_t move_count = h->nslots - pos - 1;
  if (move_count > 0) {
    // Entries for slots pos+1 .. nslots-1 occupy the memory range
    // [dir_start, SlotEntryPtr(pos)); move them up by kSlotSize.
    std::memmove(dir_start + kSlotSize, dir_start, kSlotSize * move_count);
  }
  --h->nslots;
}

bool SlottedPage::ReplaceAt(SlotId pos, const Slice& row) {
  PageHeader* h = header();
  OIR_DCHECK(pos < h->nslots);
  const uint16_t old_len = SlotLength(pos);
  if (row.size() <= old_len) {
    const uint16_t off = SlotOffset(pos);
    std::memcpy(data_ + off, row.data(), row.size());
    h->garbage = static_cast<uint16_t>(h->garbage + old_len - row.size());
    SetSlot(pos, off, static_cast<uint16_t>(row.size()));
    return true;
  }
  // Need more space: remove then reinsert, restoring on failure.
  std::string saved = Get(pos).ToString();
  DeleteAt(pos);
  if (InsertAt(pos, row)) return true;
  OIR_CHECK(InsertAt(pos, Slice(saved)));
  return false;
}

void SlottedPage::Compact() {
  PageHeader* h = header();
  // Rows are rewritten in slot order, which need not be their physical
  // order, so read them from a copy of the row area.
  thread_local std::vector<char> scratch;
  const uint32_t area = h->free_ptr - kPageHeaderSize;
  if (scratch.size() < page_size_) scratch.resize(page_size_);
  std::memcpy(scratch.data(), data_ + kPageHeaderSize, area);
  uint16_t fp = static_cast<uint16_t>(kPageHeaderSize);
  for (SlotId i = 0; i < h->nslots; ++i) {
    const uint16_t len = SlotLength(i);
    std::memcpy(data_ + fp, scratch.data() + (SlotOffset(i) - kPageHeaderSize),
                len);
    SetSlot(i, fp, len);
    fp = static_cast<uint16_t>(fp + len);
  }
  h->free_ptr = fp;
  h->garbage = 0;
}

bool SlottedPage::Validate() const {
  const PageHeader* h = header();
  if (h->free_ptr < kPageHeaderSize || h->free_ptr > page_size_) return false;
  uint32_t dir_start = page_size_ - kSlotSize * h->nslots;
  if (dir_start < h->free_ptr) return false;
  uint32_t live_bytes = 0;
  for (SlotId i = 0; i < h->nslots; ++i) {
    uint32_t off = SlotOffset(i);
    uint32_t len = SlotLength(i);
    if (off < kPageHeaderSize || off + len > h->free_ptr) return false;
    live_bytes += len;
  }
  // garbage accounts for all dead bytes in the row area.
  uint32_t row_area = h->free_ptr - kPageHeaderSize;
  if (live_bytes + h->garbage != row_area) return false;
  return true;
}

}  // namespace oir
