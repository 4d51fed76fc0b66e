#include "space/space_manager.h"

#include <algorithm>
#include <map>

#include "testing/crash_point.h"
#include "util/logging.h"

namespace oir {

SpaceManager::SpaceManager(Disk* disk, LogManager* log, PageId first_data_page)
    : disk_(disk),
      log_(log),
      first_data_page_(first_data_page),
      next_unused_(first_data_page) {}

PageState SpaceManager::GetState(PageId page) const {
  MutexLock l(mu_);
  if (page < first_data_page_) return PageState::kAllocated;
  size_t idx = page - first_data_page_;
  if (idx >= states_.size()) return PageState::kFree;
  return states_[idx];
}

Status SpaceManager::ExtendLocked(uint32_t n, PageId* first) {
  PageId start = next_unused_;
  if (static_cast<uint64_t>(start) + n > disk_->NumPages()) {
    // Grow the device with some headroom.
    uint32_t want = start + n;
    uint32_t target = std::max<uint32_t>(want, disk_->NumPages() * 2);
    OIR_RETURN_IF_ERROR(disk_->Extend(target));
  }
  next_unused_ = start + n;
  states_.resize(next_unused_ - first_data_page_, PageState::kFree);
  *first = start;
  return Status::OK();
}

Status SpaceManager::ReserveRunLocked(uint32_t n, PageId* first) {
  // Look for n contiguous free pages below the high-water mark. The paper's
  // page manager prefers "a chunk of large contiguous free disk space";
  // scanning the in-memory state vector is our equivalent.
  uint32_t run = 0;
  for (size_t i = 0; i < states_.size(); ++i) {
    if (states_[i] == PageState::kFree) {
      ++run;
      if (run == n) {
        *first = first_data_page_ + static_cast<PageId>(i + 1 - n);
        return Status::OK();
      }
    } else {
      run = 0;
    }
  }
  return ExtendLocked(n, first);
}

Status SpaceManager::Allocate(TxnContext* ctx, PageId* out) {
  std::vector<PageId> pages;
  OIR_RETURN_IF_ERROR(AllocateChunk(ctx, 1, &pages));
  *out = pages[0];
  return Status::OK();
}

Status SpaceManager::AllocateChunk(TxnContext* ctx, uint32_t n,
                                   std::vector<PageId>* out) {
  OIR_CHECK(n >= 1);
  out->clear();
  out->reserve(n);
  LogRecord rec;
  rec.type = LogType::kAlloc;
  {
    // The record is appended under mu_, like every logged state change: a
    // checkpoint's snapshot of the states (also under mu_) then either
    // misses the change, whose record comes after its scan start, or sees
    // it, whose record comes before the checkpoint record.
    MutexLock l(mu_);
    PageId first;
    OIR_RETURN_IF_ERROR(ReserveRunLocked(n, &first));
    for (uint32_t i = 0; i < n; ++i) {
      states_[first + i - first_data_page_] = PageState::kAllocated;
      rec.pages.push_back(first + i);
      out->push_back(first + i);
    }
    OIR_CRASH_POINT("space.alloc.state");
    log_->Append(&rec, ctx);
  }
  OIR_CRASH_POINT("space.alloc.logged");
  return Status::OK();
}

Status SpaceManager::Deallocate(TxnContext* ctx, PageId page) {
  return DeallocateBatch(ctx, {page});
}

Status SpaceManager::DeallocateBatch(TxnContext* ctx,
                                     const std::vector<PageId>& pages) {
  // One record per 256-page allocation unit (ASE-style allocation pages).
  constexpr PageId kUnit = 256;
  std::map<PageId, std::vector<PageId>> by_unit;
  for (PageId page : pages) by_unit[page / kUnit].push_back(page);
  {
    MutexLock l(mu_);  // appended under mu_: see AllocateChunk
    for (PageId page : pages) {
      OIR_CHECK(page >= first_data_page_ &&
                page - first_data_page_ < states_.size());
      PageState& s = states_[page - first_data_page_];
      OIR_CHECK(s == PageState::kAllocated);
      s = PageState::kDeallocated;
    }
    OIR_CRASH_POINT("space.dealloc.state");
    for (auto& [unit, list] : by_unit) {
      (void)unit;
      LogRecord rec;
      rec.type = LogType::kDealloc;
      rec.pages = list;
      log_->Append(&rec, ctx);
    }
  }
  OIR_CRASH_POINT("space.dealloc.logged");
  return Status::OK();
}

void SpaceManager::Free(PageId page) {
  OIR_CRASH_POINT("space.free");
  MutexLock l(mu_);
  OIR_CHECK(page >= first_data_page_ &&
            page - first_data_page_ < states_.size());
  PageState& s = states_[page - first_data_page_];
  OIR_CHECK(s == PageState::kDeallocated);
  s = PageState::kFree;
}

uint64_t SpaceManager::CountInState(PageState st) const {
  MutexLock l(mu_);
  uint64_t n = 0;
  for (PageState s : states_) {
    if (s == st) ++n;
  }
  return n;
}

std::vector<PageId> SpaceManager::PagesInState(PageState st) const {
  MutexLock l(mu_);
  std::vector<PageId> out;
  for (size_t i = 0; i < states_.size(); ++i) {
    if (states_[i] == st) out.push_back(first_data_page_ + i);
  }
  return out;
}

PageId SpaceManager::end_page() const {
  MutexLock l(mu_);
  return next_unused_;
}

void SpaceManager::UndoAlloc(PageId page) {
  MutexLock l(mu_);
  OIR_CHECK(page >= first_data_page_ &&
            page - first_data_page_ < states_.size());
  PageState& s = states_[page - first_data_page_];
  OIR_CHECK(s == PageState::kAllocated);
  s = PageState::kFree;
}

void SpaceManager::UndoDealloc(PageId page) {
  MutexLock l(mu_);
  OIR_CHECK(page >= first_data_page_ &&
            page - first_data_page_ < states_.size());
  PageState& s = states_[page - first_data_page_];
  OIR_CHECK(s == PageState::kDeallocated);
  s = PageState::kAllocated;
}

void SpaceManager::SetStateForRecovery(PageId page, PageState s) {
  MutexLock l(mu_);
  OIR_CHECK(page >= first_data_page_);
  size_t idx = page - first_data_page_;
  if (idx >= states_.size()) {
    states_.resize(idx + 1, PageState::kFree);
    next_unused_ = page + 1;
  }
  states_[idx] = s;
}

std::vector<PageId> SpaceManager::FreeAllDeallocated() {
  MutexLock l(mu_);
  std::vector<PageId> freed;
  for (size_t i = 0; i < states_.size(); ++i) {
    if (states_[i] == PageState::kDeallocated) {
      states_[i] = PageState::kFree;
      freed.push_back(first_data_page_ + i);
    }
  }
  return freed;
}

void SpaceManager::ResetForRecovery() {
  MutexLock l(mu_);
  states_.clear();
  next_unused_ = first_data_page_;
}

}  // namespace oir
