#include "storage/buffer_manager.h"

#include <algorithm>
#include <cstring>

#include "obs/waitstate.h"
#include "testing/crash_point.h"
#include "util/counters.h"
#include "util/logging.h"

namespace oir {

char* PageRef::data() {
  OIR_DCHECK(valid());
  return bm_->frames_[frame_].data.get();
}

const char* PageRef::data() const {
  OIR_DCHECK(valid());
  return bm_->frames_[frame_].data.get();
}

Latch& PageRef::latch() {
  OIR_DCHECK(valid());
  return bm_->frames_[frame_].latch;
}

void PageRef::MarkDirty() {
  OIR_DCHECK(valid());
  bm_->frames_[frame_].dirty.store(true, std::memory_order_release);
}

void PageRef::Release() {
  if (bm_ != nullptr) {
    OIR_DCHECK(bm_->frames_[frame_].page_id.load() == id_);
    bm_->Unpin(frame_, id_);
    bm_ = nullptr;
    frame_ = SIZE_MAX;
    id_ = kInvalidPageId;
  }
}

BufferManager::PageTable::PageTable(size_t frames) {
  size_t capacity = 2;
  int bits = 1;
  while (capacity < 2 * frames) {
    capacity *= 2;
    ++bits;
  }
  slots_.reset(new std::atomic<uint64_t>[capacity]);
  for (size_t i = 0; i < capacity; ++i) {
    slots_[i].store(0, std::memory_order_relaxed);
  }
  mask_ = capacity - 1;
  shift_ = 64 - bits;
}

size_t BufferManager::PageTable::Find(PageId id) const {
  size_t i = Home(id);
  for (size_t probes = 0; probes <= mask_; ++probes) {
    const uint64_t e = slots_[i].load(std::memory_order_relaxed);
    if (e == 0) return kNone;
    if (static_cast<PageId>(e >> 32) == id) return e & 0xffffffffu;
    i = (i + 1) & mask_;
  }
  return kNone;
}

void BufferManager::PageTable::Insert(PageId id, size_t frame) {
  OIR_DCHECK(2 * size_ < mask_ + 1);
  size_t i = Home(id);
  while (slots_[i].load(std::memory_order_relaxed) != 0) i = (i + 1) & mask_;
  slots_[i].store((static_cast<uint64_t>(id) << 32) | frame,
                  std::memory_order_relaxed);
  ++size_;
}

void BufferManager::PageTable::Erase(PageId id) {
  size_t i = Home(id);
  for (;;) {
    const uint64_t e = slots_[i].load(std::memory_order_relaxed);
    OIR_CHECK(e != 0);
    if (static_cast<PageId>(e >> 32) == id) break;
    i = (i + 1) & mask_;
  }
  // Backward shift: pull each later entry of the probe run into the hole
  // unless its home lies cyclically in (hole, its slot].
  for (size_t j = (i + 1) & mask_;; j = (j + 1) & mask_) {
    const uint64_t e = slots_[j].load(std::memory_order_relaxed);
    if (e == 0) break;
    const size_t home = Home(static_cast<PageId>(e >> 32));
    if (((j - home) & mask_) >= ((j - i) & mask_)) {
      slots_[i].store(e, std::memory_order_relaxed);
      i = j;
    }
  }
  slots_[i].store(0, std::memory_order_relaxed);
  --size_;
}

void BufferManager::PageTable::Clear() {
  for (size_t i = 0; i <= mask_; ++i) {
    slots_[i].store(0, std::memory_order_relaxed);
  }
  size_ = 0;
}

BufferManager::BufferManager(Disk* disk, size_t pool_frames, size_t shards)
    : disk_(disk), page_size_(disk->page_size()) {
  OIR_CHECK(pool_frames >= 8);
  if (shards == 0) {
    // One shard per 16 frames, at most 8: shards stay large relative to
    // the handful of pages one operation pins at a time.
    shards = 1;
    while (shards < 8 && shards * 32 <= pool_frames) shards *= 2;
  }
  OIR_CHECK((shards & (shards - 1)) == 0 && shards <= pool_frames / 4);
  shard_mask_ = static_cast<uint32_t>(shards - 1);
  frames_.reset(new Frame[pool_frames]);
  pool_frames_ = pool_frames;
  size_t next = 0;
  for (size_t s = 0; s < shards; ++s) {
    const size_t extra = s < pool_frames % shards ? 1 : 0;
    Shard& sh = shards_.emplace_back(pool_frames / shards + extra);
    sh.start = next;
    next += sh.count;
    sh.free_list.reserve(sh.count);
    for (size_t i = 0; i < sh.count; ++i) {
      sh.free_list.push_back(sh.start + sh.count - 1 - i);
    }
  }
  OIR_CHECK(next == pool_frames);
}

BufferManager::~BufferManager() {
  StopWriteBack();
  OIR_DCHECK(PinnedFrames() == 0);
}

void BufferManager::Unpin(size_t frame, PageId id) {
  Frame& f = frames_[frame];
  const uint32_t prev = f.state.fetch_sub(1, std::memory_order_release);
  OIR_CHECK((prev & kPinMask) != 0);
  if ((prev & (kWaiter | kPinMask)) == (kWaiter | 1)) {
    // The frame never changes shards, and `id` maps to it: its shard.
    Shard& sh = ShardOf(id);
    MutexLock l(sh.mu);
    NotifyAll(sh);
  }
}

bool BufferManager::TryPin(size_t frame, PageId id) {
  Frame& f = frames_[frame];
  uint32_t s = f.state.load(std::memory_order_relaxed);
  do {
    if ((s & (kLoading | kClaimed)) != 0) return false;
  } while (!f.state.compare_exchange_weak(s, s + 1, std::memory_order_acquire,
                                          std::memory_order_relaxed));
  // The pin keeps the frame from being claimed, so page_id is stable now;
  // the acquire above orders this read after the mapping's last change.
  if (f.page_id.load(std::memory_order_relaxed) != id) {
    Unpin(frame, id);
    return false;
  }
  if (!f.ref.load(std::memory_order_relaxed)) {
    f.ref.store(true, std::memory_order_relaxed);
  }
  return true;
}

bool BufferManager::Claim(Frame& f) {
  uint32_t s = f.state.load(std::memory_order_relaxed);
  if ((s & ~kWaiter) != 0) return false;
  return f.state.compare_exchange_strong(s, kClaimed,
                                         std::memory_order_acquire);
}

bool BufferManager::WaitForPins(Shard& sh, Frame& f) {
  // WAITER is set before the pins are read again, so the unpin that takes
  // the count to zero sees it and wakes us (it needs sh.mu to do so, which
  // the wait releases).
  const uint32_t s = f.state.fetch_or(kWaiter, std::memory_order_acq_rel);
  if ((s & kPinMask) == 0) return false;
  WaitOn(sh);
  return true;
}

Status BufferManager::AllocateFrameLocked(Shard& sh, PageId for_page,
                                          size_t* out_frame) {
  auto& c = GlobalCounters::Get();
  for (;;) {
    if (!sh.free_list.empty()) {
      // Free frames are CLAIMED: no hit can pin them while remapped.
      size_t idx = sh.free_list.back();
      sh.free_list.pop_back();
      Frame& f = frames_[idx];
      // A frame gets its page memory when first claimed, so a pool larger
      // than the index never holds the memory of frames it does not use.
      if (f.data == nullptr) f.data.reset(new char[page_size_]);
      f.latch.Invalidate();
      f.page_id.store(for_page, std::memory_order_relaxed);
      f.dirty.store(false, std::memory_order_relaxed);
      f.ref.store(true, std::memory_order_relaxed);
      f.state.store(kLoading | 1, std::memory_order_release);
      sh.table.Insert(for_page, idx);
      *out_frame = idx;
      return Status::OK();
    }
    // Clock scan over this shard's frames for an evictable one. Clean
    // victims are preferred — evicting one needs no I/O and never drops the
    // shard mutex — and dirty frames scanned past are handed to the
    // background write-back worker so the next scan finds them clean. The
    // dirty fallback (inline write-back) remains for pools where every
    // evictable frame is dirty.
    size_t scanned = 0;
    size_t victim = SIZE_MAX;
    size_t dirty_victim = SIZE_MAX;
    int enqueued = 0;
    const bool async_wb = wb_running();
    while (scanned < 2 * sh.count) {
      size_t idx = sh.start + sh.clock_hand;
      Frame& f = frames_[idx];
      sh.clock_hand = (sh.clock_hand + 1) % sh.count;
      ++scanned;
      if ((f.state.load(std::memory_order_relaxed) & ~kWaiter) != 0) continue;
      const bool dirty = f.dirty.load(std::memory_order_acquire);
      if (dirty && async_wb && enqueued < 4) {
        EnqueueWriteBack(f.page_id.load(std::memory_order_relaxed));
        ++enqueued;
      }
      if (f.ref.load(std::memory_order_relaxed)) {
        f.ref.store(false, std::memory_order_relaxed);
        continue;
      }
      if (!dirty) {
        victim = idx;
        break;
      }
      if (dirty_victim == SIZE_MAX) dirty_victim = idx;
    }
    if (victim == SIZE_MAX) victim = dirty_victim;
    if (victim == SIZE_MAX) {
      return Status::NoSpace("buffer pool exhausted: all frames pinned");
    }
    Frame& vf = frames_[victim];
    // A hit may have pinned the victim since the scan read its state.
    if (!Claim(vf)) continue;
    c.pool_evictions.fetch_add(1, std::memory_order_relaxed);
    OIR_CRASH_POINT("pool.evict");
    const PageId old_id = vf.page_id.load(std::memory_order_relaxed);
    // Claim the dirty bit before copying so a marker racing with the
    // write-back leaves the frame dirty again.
    const bool was_dirty = vf.dirty.exchange(false, std::memory_order_acquire);
    if (was_dirty) {
      // The claim keeps the frame from being pinned or remapped while the
      // shard mutex is dropped.
      sh.mu.Unlock();
      Status s = WriteBack(victim);
      sh.mu.Lock();
      if (!s.ok()) {
        vf.dirty.store(true, std::memory_order_release);
        vf.state.store(0, std::memory_order_release);
        NotifyAll(sh);
        return s;
      }
      if (sh.table.Find(for_page) != PageTable::kNone) {
        // Another thread mapped `for_page` while we were writing back the
        // victim. Leave the (now clean) victim in place and tell the caller
        // to retry its lookup.
        vf.state.store(0, std::memory_order_release);
        NotifyAll(sh);
        return Status::Busy("fetch raced");
      }
    }
    sh.table.Erase(old_id);
    vf.latch.Invalidate();
    vf.page_id.store(for_page, std::memory_order_relaxed);
    vf.dirty.store(false, std::memory_order_relaxed);
    vf.ref.store(true, std::memory_order_relaxed);
    vf.state.store(kLoading | 1, std::memory_order_release);
    sh.table.Insert(for_page, victim);
    *out_frame = victim;
    NotifyAll(sh);  // wake fetchers of old_id so they retry
    return Status::OK();
  }
}

Status BufferManager::WriteBack(size_t frame) {
  OIR_CRASH_POINT("pool.writeback.pre");
  Frame& f = frames_[frame];
  // Copy a consistent image under the S latch.
  std::unique_ptr<char[]> img(new char[page_size_]);
  f.latch.LockS();
  std::memcpy(img.get(), f.data.get(), page_size_);
  f.latch.UnlockS();
  const Lsn page_lsn = HeaderOf(img.get())->page_lsn;
  if (log_flusher_ != nullptr && page_lsn != kInvalidLsn) {
    OIR_RETURN_IF_ERROR(log_flusher_->FlushTo(page_lsn));
  }
  OIR_CRASH_POINT("pool.writeback.wal_flushed");
  GlobalCounters::Get().pool_writebacks.fetch_add(1,
                                                  std::memory_order_relaxed);
  {
    obs::WaitScope ws(obs::WaitState::kIoWait);
    OIR_RETURN_IF_ERROR(disk_->WritePage(f.page_id, img.get()));
  }
  OIR_CRASH_POINT("pool.writeback.post");
  return Status::OK();
}

Status BufferManager::Fetch(PageId id, PageRef* out) {
  OIR_CHECK(id != kInvalidPageId);
  auto& c = GlobalCounters::Get();
  Shard& sh = ShardOf(id);
  // Hit path: no mutex.
  const size_t hit = sh.table.Find(id);
  if (hit != PageTable::kNone && TryPin(hit, id)) {
    c.pool_hits.fetch_add(1, std::memory_order_relaxed);
    *out = PageRef(this, hit, id);
    return Status::OK();
  }
  sh.mu.Lock();
  for (;;) {
    const size_t idx = sh.table.Find(id);
    if (idx != PageTable::kNone) {
      Frame& f = frames_[idx];
      if (f.InFlux()) {
        WaitOn(sh);
        continue;
      }
      // The flags change only under the shard mutex: a plain pin is safe.
      f.state.fetch_add(1, std::memory_order_acquire);
      f.ref.store(true, std::memory_order_relaxed);
      c.pool_hits.fetch_add(1, std::memory_order_relaxed);
      *out = PageRef(this, idx, id);
      sh.mu.Unlock();
      return Status::OK();
    }
    size_t frame;
    Status alloc = AllocateFrameLocked(sh, id, &frame);
    if (alloc.IsBusy()) continue;  // raced with another fetcher; retry
    if (!alloc.ok()) {
      sh.mu.Unlock();
      return alloc;
    }
    c.pool_misses.fetch_add(1, std::memory_order_relaxed);
    // Frame is mapped to `id`, LOADING with our pin. Do the read without
    // the shard mutex.
    sh.mu.Unlock();
    Status s;
    {
      obs::WaitScope ws(obs::WaitState::kIoWait);
      s = disk_->ReadPage(id, frames_[frame].data.get());
    }
    sh.mu.Lock();
    Frame& f = frames_[frame];
    if (!s.ok()) {
      // Undo: unmap and free the frame.
      sh.table.Erase(id);
      f.page_id.store(kInvalidPageId, std::memory_order_relaxed);
      f.state.store(kClaimed, std::memory_order_relaxed);
      sh.free_list.push_back(frame);
      NotifyAll(sh);
      sh.mu.Unlock();
      return s;
    }
    f.state.store(1, std::memory_order_release);  // loaded; our pin stays
    NotifyAll(sh);
    *out = PageRef(this, frame, id);
    sh.mu.Unlock();
    return Status::OK();
  }
}

Status BufferManager::Create(PageId id, PageRef* out) {
  OIR_CHECK(id != kInvalidPageId);
  Shard& sh = ShardOf(id);
  MutexLock lk(sh.mu);
  for (;;) {
    const size_t idx = sh.table.Find(id);
    if (idx != PageTable::kNone) {
      Frame& f = frames_[idx];
      if (f.InFlux()) {
        WaitOn(sh);
        continue;
      }
      // Stale cached copy of a previously freed page: reuse the frame once
      // any lingering reader pins drain.
      if (WaitForPins(sh, f) || !Claim(f)) continue;
      f.ref.store(true, std::memory_order_relaxed);
      f.dirty.store(false, std::memory_order_relaxed);
      f.latch.Invalidate();
      std::memset(f.data.get(), 0, page_size_);
      f.state.store(1, std::memory_order_release);
      *out = PageRef(this, idx, id);
      return Status::OK();
    }
    size_t frame;
    Status alloc = AllocateFrameLocked(sh, id, &frame);
    if (alloc.IsBusy()) continue;  // raced with another fetcher; retry
    OIR_RETURN_IF_ERROR(alloc);
    Frame& f = frames_[frame];
    std::memset(f.data.get(), 0, page_size_);
    f.state.store(1, std::memory_order_release);
    NotifyAll(sh);
    *out = PageRef(this, frame, id);
    return Status::OK();
  }
}

Status BufferManager::FlushPage(PageId id) {
  Shard& sh = ShardOf(id);
  sh.mu.Lock();
  for (;;) {
    const size_t frame = sh.table.Find(id);
    if (frame == PageTable::kNone) {
      sh.mu.Unlock();
      return Status::OK();
    }
    Frame& f = frames_[frame];
    if (f.InFlux() || f.flushing) {
      WaitOn(sh);
      continue;  // frame may have been remapped while we waited
    }
    if (!f.dirty.exchange(false, std::memory_order_acquire)) {
      sh.mu.Unlock();
      return Status::OK();
    }
    f.state.fetch_add(1, std::memory_order_acquire);  // stable during I/O
    f.flushing = true;
    sh.mu.Unlock();
    Status s = WriteBack(frame);
    sh.mu.Lock();
    if (!s.ok()) f.dirty.store(true, std::memory_order_release);
    f.flushing = false;
    f.state.fetch_sub(1, std::memory_order_release);
    NotifyAll(sh);  // wake pin- and flushing-claim waiters
    sh.mu.Unlock();
    return s;
  }
}

Status BufferManager::FlushAll() {
  std::vector<PageId> ids;
  for (Shard& sh : shards_) {
    MutexLock l(sh.mu);
    for (size_t i = sh.start; i < sh.start + sh.count; ++i) {
      const Frame& f = frames_[i];
      const PageId id = f.page_id.load(std::memory_order_relaxed);
      if (id != kInvalidPageId && f.dirty.load(std::memory_order_acquire)) {
        ids.push_back(id);
      }
    }
  }
  if (ids.empty()) return Status::OK();
  if (wb_running()) {
    // Route the dirty set through the write-back worker as one batch and
    // wait on its barrier: checkpoints share the queue (and the dedup)
    // with eviction-triggered cleaning instead of competing with it.
    WbBatch batch;
    {
      MutexLock l(wb_mu_);
      if (!wb_stop_) {
        batch.remaining = ids.size();
        for (PageId id : ids) {
          wb_queue_.push_back(WbItem{id, &batch});
        }
        GlobalCounters::Get().pool_wb_enqueued.fetch_add(
            ids.size(), std::memory_order_relaxed);
        wb_cv_.NotifyAll();
        obs::WaitScope ws(obs::WaitState::kIoWait);
        while (batch.remaining != 0) {
          wb_done_cv_.Wait(wb_mu_);
        }
        return batch.status;
      }
    }
  }
  for (PageId id : ids) {
    OIR_RETURN_IF_ERROR(FlushPage(id));
  }
  return Status::OK();
}

void BufferManager::StartWriteBack() {
  if (wb_thread_.joinable()) return;
  {
    MutexLock l(wb_mu_);
    wb_stop_ = false;
  }
  wb_thread_ = std::thread([this] { WriteBackLoop(); });
}

void BufferManager::StopWriteBack() {
  if (!wb_thread_.joinable()) return;
  {
    MutexLock l(wb_mu_);
    wb_stop_ = true;
  }
  wb_cv_.NotifyAll();
  wb_thread_.join();
}

void BufferManager::EnqueueWriteBack(PageId id) {
  MutexLock l(wb_mu_);
  if (wb_stop_) return;
  if (!wb_queued_ids_.insert(id).second) return;  // already queued
  OIR_CRASH_POINT("pool.wb.enqueue");
  wb_queue_.push_back(WbItem{id, nullptr});
  GlobalCounters::Get().pool_wb_enqueued.fetch_add(1,
                                                   std::memory_order_relaxed);
  wb_cv_.NotifyOne();
}

void BufferManager::CancelWriteBack() {
  if (!wb_thread_.joinable()) return;
  MutexLock l(wb_mu_);
  while (!wb_queue_.empty()) {
    WbItem item = wb_queue_.front();
    wb_queue_.pop_front();
    if (item.batch != nullptr) {
      if (item.batch->status.ok()) {
        item.batch->status = Status::Busy("write-back canceled");
      }
      if (--item.batch->remaining == 0) wb_done_cv_.NotifyAll();
    } else {
      wb_queued_ids_.erase(item.id);
    }
  }
  obs::WaitScope ws(obs::WaitState::kIoWait);
  while (wb_in_progress_ != 0) {
    wb_done_cv_.Wait(wb_mu_);
  }
}

void BufferManager::WriteBackLoop() {
  auto& c = GlobalCounters::Get();
  for (;;) {
    WbItem item;
    {
      MutexLock l(wb_mu_);
      while (wb_queue_.empty() && !wb_stop_) {
        wb_cv_.Wait(wb_mu_);  // wait-state: write-back worker idle
      }
      // Drain the queue before honoring stop: pending eviction write-backs
      // finish while the log flusher is still alive.
      if (wb_queue_.empty()) return;
      item = wb_queue_.front();
      wb_queue_.pop_front();
      if (item.batch == nullptr) wb_queued_ids_.erase(item.id);
      ++wb_in_progress_;
    }
    OIR_CRASH_POINT("pool.wb.write");
    // FlushPage claims the dirty bit under the shard mutex, pins the frame,
    // and honors WAL-before-data; a page evicted or cleaned since it was
    // queued is a cheap no-op.
    Status s = FlushPage(item.id);
    if (s.ok()) {
      c.pool_wb_async_writes.fetch_add(1, std::memory_order_relaxed);
    }
    {
      MutexLock l(wb_mu_);
      --wb_in_progress_;
      if (item.batch != nullptr) {
        if (!s.ok() && item.batch->status.ok()) item.batch->status = s;
        if (--item.batch->remaining == 0) wb_done_cv_.NotifyAll();
      }
      if (wb_in_progress_ == 0) wb_done_cv_.NotifyAll();
    }
  }
}

Status BufferManager::FlushPages(const std::vector<PageId>& ids,
                                 uint32_t io_pages) {
  if (io_pages < 1 || io_pages > pool_frames_) {
    return Status::InvalidArgument("io_pages outside [1, pool_frames]");
  }
  std::vector<PageId> sorted(ids);
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  std::unique_ptr<char[]> run_buf(new char[static_cast<size_t>(io_pages) *
                                           page_size_]);
  size_t i = 0;
  while (i < sorted.size()) {
    // Build a physically contiguous run of up to io_pages dirty pages. Each
    // page's flushing claim (and pin) is held from its snapshot until the
    // run's WriteMulti lands: the WAL flush below can block for a group-
    // commit round, and another flusher writing a newer image inside that
    // window would make our parked snapshot regress the disk image once it
    // finally lands — silently losing the in-between updates if a
    // checkpoint bounded the redo scan in the meantime. Claims are taken in
    // ascending page order, so concurrent FlushPages calls cannot deadlock.
    uint32_t run_len = 0;
    Lsn max_lsn = kInvalidLsn;
    PageId run_start = sorted[i];
    std::vector<std::pair<size_t, PageId>> claimed;  // (frame, page)
    auto release_run = [&](bool wrote) {
      for (const auto& [fidx, pid] : claimed) {
        Shard& csh = ShardOf(pid);
        MutexLock l(csh.mu);
        if (!wrote) {
          // The claimed content never reached disk: restore the dirty bit
          // so a later flush retries it.
          frames_[fidx].dirty.store(true, std::memory_order_release);
        }
        frames_[fidx].flushing = false;
        frames_[fidx].state.fetch_sub(1, std::memory_order_release);
        NotifyAll(csh);
      }
      claimed.clear();
    };
    while (i < sorted.size() && run_len < io_pages &&
           sorted[i] == run_start + run_len) {
      PageId id = sorted[i];
      Shard& sh = ShardOf(id);
      sh.mu.Lock();
      size_t frame = SIZE_MAX;
      for (;;) {
        const size_t idx = sh.table.Find(id);
        if (idx == PageTable::kNone) break;
        if (frames_[idx].InFlux() || frames_[idx].flushing) {
          WaitOn(sh);
          continue;  // re-find: frame may have been remapped
        }
        frame = idx;
        break;
      }
      if (frame == SIZE_MAX) {
        // Not cached (already written back or evicted). Break the run here
        // so disk offsets stay aligned.
        sh.mu.Unlock();
        if (run_len == 0) {
          ++i;
          run_start = i < sorted.size() ? sorted[i] : kInvalidPageId;
          continue;
        }
        break;
      }
      Frame& fr = frames_[frame];
      // Pinned with the claim until the run is written.
      fr.state.fetch_add(1, std::memory_order_acquire);
      fr.flushing = true;
      fr.dirty.store(false, std::memory_order_relaxed);  // claimed below
      sh.mu.Unlock();
      fr.latch.LockS();
      std::memcpy(run_buf.get() + static_cast<size_t>(run_len) * page_size_,
                  fr.data.get(), page_size_);
      fr.latch.UnlockS();
      Lsn lsn = HeaderOf(run_buf.get() +
                         static_cast<size_t>(run_len) * page_size_)
                    ->page_lsn;
      max_lsn = std::max(max_lsn, lsn);
      claimed.emplace_back(frame, id);
      ++run_len;
      ++i;
    }
    if (run_len == 0) continue;
    OIR_CRASH_POINT("pool.flushpages.run");
    if (log_flusher_ != nullptr && max_lsn != kInvalidLsn) {
      Status s = log_flusher_->FlushTo(max_lsn);
      if (!s.ok()) {
        release_run(/*wrote=*/false);
        return s;
      }
    }
    OIR_CRASH_POINT("pool.flushpages.wal_flushed");
    GlobalCounters::Get().pool_writebacks.fetch_add(
        run_len, std::memory_order_relaxed);
    Status s;
    {
      obs::WaitScope ws(obs::WaitState::kIoWait);
      s = disk_->WriteMulti(run_start, run_len, run_buf.get());
    }
    release_run(/*wrote=*/s.ok());
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status BufferManager::Prefetch(PageId first, uint32_t count) {
  // Same guard as FlushPages' io_pages: the staged run must fit the pool.
  if (count < 1 || count > pool_frames_) {
    return Status::InvalidArgument("prefetch run outside [1, pool_frames]");
  }
  if (first == kInvalidPageId || first >= disk_->NumPages()) {
    return Status::InvalidArgument("prefetch of invalid page");
  }
  // Read-ahead is speculative, so a run overshooting the device is
  // trimmed, not an error.
  count = std::min(count, disk_->NumPages() - first);

  // Reserve frames for the non-resident pages BEFORE touching the disk.
  // The reservations sit in the page tables as LOADING, so a concurrent
  // fetcher of one of these pages blocks on LOADING instead of issuing
  // its own read — and, crucially, no writer can slip a newer
  // image into the pool between our disk read and the copy-out below
  // (modifying a page requires fetching it first). Resident pages are
  // skipped: the cached copy wins.
  struct Slot {
    PageId id;
    size_t frame;
    uint32_t off;  // page offset inside the staging buffer
  };
  std::vector<Slot> slots;
  slots.reserve(count);
  auto undo = [&](Status why) {
    for (const Slot& s : slots) {
      Shard& sh = ShardOf(s.id);
      MutexLock l(sh.mu);
      Frame& f = frames_[s.frame];
      sh.table.Erase(s.id);
      f.page_id.store(kInvalidPageId, std::memory_order_relaxed);
      f.state.store(kClaimed, std::memory_order_relaxed);
      sh.free_list.push_back(s.frame);
      NotifyAll(sh);
    }
    return why;
  };
  for (uint32_t i = 0; i < count; ++i) {
    const PageId id = first + i;
    Shard& sh = ShardOf(id);
    sh.mu.Lock();
    if (sh.table.Find(id) != PageTable::kNone) {  // cached copy wins
      sh.mu.Unlock();
      continue;
    }
    size_t frame;
    Status alloc = AllocateFrameLocked(sh, id, &frame);
    sh.mu.Unlock();
    if (alloc.IsBusy()) continue;     // another thread just mapped it
    if (alloc.IsNoSpace()) continue;  // best-effort: shard full of pins
    // Unlock before undo(): it takes the shard mutex of every reserved
    // slot, which can include this very shard.
    if (!alloc.ok()) return undo(alloc);
    slots.push_back(Slot{id, frame, i});
  }
  if (slots.empty()) return Status::OK();  // fully resident: no I/O at all

  // One large transfer covering the whole span (resident gaps are read
  // into the staging buffer and simply not copied out), then distribute.
  std::unique_ptr<char[]> stage(
      new char[static_cast<size_t>(count) * page_size_]);
  Status rs;
  {
    obs::WaitScope ws(obs::WaitState::kIoWait);
    rs = disk_->ReadPages(first, count, stage.get());
  }
  if (!rs.ok()) return undo(rs);
  auto& c = GlobalCounters::Get();
  for (const Slot& s : slots) {
    // Frame is mapped and LOADING: stable without the lock.
    std::memcpy(frames_[s.frame].data.get(),
                stage.get() + static_cast<size_t>(s.off) * page_size_,
                page_size_);
    Shard& sh = ShardOf(s.id);
    MutexLock l(sh.mu);
    frames_[s.frame].state.store(0, std::memory_order_release);
    c.pool_prefetched.fetch_add(1, std::memory_order_relaxed);
    NotifyAll(sh);
  }
  return Status::OK();
}

void BufferManager::Discard(PageId id) {
  Shard& sh = ShardOf(id);
  MutexLock lk(sh.mu);
  for (;;) {
    const size_t idx = sh.table.Find(id);
    if (idx == PageTable::kNone) return;
    Frame& f = frames_[idx];
    if (f.InFlux()) {
      WaitOn(sh);
      continue;
    }
    // A reader (e.g. a scan repositioning itself) may hold a short pin on
    // a page being freed; wait for it to drain.
    if (WaitForPins(sh, f) || !Claim(f)) continue;
    f.dirty.store(false, std::memory_order_relaxed);
    f.latch.Invalidate();
    f.page_id.store(kInvalidPageId, std::memory_order_relaxed);
    sh.table.Erase(id);
    sh.free_list.push_back(idx);
    return;
  }
}

void BufferManager::DropAll() {
  // Queued write-backs must not run against the post-crash pool (and an
  // in-progress one holds a pin, which the loop below forbids).
  CancelWriteBack();
  for (Shard& sh : shards_) {
    MutexLock l(sh.mu);
    for (size_t i = sh.start; i < sh.start + sh.count; ++i) {
      Frame& f = frames_[i];
      if (f.page_id.load(std::memory_order_relaxed) == kInvalidPageId) {
        continue;  // already free
      }
      const bool claimed = Claim(f);
      OIR_CHECK(claimed);  // every page must be unpinned
      f.dirty.store(false, std::memory_order_relaxed);
      f.latch.Invalidate();
      f.page_id.store(kInvalidPageId, std::memory_order_relaxed);
      sh.free_list.push_back(i);
    }
    sh.table.Clear();
  }
}

size_t BufferManager::CachedPages() const {
  size_t total = 0;
  for (const Shard& sh : shards_) {
    MutexLock l(sh.mu);
    total += sh.table.size();
  }
  return total;
}

size_t BufferManager::PinnedFrames() const {
  size_t pinned = 0;
  for (size_t i = 0; i < pool_frames_; ++i) {
    if ((frames_[i].state.load(std::memory_order_acquire) & kPinMask) != 0) {
      ++pinned;
    }
  }
  return pinned;
}

}  // namespace oir
