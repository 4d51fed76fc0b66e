#ifndef OIR_STORAGE_BUFFER_MANAGER_H_
#define OIR_STORAGE_BUFFER_MANAGER_H_

// Buffer manager: a fixed pool of page frames over a Disk, with pin/unpin,
// clock eviction, dirty tracking, and the write-ahead-logging constraint
// (the log is flushed up to a page's pageLSN before the page is written
// back). Page latches live in the frames; a page can only be latched while
// pinned, so a latch holder always has a stable frame. Each latch carries a
// version word (sync/latch.h): the pool invalidates it wherever it remaps a
// frame or rewrites the frame's bytes without the X latch, so an unchanged
// version proves a frame still holds the bytes a reader copied.
//
// Frames get their page memory on first use (AllocateFrameLocked), so a
// pool sized beyond the working set costs only its frame descriptors.
//
// The pool is partitioned into N shards (power of two, pages hashed on
// PageId): each shard owns a fixed slice of the frames and has its own
// mutex, page table, free list and clock hand. Whole-pool operations
// (FlushAll, DropAll, CachedPages) iterate the shards.
//
// Hits take no mutex. Each frame has one atomic state word: a pin count
// plus the LOADING bit (a read into the frame is in flight), the CLAIMED
// bit (the frame is free, or being evicted, reused or dropped) and the
// WAITER bit (someone waits for the pins to drain). A shard's page table
// is a flat open-addressed array of atomic (page, frame) words that only
// the shard mutex holder changes and that Fetch probes without it. Fetch's
// hit path probes the table, CAS-increments the pin unless LOADING or
// CLAIMED is set, and re-checks the frame's page id; on a miss, a set bit
// or a mismatch it drops the pin and takes the locked path. Release is one
// atomic decrement; it takes the shard mutex only to wake a WAITER.
// Everything that remaps a frame (eviction, Discard, Create's reuse of a
// stale frame, DropAll) first claims it by CAS from "no pins, no bits" to
// CLAIMED under the shard mutex, so a pinned frame is never remapped and
// an optimistic pin never lands on a claimed one.
//
// The paper's rebuild relies on three buffer-manager behaviours implemented
// here:
//   * "forced write" of the new pages at the end of each rebuild
//     transaction, before the old pages are freed (Section 3) — FlushPages;
//   * large-buffer I/O: FlushPages groups physically contiguous pages into
//     multi-page transfers, emulating the 16 KB buffer pool of Section 6.3;
//   * read-ahead: Prefetch pulls a physically contiguous run of pages into
//     frames with one multi-page transfer — the read-path twin of
//     FlushPages, used by the rebuild's copy phase.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_set>
#include <vector>

#include "obs/waitstate.h"
#include "storage/disk.h"
#include "storage/page.h"
#include "sync/latch.h"
#include "sync/mutex.h"
#include "util/status.h"
#include "util/types.h"

namespace oir {

// Implemented by the log manager; breaks the storage→wal dependency.
class LogFlusher {
 public:
  virtual ~LogFlusher() = default;
  virtual Status FlushTo(Lsn lsn) = 0;
};

class BufferManager;

// A pinned page. Move-only; unpins on destruction. Latching is explicit:
// callers acquire/release via latch() following the ordering rules of
// Section 6.5.
class PageRef {
 public:
  PageRef() : bm_(nullptr), frame_(SIZE_MAX), id_(kInvalidPageId) {}
  PageRef(PageRef&& o) noexcept { MoveFrom(&o); }
  PageRef& operator=(PageRef&& o) noexcept {
    if (this != &o) {
      Release();
      MoveFrom(&o);
    }
    return *this;
  }
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  ~PageRef() { Release(); }

  bool valid() const { return bm_ != nullptr; }
  PageId id() const { return id_; }

  char* data();
  const char* data() const;
  PageHeader* header() { return HeaderOf(data()); }
  const PageHeader* header() const { return HeaderOf(data()); }
  Latch& latch();

  // Marks the frame dirty. Call while holding the X latch, after modifying
  // the page and stamping its page_lsn.
  void MarkDirty();

  // Explicitly releases the pin (also done by the destructor).
  void Release();

 private:
  friend class BufferManager;
  PageRef(BufferManager* bm, size_t frame, PageId id)
      : bm_(bm), frame_(frame), id_(id) {}

  void MoveFrom(PageRef* o) {
    bm_ = o->bm_;
    frame_ = o->frame_;
    id_ = o->id_;
    o->bm_ = nullptr;
    o->frame_ = SIZE_MAX;
    o->id_ = kInvalidPageId;
  }

  BufferManager* bm_;
  size_t frame_;
  PageId id_;
};

class BufferManager {
 public:
  // `shards` must be a power of two, or 0 to pick automatically (scaled to
  // the pool: one shard per 16 frames, at most 8). Every shard gets an
  // equal slice of `pool_frames`; a shard whose frames are all pinned
  // reports NoSpace even if other shards have room, so shards are kept
  // large relative to the number of pages a single operation pins.
  BufferManager(Disk* disk, size_t pool_frames, size_t shards = 0);
  ~BufferManager();

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  void SetLogFlusher(LogFlusher* flusher) { log_flusher_ = flusher; }

  uint32_t page_size() const { return page_size_; }
  Disk* disk() { return disk_; }
  size_t pool_frames() const { return pool_frames_; }
  size_t num_shards() const { return shards_.size(); }

  // Pins the page, reading it from disk if absent.
  Status Fetch(PageId id, PageRef* out);

  // Pins a frame for a freshly allocated page without reading the disk
  // (free pages have no meaningful content). The buffer is zero-filled; the
  // caller formats it. Any stale cached frame for this id is replaced.
  Status Create(PageId id, PageRef* out);

  // Writes the page back if dirty (honoring the WAL constraint). The page
  // stays cached.
  Status FlushPage(PageId id);

  // Flushes all dirty pages.
  Status FlushAll();

  // Forced write of a specific set of pages. Physically contiguous ids are
  // grouped into transfers of up to io_pages pages each (io_pages >= 1,
  // and at most pool_frames(): the run buffer must not exceed the pool).
  Status FlushPages(const std::vector<PageId>& ids, uint32_t io_pages);

  // Read-ahead: pulls the physically contiguous run [first, first+count)
  // into frames with one multi-page disk transfer. Pages already cached
  // keep their (possibly newer) frame; the staged copy is dropped. Pages
  // are left unpinned. Best-effort: if the target shard has no evictable
  // frame the remaining pages are simply not cached. count must not
  // exceed pool_frames().
  Status Prefetch(PageId first, uint32_t count);

  // Drops a (clean or dirty) page from the cache without writing it. Used
  // when a page transitions to the free state — its content is dead. The
  // page must be unpinned.
  void Discard(PageId id);

  // Background write-back: a dedicated worker cleans dirty frames off the
  // foreground path. Evictions prefer clean victims and hand dirty frames
  // they scan past to the worker (so the next eviction finds them clean),
  // and FlushAll routes its dirty set through the worker as one batch with
  // a completion barrier. The WAL-before-data constraint is preserved: the
  // worker flushes the log to the page's LSN before writing, exactly like
  // the inline path. Start after SetLogFlusher; Stop drains the queue and
  // joins (callers must stop the worker before the log flusher dies).
  void StartWriteBack();
  void StopWriteBack();

  // Crash simulation: discards every frame without writing anything. All
  // pages must be unpinned. Cancels queued background write-backs and waits
  // out any in-progress one first (its write may still reach the disk — a
  // real crash races the same way; recovery handles it).
  void DropAll();

  // Test hooks: number of distinct pages currently cached, and of frames
  // that hold a pin.
  size_t CachedPages() const;
  size_t PinnedFrames() const;

 private:
  friend class PageRef;

  // Frame::state: pin count in the low bits, plus three flags.
  static constexpr uint32_t kPinMask = (1u << 29) - 1;
  static constexpr uint32_t kWaiter = 1u << 29;   // wake on last unpin
  static constexpr uint32_t kLoading = 1u << 30;  // read in flight
  static constexpr uint32_t kClaimed = 1u << 31;  // free or being remapped

  struct Frame {
    // Pins and flags (above). Pins are taken by CAS without the shard
    // mutex; the flags change only under it. A free frame is CLAIMED.
    std::atomic<uint32_t> state{kClaimed};
    // Changes only while CLAIMED or LOADING, under the shard mutex; stable
    // while pinned.
    std::atomic<PageId> page_id{kInvalidPageId};
    std::atomic<bool> dirty{false};  // lock-free: set by MarkDirty
    std::atomic<bool> ref{false};    // clock reference bit, set by hits
    // A flusher holds a parked snapshot of this page (guarded by the shard
    // mutex; always held together with a pin). At most one flusher may be
    // between snapshot and disk write per page: the snapshot→write span
    // blocks on a WAL flush, and a second flusher slipping a newer image
    // onto disk inside that span would let the first WRITE REGRESS the
    // disk image — fatal after a checkpoint has bounded the redo scan on
    // the newer image being durable.
    bool flushing = false;
    Latch latch;
    // The page bytes: a block of its own, allocated by the first
    // AllocateFrameLocked that takes the frame off the free list and kept
    // for the pool's life. Null while the frame was never used.
    std::unique_ptr<char[]> data;

    // LOADING or CLAIMED: neither pinnable nor claimable until it settles.
    bool InFlux() const {
      const uint32_t s = state.load(std::memory_order_relaxed);
      return (s & (kLoading | kClaimed)) != 0;
    }
  };

  // A shard's page -> frame map: open addressing with linear probing and
  // backward-shift deletion, at most half full. Each slot is one atomic
  // word (page << 32 | frame, 0 when empty), so a reader without the shard
  // mutex sees a whole mapping or none. Insert, Erase and Clear run only
  // under the shard mutex. A lock-free Find racing an Erase's shift may
  // miss a present page; the hit path then takes the locked path, where
  // Find is exact.
  class PageTable {
   public:
    static constexpr size_t kNone = SIZE_MAX;

    explicit PageTable(size_t frames);
    size_t Find(PageId id) const;
    void Insert(PageId id, size_t frame);  // id must be absent
    void Erase(PageId id);                 // id must be present
    void Clear();
    size_t size() const { return size_; }

   private:
    size_t Home(PageId id) const {
      // Fibonacci hashing on the high bits: independent of the low bits
      // that picked the shard.
      return static_cast<size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
    }

    std::unique_ptr<std::atomic<uint64_t>[]> slots_;
    size_t mask_ = 0;
    int shift_ = 64;
    size_t size_ = 0;
  };

  // One partition of the pool: owns frames [start, start+count) of frames_.
  // start, count and the table's capacity are fixed at construction;
  // everything else is guarded by the shard mutex (the table and the frame
  // pins are also read without it, see above). The Frame fields cannot
  // carry OIR_GUARDED_BY: which shard guards a frame is a property of the
  // page mapped into it, which the static analysis cannot name.
  struct Shard {
    explicit Shard(size_t frames) : count(frames), table(frames) {}

    mutable Mutex mu;
    CondVar cv;
    // Skip notify when zero.
    size_t cv_waiters OIR_GUARDED_BY(mu) = 0;
    size_t start = 0;
    const size_t count;
    PageTable table;
    // Global frame indices.
    std::vector<size_t> free_list OIR_GUARDED_BY(mu);
    // Local offset within [start, start+count).
    size_t clock_hand OIR_GUARDED_BY(mu) = 0;
  };

  Shard& ShardOf(PageId id) {
    // Multiplicative hash (odd constant => a bijection on the low bits):
    // contiguous page runs spread across shards.
    return shards_[(id * 2654435761u) & shard_mask_];
  }

  static void WaitOn(Shard& s) OIR_REQUIRES(s.mu) {
    ++s.cv_waiters;
    // Shard CV waits are waits on another thread's I/O (frame loading, a
    // flushing claim, pins draining ahead of reuse).
    obs::WaitScope ws(obs::WaitState::kIoWait);
    s.cv.Wait(s.mu);
    --s.cv_waiters;
  }
  static void NotifyAll(Shard& s) OIR_REQUIRES(s.mu) {
    if (s.cv_waiters != 0) s.cv.NotifyAll();
  }

  // Drops one pin; wakes the shard's waiters if a WAITER sees the last pin
  // go. Must not be called with the shard mutex held.
  void Unpin(size_t frame, PageId id);

  // Hit path: pins `frame` if it is neither LOADING nor CLAIMED and still
  // holds `id`. Takes no mutex.
  bool TryPin(size_t frame, PageId id);

  // Claims an unpinned frame with no LOADING or CLAIMED bit (a stale
  // WAITER bit is dropped). Shard mutex held; fails if a pin got there
  // first.
  static bool Claim(Frame& f);

  // Sets WAITER and waits once on the shard CV if `f` is pinned. Returns
  // whether it waited (the caller then re-probes).
  static bool WaitForPins(Shard& s, Frame& f) OIR_REQUIRES(s.mu);

  // Finds a frame to (re)use in `shard`. Called with the shard mutex held;
  // may release and reacquire it around eviction I/O (it is held again on
  // every return path). On success the frame is mapped to `for_page` with
  // state LOADING and one pin.
  Status AllocateFrameLocked(Shard& shard, PageId for_page, size_t* out_frame)
      OIR_REQUIRES(shard.mu);

  // Writes the frame's page to disk (WAL constraint honored). The frame's
  // latch is taken in S mode internally to get a consistent image. Must be
  // called without holding the shard mutex and with the frame protected
  // from reuse (pinned or claimed).
  Status WriteBack(size_t frame);

  // ---- background write-back ----
  // A FlushAll barrier: one batch per call, completed when every page of
  // the batch has been processed (or the batch was canceled).
  struct WbBatch {
    size_t remaining OIR_GUARDED_BY(wb_mu_) = 0;
    Status status OIR_GUARDED_BY(wb_mu_);
  };
  struct WbItem {
    PageId id = kInvalidPageId;
    WbBatch* batch = nullptr;  // null for eviction-triggered items
  };
  void WriteBackLoop();
  // Dedup'd enqueue for the eviction path; no-op when the worker is off.
  // Takes wb_mu_ internally — safe with a shard mutex held (the worker
  // never holds wb_mu_ while taking a shard mutex).
  void EnqueueWriteBack(PageId id);
  // Drops queued items and waits for the in-flight one; leaves the worker
  // running. Canceled batch waiters see Busy.
  void CancelWriteBack();
  bool wb_running() const { return wb_thread_.joinable(); }

  Disk* const disk_;
  const uint32_t page_size_;
  LogFlusher* log_flusher_ = nullptr;

  // One contiguous array: a frame is one index away, and never moves.
  std::unique_ptr<Frame[]> frames_;
  size_t pool_frames_ = 0;
  std::deque<Shard> shards_;
  uint32_t shard_mask_ = 0;  // num shards - 1 (power of two)

  mutable Mutex wb_mu_;
  CondVar wb_cv_;       // wakes the worker
  CondVar wb_done_cv_;  // wakes batch waiters and CancelWriteBack
  std::deque<WbItem> wb_queue_ OIR_GUARDED_BY(wb_mu_);
  // Ids with a pending eviction-triggered item (batch items may duplicate).
  std::unordered_set<PageId> wb_queued_ids_ OIR_GUARDED_BY(wb_mu_);
  size_t wb_in_progress_ OIR_GUARDED_BY(wb_mu_) = 0;
  bool wb_stop_ OIR_GUARDED_BY(wb_mu_) = false;
  // Started/joined from the owner's single-threaded setup/teardown.
  std::thread wb_thread_;
};

}  // namespace oir

#endif  // OIR_STORAGE_BUFFER_MANAGER_H_
