#ifndef OIR_STORAGE_DISK_H_
#define OIR_STORAGE_DISK_H_

// Disk abstraction. The paper ran on real disks of a Sun Ultra-SPARC; we
// substitute an abstraction with a memory-backed implementation (MemDisk,
// used by tests and benchmarks for determinism) and a POSIX-file-backed one
// (FileDisk). Both count I/O operations and support multi-page transfers so
// the Section 6.3 experiment (large-buffer I/O reduces the number of disk
// operations) can be reproduced: a ReadMulti/WriteMulti of n pages counts as
// a single I/O op, the way a 16 KB buffer-pool I/O did in ASE.

#include <cstdint>
#include <memory>
#include <string>

#include "sync/mutex.h"
#include "util/chunk_store.h"
#include "util/counters.h"
#include "util/status.h"
#include "util/types.h"

namespace oir {

class Disk {
 public:
  explicit Disk(uint32_t page_size) : page_size_(page_size) {}
  virtual ~Disk() = default;

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  uint32_t page_size() const { return page_size_; }

  // Reads/writes one page. `buf` must hold page_size() bytes.
  Status ReadPage(PageId id, char* buf) { return ReadMulti(id, 1, buf); }
  Status WritePage(PageId id, const char* buf) {
    return WriteMulti(id, 1, buf);
  }

  // Transfers `n` contiguous pages starting at `first` as a single I/O op.
  virtual Status ReadMulti(PageId first, uint32_t n, char* buf) = 0;
  virtual Status WriteMulti(PageId first, uint32_t n, const char* buf) = 0;

  // Read-path mirror of the multi-page forced write: one transfer covering
  // a contiguous run. Used by BufferManager::Prefetch for rebuild
  // read-ahead (the Section 6.3 large-buffer discipline, applied to reads).
  Status ReadPages(PageId first, uint32_t n, char* buf) {
    return ReadMulti(first, n, buf);
  }

  // Durability barrier.
  virtual Status Sync() = 0;

  // Capacity in pages; Extend grows the device (zero-filled).
  virtual uint32_t NumPages() const = 0;
  virtual Status Extend(uint32_t new_num_pages) = 0;

 protected:
  void CountIo(uint32_t pages, bool write) {
    auto& c = GlobalCounters::Get();
    c.io_ops.fetch_add(1, std::memory_order_relaxed);
    if (write) {
      c.io_write_ops.fetch_add(1, std::memory_order_relaxed);
      c.pages_written.fetch_add(pages, std::memory_order_relaxed);
    } else {
      c.io_read_ops.fetch_add(1, std::memory_order_relaxed);
      c.pages_read.fetch_add(pages, std::memory_order_relaxed);
    }
  }

  const uint32_t page_size_;
};

// In-memory disk. Supports crash simulation: the buffer pool is discarded by
// the caller while MemDisk retains only what was explicitly written — the
// same durability contract as a real device. Pages live in a ChunkStore
// (util/chunk_store.h) addressed by byte offset: a 1 MiB chunk is allocated
// on the first write into its range, pages never written read as zeros,
// and Extend only raises the page count, so the headroom the space manager
// reserves costs no memory until it is used.
class MemDisk : public Disk {
 public:
  MemDisk(uint32_t page_size, uint32_t initial_pages);

  Status ReadMulti(PageId first, uint32_t n, char* buf) override;
  Status WriteMulti(PageId first, uint32_t n, const char* buf) override;
  Status Sync() override;
  uint32_t NumPages() const override;
  Status Extend(uint32_t new_num_pages) override;

 private:
  mutable Mutex mu_;
  ChunkStore pages_ OIR_GUARDED_BY(mu_);
  uint32_t num_pages_ OIR_GUARDED_BY(mu_);
};

// POSIX file-backed disk.
class FileDisk : public Disk {
 public:
  // Creates/opens `path`. Existing contents are preserved.
  static Status Open(const std::string& path, uint32_t page_size,
                     std::unique_ptr<FileDisk>* out);
  ~FileDisk() override;

  Status ReadMulti(PageId first, uint32_t n, char* buf) override;
  Status WriteMulti(PageId first, uint32_t n, const char* buf) override;
  Status Sync() override;
  uint32_t NumPages() const override;
  Status Extend(uint32_t new_num_pages) override;

 private:
  FileDisk(int fd, uint32_t page_size, uint32_t num_pages);

  const int fd_;
  mutable Mutex mu_;
  uint32_t num_pages_ OIR_GUARDED_BY(mu_);
};

}  // namespace oir

#endif  // OIR_STORAGE_DISK_H_
