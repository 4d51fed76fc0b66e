// Heap bytes held by the in-memory log, MemDisk and the buffer pool. This
// binary replaces the global operator new and delete with versions that
// track live bytes (by malloc_usable_size, so sanitizer builds agree) and
// their high-water mark. It checks that the log grows by chunks instead of
// doubling one buffer, that MemDisk holds memory only where pages were
// written, and that a pool gets a frame's page memory on first use.

#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "storage/buffer_manager.h"
#include "storage/disk.h"
#include "tests/test_util.h"
#include "wal/log_manager.h"

namespace {

std::atomic<int64_t> live{0};
std::atomic<int64_t> peak{0};

void* Track(void* p) {
  if (p == nullptr) return nullptr;
  const int64_t now =
      live.fetch_add(static_cast<int64_t>(malloc_usable_size(p))) +
      static_cast<int64_t>(malloc_usable_size(p));
  int64_t seen = peak.load();
  while (now > seen && !peak.compare_exchange_weak(seen, now)) {
  }
  return p;
}

void Untrack(void* p) {
  if (p == nullptr) return;
  live.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)));
  std::free(p);
}

void* Alloc(std::size_t n) {
  void* p = Track(std::malloc(n == 0 ? 1 : n));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocAligned(std::size_t n, std::align_val_t al) {
  const std::size_t a = static_cast<std::size_t>(al);
  void* p = Track(std::aligned_alloc(a, (n + a - 1) / a * a));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return Alloc(n); }
void* operator new[](std::size_t n) { return Alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return Track(std::malloc(n == 0 ? 1 : n));
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return Track(std::malloc(n == 0 ? 1 : n));
}
void* operator new(std::size_t n, std::align_val_t al) {
  return AllocAligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return AllocAligned(n, al);
}
void operator delete(void* p) noexcept { Untrack(p); }
void operator delete[](void* p) noexcept { Untrack(p); }
void operator delete(void* p, std::size_t) noexcept { Untrack(p); }
void operator delete[](void* p, std::size_t) noexcept { Untrack(p); }
void operator delete(void* p, std::align_val_t) noexcept { Untrack(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Untrack(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Untrack(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Untrack(p);
}

namespace oir {
namespace {

constexpr int64_t kMiB = int64_t{1} << 20;

// Appending 64 MiB of records holds at most 1.1x the appended bytes at any
// moment. A log kept in one doubling std::string held 100.5 MiB in this
// test: its spare capacity, plus the old copy while it reallocates.
TEST(MemoryAllocTest, LogHoldsAboutTheBytesItAppended) {
  LogManager log;
  LogRecord rec;
  rec.type = LogType::kInsert;
  rec.row.assign(200, 'r');
  const int64_t base = live.load();
  peak.store(base);
  while (log.TotalBytesAppended() < 64 * kMiB) log.AppendSystem(&rec);
  const int64_t appended = static_cast<int64_t>(log.TotalBytesAppended());
  const int64_t held = peak.load() - base;
  std::printf("appended %.1f MiB, peak held %.1f MiB\n",
              static_cast<double>(appended) / kMiB,
              static_cast<double>(held) / kMiB);
  EXPECT_LE(held, appended * 11 / 10);
}

// A 32768-frame pool (64 MiB of 2 KiB pages) holds only its frame
// descriptors, page tables and free lists (about 112 B per frame) until
// frames are used; each used frame then adds one page.
TEST(MemoryAllocTest, PoolAllocatesPageMemoryOnFirstUse) {
  constexpr size_t kFrames = 32768;
  MemDisk disk(2048, 1024);
  const int64_t base = live.load();
  BufferManager bm(&disk, kFrames);
  const int64_t constructed = live.load() - base;
  std::printf("constructed pool holds %.2f MiB\n",
              static_cast<double>(constructed) / kMiB);
  EXPECT_LT(constructed, static_cast<int64_t>(kFrames) * 128);
  const int64_t before = live.load();
  for (PageId p = 1; p <= 100; ++p) {
    PageRef ref;
    ASSERT_OK(bm.Create(p, &ref));
  }
  const int64_t used = live.load() - before;
  EXPECT_GE(used, 100 * 2048);
  EXPECT_LT(used, 100 * 2048 * 2);
}

// Extending a MemDisk costs nothing; a write allocates the one chunk it
// lands in.
TEST(MemoryAllocTest, MemDiskAllocatesOnlyWrittenChunks) {
  const int64_t base = live.load();
  MemDisk disk(2048, 16);
  ASSERT_OK(disk.Extend(1u << 20));  // 2 GiB of pages
  EXPECT_LT(live.load() - base, 4096);
  std::string page(2048, 'p');
  ASSERT_OK(disk.WritePage(700000, page.data()));
  const int64_t held = live.load() - base;
  EXPECT_GE(held, kMiB);
  EXPECT_LT(held, 2 * kMiB);
}

}  // namespace
}  // namespace oir
