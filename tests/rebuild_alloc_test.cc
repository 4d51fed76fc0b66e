// Heap allocations of the online rebuild, counted per rebuilt leaf. This
// binary replaces the global operator new with one that counts calls made
// by the thread that runs the rebuild (a thread-local switch), so the WAL
// and write-back workers do not count. The rebuild moves rows as page
// images and slices; what remains per leaf is the lock manager's lock
// entries, one payload string per log append and per-top-action vectors.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "bench/bench_common.h"

namespace {

thread_local bool counting = false;
thread_local uint64_t allocations = 0;

void* CountedAlloc(std::size_t n) {
  if (counting) ++allocations;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  if (counting) ++allocations;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  if (counting) ++allocations;
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace oir::bench {
namespace {

// Table 1's index (half-utilized, 2 KB pages, cold cache) rebuilt at
// ntasize 32, fillfactor 100.
double AllocationsPerOldLeaf(int key_size) {
  auto db = OpenDb();
  BuildHalfUtilizedIndex(db.get(), 30000, key_size);
  ColdCache(db.get());
  RebuildOptions opts;
  opts.ntasize = 32;
  opts.xactsize = 256;
  opts.io_pages = 8;
  RebuildResult res;
  allocations = 0;
  counting = true;
  Status s = db->index()->RebuildOnline(opts, &res);
  counting = false;
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(res.old_leaf_pages, 0u);
  return static_cast<double>(allocations) / res.old_leaf_pages;
}

TEST(RebuildAllocTest, AtMost13AllocationsPerOldLeaf) {
  for (int key_size : {4, 12, 40}) {
    const double per_leaf = AllocationsPerOldLeaf(key_size);
    std::printf("key %2d B: %.2f allocations per old leaf\n", key_size,
                per_leaf);
    EXPECT_LE(per_leaf, 13.0) << "key " << key_size << " B";
  }
}

}  // namespace
}  // namespace oir::bench
