// Disk and buffer manager tests: I/O counting, multi-page transfers,
// pin/unpin lifecycle, eviction with WAL constraint, crash-drop semantics,
// concurrent fetches.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>

#include "storage/buffer_manager.h"
#include "storage/disk.h"
#include "storage/slotted_page.h"
#include "sync/latch.h"
#include "tests/test_util.h"
#include "util/chunk_store.h"
#include "util/counters.h"
#include "wal/log_manager.h"

namespace oir {
namespace {

TEST(MemDiskTest, ReadWriteRoundTrip) {
  MemDisk disk(512, 16);
  std::string data(512, 'a');
  ASSERT_OK(disk.WritePage(3, data.data()));
  std::string got(512, 0);
  ASSERT_OK(disk.ReadPage(3, got.data()));
  EXPECT_EQ(got, data);
}

TEST(MemDiskTest, OutOfRangeRejected) {
  MemDisk disk(512, 4);
  char buf[512];
  EXPECT_TRUE(disk.ReadPage(4, buf).IsIOError());
  EXPECT_TRUE(disk.WritePage(100, buf).IsIOError());
  ASSERT_OK(disk.Extend(101));
  ASSERT_OK(disk.WritePage(100, buf));
}

TEST(MemDiskTest, MultiPageTransferCountsOneIo) {
  MemDisk disk(512, 32);
  auto before = GlobalCounters::Get().Snapshot();
  std::string data(512 * 8, 'z');
  ASSERT_OK(disk.WriteMulti(0, 8, data.data()));
  auto delta = GlobalCounters::Get().Snapshot() - before;
  EXPECT_EQ(delta.io_ops, 1u);
  EXPECT_EQ(delta.pages_written, 8u);
}

TEST(MemDiskTest, MultiPageTransferAcrossChunkBoundary) {
  // 3000-byte pages: page boundaries and 1 MiB chunk boundaries disagree.
  constexpr uint32_t kPage = 3000;
  MemDisk disk(kPage, 2000);
  const PageId first = ChunkStore::kChunkBytes / kPage - 3;
  std::string data(kPage * 8, '\0');
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i * 31);
  ASSERT_OK(disk.WriteMulti(first, 8, data.data()));
  std::string got(kPage * 10, 'x');
  ASSERT_OK(disk.ReadMulti(first - 1, 10, got.data()));
  EXPECT_EQ(got.substr(0, kPage), std::string(kPage, '\0'));
  EXPECT_EQ(got.substr(kPage, data.size()), data);
  EXPECT_EQ(got.substr(kPage * 9), std::string(kPage, '\0'));
}

TEST(MemDiskTest, NeverWrittenPagesReadAsZeros) {
  MemDisk disk(2048, 4096);
  std::string page(2048, 'w');
  ASSERT_OK(disk.WritePage(3000, page.data()));
  std::string got(2048 * 3, 'x');
  ASSERT_OK(disk.ReadMulti(2999, 3, got.data()));
  EXPECT_EQ(got.substr(0, 2048), std::string(2048, '\0'));
  EXPECT_EQ(got.substr(2048, 2048), page);
  EXPECT_EQ(got.substr(4096), std::string(2048, '\0'));
  ASSERT_OK(disk.ReadPage(0, got.data()));
  EXPECT_EQ(got.substr(0, 2048), std::string(2048, '\0'));
}

TEST(MemDiskTest, ExtendKeepsContents) {
  MemDisk disk(2048, 600);
  std::string a(2048 * 2, 'a');
  ASSERT_OK(disk.WriteMulti(511, 2, a.data()));
  ASSERT_OK(disk.Extend(5000));
  EXPECT_EQ(disk.NumPages(), 5000u);
  std::string b(2048, 'b');
  ASSERT_OK(disk.WritePage(4999, b.data()));
  std::string got(2048 * 2, 'x');
  ASSERT_OK(disk.ReadMulti(511, 2, got.data()));
  EXPECT_EQ(got, a);
  ASSERT_OK(disk.ReadPage(4999, got.data()));
  EXPECT_EQ(got.substr(0, 2048), b);
  ASSERT_OK(disk.ReadPage(4000, got.data()));
  EXPECT_EQ(got.substr(0, 2048), std::string(2048, '\0'));
}

TEST(FileDiskTest, PersistsAcrossReopen) {
  std::string path = ::testing::TempDir() + "/oir_filedisk_test.db";
  std::remove(path.c_str());
  {
    std::unique_ptr<FileDisk> disk;
    ASSERT_OK(FileDisk::Open(path, 512, &disk));
    ASSERT_OK(disk->Extend(8));
    std::string data(512, 'q');
    ASSERT_OK(disk->WritePage(5, data.data()));
    ASSERT_OK(disk->Sync());
  }
  {
    std::unique_ptr<FileDisk> disk;
    ASSERT_OK(FileDisk::Open(path, 512, &disk));
    EXPECT_EQ(disk->NumPages(), 8u);
    std::string got(512, 0);
    ASSERT_OK(disk->ReadPage(5, got.data()));
    EXPECT_EQ(got, std::string(512, 'q'));
  }
  std::remove(path.c_str());
}

class BufferManagerTest : public ::testing::Test {
 protected:
  BufferManagerTest() : disk_(512, 256), bm_(&disk_, 16) {}

  void WritePattern(PageId id, char fill) {
    PageRef ref;
    ASSERT_OK(bm_.Create(id, &ref));
    ref.latch().LockX();
    SlottedPage sp(ref.data(), 512);
    sp.Init(id, kLeafLevel);
    std::string row(64, fill);
    ASSERT_TRUE(sp.InsertAt(0, Slice(row)));
    ref.latch().UnlockX();
    ref.MarkDirty();
  }

  char ReadPattern(PageId id) {
    PageRef ref;
    Status s = bm_.Fetch(id, &ref);
    EXPECT_TRUE(s.ok()) << s.ToString();
    ref.latch().LockS();
    SlottedPage sp(ref.data(), 512);
    char c = sp.Get(0)[0];
    ref.latch().UnlockS();
    return c;
  }

  MemDisk disk_;
  BufferManager bm_;
};

TEST_F(BufferManagerTest, CreateFetchRoundTrip) {
  WritePattern(10, 'x');
  EXPECT_EQ(ReadPattern(10), 'x');
  EXPECT_EQ(bm_.CachedPages(), 1u);
}

TEST_F(BufferManagerTest, EvictionWritesBackDirtyPages) {
  // Fill more pages than the pool holds; early ones get evicted and must
  // be readable again from disk.
  for (PageId p = 1; p <= 64; ++p) {
    WritePattern(p, static_cast<char>('a' + (p % 26)));
  }
  EXPECT_LE(bm_.CachedPages(), 16u);
  for (PageId p = 1; p <= 64; ++p) {
    EXPECT_EQ(ReadPattern(p), static_cast<char>('a' + (p % 26))) << p;
  }
}

TEST_F(BufferManagerTest, PinnedPagesNotEvicted) {
  PageRef pinned;
  ASSERT_OK(bm_.Create(1, &pinned));
  pinned.latch().LockX();
  SlottedPage sp(pinned.data(), 512);
  sp.Init(1, kLeafLevel);
  sp.InsertAt(0, Slice("pinned-row"));
  pinned.latch().UnlockX();
  pinned.MarkDirty();
  // Churn through many other pages.
  for (PageId p = 2; p <= 64; ++p) WritePattern(p, 'y');
  // Our pinned frame must still hold the same content.
  SlottedPage sp2(pinned.data(), 512);
  EXPECT_EQ(sp2.Get(0).ToString(), "pinned-row");
  pinned.Release();
}

TEST_F(BufferManagerTest, PoolExhaustionReportsNoSpace) {
  std::vector<PageRef> pins;
  for (PageId p = 1; p <= 16; ++p) {
    PageRef ref;
    ASSERT_OK(bm_.Create(p, &ref));
    pins.push_back(std::move(ref));
  }
  PageRef extra;
  EXPECT_TRUE(bm_.Fetch(100, &extra).IsNoSpace() ||
              bm_.Create(100, &extra).IsNoSpace());
}

TEST_F(BufferManagerTest, WalConstraintFlushesLogFirst) {
  LogManager log;
  bm_.SetLogFlusher(&log);
  // Append a record, stamp a page with its LSN, flush the page: the log's
  // durable boundary must cover the pageLSN afterwards.
  TxnContext ctx{1, kInvalidLsn};
  LogRecord rec;
  rec.type = LogType::kFormatPage;
  rec.page_id = 1;
  Lsn lsn = log.Append(&rec, &ctx);
  PageRef ref;
  ASSERT_OK(bm_.Create(1, &ref));
  ref.latch().LockX();
  SlottedPage sp(ref.data(), 512);
  sp.Init(1, kLeafLevel);
  sp.header()->page_lsn = lsn;
  ref.latch().UnlockX();
  ref.MarkDirty();
  ref.Release();
  EXPECT_LT(log.durable_lsn(), lsn + 1);
  ASSERT_OK(bm_.FlushPage(1));
  EXPECT_GT(log.durable_lsn(), lsn);
}

TEST_F(BufferManagerTest, DiscardDropsWithoutWriting) {
  WritePattern(7, 'd');
  bm_.Discard(7);
  EXPECT_EQ(bm_.CachedPages(), 0u);
  // Disk never saw the page (it was dirty, never flushed): reads zeros.
  PageRef ref;
  ASSERT_OK(bm_.Fetch(7, &ref));
  EXPECT_EQ(HeaderOf(ref.data())->page_id, 0u);
}

TEST_F(BufferManagerTest, DropAllSimulatesCrash) {
  WritePattern(1, 'a');
  ASSERT_OK(bm_.FlushPage(1));
  WritePattern(2, 'b');  // never flushed
  bm_.DropAll();
  EXPECT_EQ(bm_.CachedPages(), 0u);
  EXPECT_EQ(ReadPattern(1), 'a');  // survived on disk
  PageRef ref;
  ASSERT_OK(bm_.Fetch(2, &ref));
  EXPECT_EQ(HeaderOf(ref.data())->page_id, 0u);  // lost
}

TEST_F(BufferManagerTest, FlushPagesGroupsContiguousRuns) {
  for (PageId p = 10; p < 26; ++p) WritePattern(p, 'r');
  auto before = GlobalCounters::Get().Snapshot();
  std::vector<PageId> ids;
  for (PageId p = 10; p < 26; ++p) ids.push_back(p);
  ASSERT_OK(bm_.FlushPages(ids, /*io_pages=*/8));
  auto delta = GlobalCounters::Get().Snapshot() - before;
  // 16 contiguous pages at 8 pages/IO = 2 I/O operations.
  EXPECT_EQ(delta.io_ops, 2u);
  EXPECT_EQ(delta.pages_written, 16u);
}

TEST_F(BufferManagerTest, FlushPagesSingletonIos) {
  for (PageId p : {30u, 40u, 50u}) WritePattern(p, 's');
  auto before = GlobalCounters::Get().Snapshot();
  ASSERT_OK(bm_.FlushPages({30, 40, 50}, 8));
  auto delta = GlobalCounters::Get().Snapshot() - before;
  EXPECT_EQ(delta.io_ops, 3u);  // non-contiguous: one each
}

TEST_F(BufferManagerTest, ConcurrentFetchesOfSamePage) {
  WritePattern(5, 'c');
  ASSERT_OK(bm_.FlushPage(5));
  bm_.DropAll();
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        PageRef ref;
        Status s = bm_.Fetch(5, &ref);
        if (s.ok()) {
          ref.latch().LockS();
          SlottedPage sp(ref.data(), 512);
          if (sp.Get(0)[0] == 'c') ++ok;
          ref.latch().UnlockS();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), 8 * 200);
}

TEST_F(BufferManagerTest, ConcurrentDistinctPagesWithEviction) {
  for (PageId p = 1; p <= 64; ++p) WritePattern(p, static_cast<char>('a' + p % 26));
  ASSERT_OK(bm_.FlushAll());
  const uint64_t seed = test::TestSeed(1);
  OIR_SCOPED_SEED_TRACE(seed);
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      Random rnd(seed + t);
      for (int i = 0; i < 500; ++i) {
        PageId p = static_cast<PageId>(rnd.Range(1, 64));
        PageRef ref;
        Status s = bm_.Fetch(p, &ref);
        if (!s.ok()) {
          ++errors;
          continue;
        }
        ref.latch().LockS();
        SlottedPage sp(ref.data(), 512);
        if (sp.Get(0)[0] != static_cast<char>('a' + p % 26)) ++errors;
        ref.latch().UnlockS();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
}

// The latch's version word moves on every X release and never on S.
TEST(LatchVersionTest, MovesOnUnlockXAndInvalidateNotOnS) {
  Latch l;
  const uint64_t v0 = l.version();
  l.LockS();
  l.UnlockS();
  ASSERT_TRUE(l.TryLockS());
  l.UnlockS();
  EXPECT_EQ(l.version(), v0);
  l.LockX();
  EXPECT_EQ(l.version(), v0);  // the holder's changes publish at UnlockX
  l.UnlockX();
  const uint64_t v1 = l.version();
  EXPECT_NE(v1, v0);
  ASSERT_TRUE(l.TryLockX());
  l.UnlockX();
  EXPECT_NE(l.version(), v1);
  const uint64_t v2 = l.version();
  l.Invalidate();
  EXPECT_NE(l.version(), v2);
}

// Records a cached page's frame latch and its version. Frames outlive
// their pages, so the latch stays readable after the page leaves.
struct FrameVersion {
  const Latch* latch;
  uint64_t version;
  bool moved() const { return latch->version() != version; }
};

FrameVersion VersionOf(BufferManager* bm, PageId id) {
  PageRef ref;
  Status s = bm->Fetch(id, &ref);
  EXPECT_TRUE(s.ok()) << s.ToString();
  ref.latch().LockS();
  FrameVersion fv{&ref.latch(), ref.latch().version()};
  ref.latch().UnlockS();
  return fv;
}

// The frame's version moves whenever the frame stops holding the bytes a
// reader saw, including every path that rewrites them without the X latch.
TEST_F(BufferManagerTest, FrameVersionMovesWhenFrameStopsHoldingPage) {
  for (PageId p = 1; p <= 40; ++p) WritePattern(p, 'v');
  ASSERT_OK(bm_.FlushAll());

  // S latching (a reader) leaves it alone.
  FrameVersion fv = VersionOf(&bm_, 1);
  EXPECT_EQ(ReadPattern(1), 'v');
  EXPECT_FALSE(fv.moved());

  // Eviction by fetch misses: the pool has 16 frames and the churn only
  // reads, so no X latch is ever released on the reused frame.
  for (PageId p = 2; p <= 40; ++p) ReadPattern(p);
  EXPECT_TRUE(fv.moved()) << "eviction";

  // Read-ahead reuses every unpinned frame for pages not yet cached.
  fv = VersionOf(&bm_, 40);
  ASSERT_OK(bm_.Prefetch(100, 16));
  EXPECT_TRUE(fv.moved()) << "prefetch";

  // Create over a stale cached copy zero-fills the frame in place.
  fv = VersionOf(&bm_, 100);
  {
    PageRef ref;
    ASSERT_OK(bm_.Create(100, &ref));
    EXPECT_EQ(&ref.latch(), fv.latch);  // the same frame, reused
    EXPECT_TRUE(fv.moved()) << "create";
  }

  // Discard drops the page without touching the bytes.
  fv = VersionOf(&bm_, 101);
  bm_.Discard(101);
  EXPECT_TRUE(fv.moved()) << "discard";

  // A fetch miss served from the free list (the discarded frame).
  fv.version = fv.latch->version();
  {
    PageRef ref;
    ASSERT_OK(bm_.Fetch(150, &ref));
    EXPECT_EQ(&ref.latch(), fv.latch);
    EXPECT_TRUE(fv.moved()) << "free-list reuse";
  }

  // DropAll (crash simulation) drops every page.
  fv = VersionOf(&bm_, 102);
  bm_.DropAll();
  EXPECT_TRUE(fv.moved()) << "drop all";
}

}  // namespace
}  // namespace oir
