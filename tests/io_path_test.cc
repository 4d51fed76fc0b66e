// Tests for the scalable I/O path: the sharded buffer pool under
// multi-threaded stress, read-ahead (Prefetch) correctness, WAL group
// commit (concurrent committers, durability across a crash), and the
// io_pages-vs-pool-size validation shared by the forced write and the
// prefetch path.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/rebuild.h"
#include "storage/buffer_manager.h"
#include "storage/disk.h"
#include "tests/test_util.h"
#include "util/counters.h"
#include "util/random.h"
#include "wal/log_manager.h"

namespace oir {
namespace {

using test::NumKey;

constexpr uint32_t kPage = 512;

// Byte offset past the page header: tests stamp page_lsn into the header,
// so the verifiable pattern starts after it.
constexpr uint32_t kBody = 64;

// Fills the page body with a pattern derived from the page id.
void FillPattern(char* buf, PageId id) {
  for (uint32_t i = kBody; i < kPage; ++i) {
    buf[i] = static_cast<char>((id * 31 + i) & 0xff);
  }
}

bool CheckPattern(const char* buf, PageId id) {
  for (uint32_t i = kBody; i < kPage; ++i) {
    if (buf[i] != static_cast<char>((id * 31 + i) & 0xff)) return false;
  }
  return true;
}

TEST(ShardedPoolTest, AutoShardCountScalesWithPool) {
  MemDisk disk(kPage, 16);
  EXPECT_EQ(BufferManager(&disk, 16).num_shards(), 1u);
  EXPECT_EQ(BufferManager(&disk, 64).num_shards(), 4u);
  EXPECT_EQ(BufferManager(&disk, 1 << 14).num_shards(), 8u);
  // Explicit count wins; 1 restores the single-mutex pool.
  EXPECT_EQ(BufferManager(&disk, 1 << 14, 1).num_shards(), 1u);
  EXPECT_EQ(BufferManager(&disk, 1 << 14, 4).num_shards(), 4u);
}

TEST(ShardedPoolTest, AllFramesReachableAcrossShards) {
  // More distinct pages than frames: every frame must be usable for every
  // page that hashes to its shard, and evictions must write back dirty
  // pages correctly.
  constexpr uint32_t kDiskPages = 256;
  MemDisk disk(kPage, kDiskPages);
  LogManager log;
  BufferManager bm(&disk, /*pool_frames=*/32, /*shards=*/4);
  bm.SetLogFlusher(&log);

  for (PageId p = 1; p < kDiskPages; ++p) {
    PageRef ref;
    ASSERT_OK(bm.Fetch(p, &ref));
    ref.latch().LockX();
    FillPattern(ref.data(), p);
    ref.header()->page_lsn = log.durable_lsn() - 1;  // already durable
    ref.MarkDirty();
    ref.latch().UnlockX();
  }
  ASSERT_OK(bm.FlushAll());
  // Everything must have reached the disk, via eviction or the flush.
  std::vector<char> buf(kPage);
  for (PageId p = 1; p < kDiskPages; ++p) {
    ASSERT_OK(disk.ReadPage(p, buf.data()));
    EXPECT_TRUE(CheckPattern(buf.data(), p)) << "page " << p;
  }
}

TEST(ShardedPoolTest, ConcurrentStress) {
  // 8 threads over a pool far smaller than the page set, so fetches,
  // evictions, write-backs and discards constantly collide across shards.
  constexpr int kThreads = 8;
  constexpr uint32_t kSharedFirst = 1;  // page 0 is kInvalidPageId
  constexpr uint32_t kSharedPages = 96;
  constexpr uint32_t kOwnBase = kSharedFirst + kSharedPages;
  constexpr uint32_t kPerThread = 16;
  constexpr uint32_t kDiskPages = kOwnBase + kThreads * kPerThread;
  MemDisk disk(kPage, kDiskPages);
  LogManager log;
  BufferManager bm(&disk, /*pool_frames=*/48, /*shards=*/4);
  bm.SetLogFlusher(&log);

  // Seed the shared range with its patterns.
  {
    std::vector<char> buf(kPage);
    for (PageId p = kSharedFirst; p < kSharedFirst + kSharedPages; ++p) {
      FillPattern(buf.data(), p);
      ASSERT_OK(disk.WritePage(p, buf.data()));
    }
  }

  const uint64_t seed = test::TestSeed(100);
  OIR_SCOPED_SEED_TRACE(seed);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rnd(seed + t);
      const PageId own_base = kOwnBase + t * kPerThread;
      for (int iter = 0; iter < 400; ++iter) {
        if (rnd.OneIn(3)) {
          // Write a page this thread owns, sometimes discard it after.
          PageId p = own_base + rnd.Uniform(kPerThread);
          PageRef ref;
          Status s = bm.Fetch(p, &ref);
          if (!s.ok()) {
            failures.fetch_add(1);
            continue;
          }
          ref.latch().LockX();
          FillPattern(ref.data(), p);
          ref.header()->page_lsn = 0;
          ref.MarkDirty();
          ref.latch().UnlockX();
          ref.Release();
          if (rnd.OneIn(4)) bm.Discard(p);
        } else {
          // Read a shared page and verify its pattern survived the churn.
          PageId p = kSharedFirst + rnd.Uniform(kSharedPages);
          PageRef ref;
          Status s = bm.Fetch(p, &ref);
          if (!s.ok()) {
            failures.fetch_add(1);
            continue;
          }
          ref.latch().LockS();
          if (!CheckPattern(ref.data(), p)) failures.fetch_add(1);
          ref.latch().UnlockS();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // The pool must still be coherent: every shared page readable and intact.
  for (PageId p = kSharedFirst; p < kSharedFirst + kSharedPages; ++p) {
    PageRef ref;
    ASSERT_OK(bm.Fetch(p, &ref));
    EXPECT_TRUE(CheckPattern(ref.data(), p)) << "page " << p;
  }
}

TEST(ShardedPoolTest, HitsRaceRemapsWithoutLosingTheirPage) {
  // Readers pin hot pages through the mutex-free hit path while other
  // threads remap frames under them: cold fetches force evictions, a
  // churner discards pages and creates them over stale frames, and a
  // prefetcher reserves runs. A pinned frame must always hold the page
  // that was fetched, and no pin may outlive its PageRef.
  constexpr PageId kHot = 1, kHotPages = 8;
  constexpr PageId kChurn = kHot + kHotPages, kChurnPages = 32;
  constexpr PageId kCold = kChurn + kChurnPages;
  constexpr uint32_t kDiskPages = 256;
  MemDisk disk(kPage, kDiskPages);
  BufferManager bm(&disk, /*pool_frames=*/32, /*shards=*/2);
  {
    std::vector<char> buf(kPage, 0);
    for (PageId p = 1; p < kDiskPages; ++p) {
      HeaderOf(buf.data())->page_id = p;
      ASSERT_OK(disk.WritePage(p, buf.data()));
    }
  }

  const uint64_t seed = test::TestSeed(200);
  OIR_SCOPED_SEED_TRACE(seed);
  std::atomic<int> failures{0};
  // Fetches `p` and checks the frame under an S latch. A page the churner
  // just created is zero until the churner stamps it.
  auto fetch_and_check = [&](PageId p) {
    PageRef ref;
    Status s = bm.Fetch(p, &ref);
    if (!s.ok() || ref.id() != p) {
      failures.fetch_add(1);
      return;
    }
    ref.latch().LockS();
    const PageId seen = ref.header()->page_id;
    ref.latch().UnlockS();
    if (seen != p && !(p >= kChurn && p < kCold && seen == kInvalidPageId)) {
      failures.fetch_add(1);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      Random rnd(seed + t);
      for (int i = 0; i < 20000; ++i) {
        fetch_and_check(rnd.OneIn(3) ? kChurn + rnd.Uniform(kChurnPages)
                                     : kHot + rnd.Uniform(kHotPages));
      }
    });
  }
  threads.emplace_back([&] {  // evictor
    Random rnd(seed + 10);
    for (int i = 0; i < 20000; ++i) {
      fetch_and_check(kCold + rnd.Uniform(kDiskPages - kCold));
    }
  });
  threads.emplace_back([&] {  // churner
    Random rnd(seed + 11);
    for (int i = 0; i < 10000; ++i) {
      const PageId p = kChurn + rnd.Uniform(kChurnPages);
      switch (rnd.Uniform(3)) {
        case 0:
          bm.Discard(p);
          break;
        case 1: {
          PageRef ref;
          if (!bm.Create(p, &ref).ok()) {
            failures.fetch_add(1);
            break;
          }
          ref.latch().LockX();
          ref.header()->page_id = p;
          ref.MarkDirty();
          ref.latch().UnlockX();
          break;
        }
        default:
          fetch_and_check(p);
      }
    }
  });
  threads.emplace_back([&] {  // prefetcher
    Random rnd(seed + 12);
    for (int i = 0; i < 5000; ++i) {
      if (!bm.Prefetch(kCold + rnd.Uniform(kDiskPages - kCold - 4), 4).ok()) {
        failures.fetch_add(1);
      }
    }
  });
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(bm.PinnedFrames(), 0u);
  EXPECT_LE(bm.CachedPages(), bm.pool_frames());
  for (PageId p = kHot; p < kCold; ++p) {
    PageRef ref;
    ASSERT_OK(bm.Fetch(p, &ref));
    EXPECT_EQ(ref.header()->page_id, p);
  }
}

TEST(PrefetchTest, LoadsRunAndServesFetches) {
  constexpr uint32_t kDiskPages = 64;
  MemDisk disk(kPage, kDiskPages);
  BufferManager bm(&disk, 32, 2);
  std::vector<char> buf(kPage);
  for (PageId p = 1; p < kDiskPages; ++p) {
    FillPattern(buf.data(), p);
    ASSERT_OK(disk.WritePage(p, buf.data()));
  }

  auto before = GlobalCounters::Get().Snapshot();
  ASSERT_OK(bm.Prefetch(8, 16));
  auto delta = GlobalCounters::Get().Snapshot() - before;
  EXPECT_EQ(delta.io_read_ops, 1u);  // one multi-page transfer
  EXPECT_EQ(delta.pool_prefetched, 16u);

  before = GlobalCounters::Get().Snapshot();
  for (PageId p = 8; p < 24; ++p) {
    PageRef ref;
    ASSERT_OK(bm.Fetch(p, &ref));
    EXPECT_TRUE(CheckPattern(ref.data(), p)) << "page " << p;
  }
  delta = GlobalCounters::Get().Snapshot() - before;
  EXPECT_EQ(delta.pool_hits, 16u);  // all served from the pool
  EXPECT_EQ(delta.io_read_ops, 0u);
}

TEST(PrefetchTest, CachedCopyWins) {
  MemDisk disk(kPage, 32);
  LogManager log;
  BufferManager bm(&disk, 16, 2);
  bm.SetLogFlusher(&log);

  // Dirty page 5 in the pool with content newer than the disk's.
  PageRef ref;
  ASSERT_OK(bm.Fetch(5, &ref));
  ref.latch().LockX();
  std::memset(ref.data() + kBody, 0x5a, kPage - kBody);
  ref.header()->page_lsn = 0;
  ref.MarkDirty();
  ref.latch().UnlockX();
  ref.Release();

  // A prefetch spanning page 5 must not clobber the cached copy.
  ASSERT_OK(bm.Prefetch(1, 16));
  ASSERT_OK(bm.Fetch(5, &ref));
  for (uint32_t i = kBody; i < kPage; ++i) {
    ASSERT_EQ(ref.data()[i], 0x5a) << "offset " << i;
  }
}

TEST(PrefetchTest, RejectsRunLargerThanPool) {
  MemDisk disk(kPage, 64);
  BufferManager bm(&disk, 16, 2);
  EXPECT_TRUE(bm.Prefetch(1, 17).IsInvalidArgument());
  EXPECT_TRUE(bm.Prefetch(1, 0).IsInvalidArgument());
  EXPECT_OK(bm.Prefetch(1, 16));
}

TEST(FlushPagesTest, RejectsIoRunLargerThanPool) {
  MemDisk disk(kPage, 64);
  LogManager log;
  BufferManager bm(&disk, 16, 2);
  bm.SetLogFlusher(&log);
  std::vector<PageId> ids = {1, 2, 3};
  EXPECT_TRUE(bm.FlushPages(ids, 17).IsInvalidArgument());
  EXPECT_TRUE(bm.FlushPages(ids, 0).IsInvalidArgument());
  EXPECT_OK(bm.FlushPages(ids, 16));
}

TEST(RebuildOptionsTest, RejectsIoPagesLargerThanPool) {
  DbOptions dopts;
  dopts.page_size = 2048;
  dopts.buffer_pool_pages = 64;
  std::unique_ptr<Db> db;
  ASSERT_OK(Db::Open(dopts, &db));
  test::InsertMany(db.get(), {1, 2, 3});

  RebuildOptions opts;
  opts.io_pages = 65;  // exceeds the 64-frame pool
  RebuildResult res;
  EXPECT_TRUE(db->index()->RebuildOnline(opts, &res).IsInvalidArgument());
  opts.io_pages = 8;
  EXPECT_OK(db->index()->RebuildOnline(opts, &res));
}

TEST(GroupCommitTest, ConcurrentFlushersAllDurable) {
  LogManager log;
  log.EnableGroupCommit();  // force the grouped protocol on a memory log
  constexpr int kThreads = 8;
  constexpr int kPer = 200;
  auto before = GlobalCounters::Get().Snapshot();
  std::vector<std::thread> threads;
  std::mutex mu;
  std::vector<Lsn> acked;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TxnContext ctx{static_cast<TxnId>(t + 1), kInvalidLsn};
      for (int i = 0; i < kPer; ++i) {
        LogRecord rec;
        rec.type = LogType::kCommitTxn;
        Lsn lsn = log.Append(&rec, &ctx);
        ASSERT_OK(log.FlushTo(lsn));
        std::lock_guard<std::mutex> l(mu);
        acked.push_back(lsn);
      }
    });
  }
  for (auto& th : threads) th.join();
  auto delta = GlobalCounters::Get().Snapshot() - before;

  // Every acknowledged record is at or below the durability boundary and
  // survives a crash.
  log.SimulateCrash();
  for (Lsn lsn : acked) {
    EXPECT_LT(lsn, log.durable_lsn());
    LogRecord rec;
    EXPECT_OK(log.ReadRecord(lsn, &rec));
  }
  // Grouping can only reduce the number of flush rounds.
  EXPECT_LE(delta.log_fsyncs, delta.log_flush_calls);
}

TEST(GroupCommitTest, AcknowledgedCommitsSurviveCrash) {
  // Full-stack durability: N threads commit inserts with group commit
  // forced on, the database crashes, and every acknowledged commit must be
  // present after recovery.
  auto db = test::MakeDb();
  db->log_manager()->EnableGroupCommit();

  constexpr int kThreads = 4;
  constexpr int kPer = 50;
  std::mutex mu;
  std::set<uint64_t> committed;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPer; ++i) {
        uint64_t id = static_cast<uint64_t>(t) * kPer + i;
        auto txn = db->BeginTxn();
        ASSERT_OK(db->index()->Insert(txn.get(), NumKey(id), id));
        ASSERT_OK(db->Commit(txn.get()));
        std::lock_guard<std::mutex> l(mu);
        committed.insert(id);
      }
    });
  }
  for (auto& th : threads) th.join();

  RecoveryStats stats;
  ASSERT_OK(db->CrashAndRecover(&stats));
  for (uint64_t id : committed) {
    auto txn = db->BeginTxn();
    bool found = false;
    ASSERT_OK(db->index()->Lookup(txn.get(), NumKey(id), id, &found));
    EXPECT_TRUE(found) << "acknowledged commit " << id << " lost";
    ASSERT_OK(db->Commit(txn.get()));
  }
}

TEST(WriteBackTest, FlushAllDrainsThroughWorkerAndHonorsWalOrder) {
  // With the write-back worker running, FlushAll becomes a batch barrier:
  // every dirty page is written by the worker, which forces the WAL up to
  // the page's LSN first (WAL-before-data).
  constexpr uint32_t kDiskPages = 64;
  MemDisk disk(kPage, kDiskPages);
  LogManager log;
  log.EnableGroupCommit();
  BufferManager bm(&disk, /*pool_frames=*/32, /*shards=*/2);
  bm.SetLogFlusher(&log);
  bm.StartWriteBack();

  // Dirty pages whose page_lsn is NOT yet durable.
  TxnContext ctx{1, kInvalidLsn};
  Lsn max_lsn = 0;
  for (PageId p = 1; p <= 16; ++p) {
    LogRecord rec;
    rec.type = LogType::kCommitTxn;
    Lsn lsn = log.Append(&rec, &ctx);
    max_lsn = lsn;
    PageRef ref;
    ASSERT_OK(bm.Fetch(p, &ref));
    ref.latch().LockX();
    FillPattern(ref.data(), p);
    ref.header()->page_lsn = lsn;
    ref.MarkDirty();
    ref.latch().UnlockX();
  }
  ASSERT_GT(max_lsn, log.durable_lsn());

  auto before = GlobalCounters::Get().Snapshot();
  ASSERT_OK(bm.FlushAll());
  auto delta = GlobalCounters::Get().Snapshot() - before;
  EXPECT_GT(delta.pool_wb_async_writes, 0u);

  // Data on disk implies the covering log prefix is durable.
  EXPECT_GT(log.durable_lsn(), max_lsn);
  std::vector<char> buf(kPage);
  for (PageId p = 1; p <= 16; ++p) {
    ASSERT_OK(disk.ReadPage(p, buf.data()));
    EXPECT_TRUE(CheckPattern(buf.data(), p)) << "page " << p;
  }
  bm.StopWriteBack();
}

TEST(WriteBackTest, EvictionEnqueuesDirtyFramesAndKeepsData) {
  // Working set far larger than the pool with every frame dirty: the
  // clock scan hands dirty frames to the worker, and no write — async or
  // the inline fallback — may lose a byte.
  constexpr uint32_t kDiskPages = 256;
  MemDisk disk(kPage, kDiskPages);
  LogManager log;
  BufferManager bm(&disk, /*pool_frames=*/16, /*shards=*/2);
  bm.SetLogFlusher(&log);
  bm.StartWriteBack();

  auto before = GlobalCounters::Get().Snapshot();
  for (PageId p = 1; p < kDiskPages; ++p) {
    PageRef ref;
    ASSERT_OK(bm.Fetch(p, &ref));
    ref.latch().LockX();
    FillPattern(ref.data(), p);
    ref.header()->page_lsn = 0;  // nothing to force
    ref.MarkDirty();
    ref.latch().UnlockX();
  }
  auto delta = GlobalCounters::Get().Snapshot() - before;
  // Every eviction scan saw only dirty frames, so enqueues must happen.
  EXPECT_GT(delta.pool_wb_enqueued, 0u);

  ASSERT_OK(bm.FlushAll());
  std::vector<char> buf(kPage);
  for (PageId p = 1; p < kDiskPages; ++p) {
    ASSERT_OK(disk.ReadPage(p, buf.data()));
    EXPECT_TRUE(CheckPattern(buf.data(), p)) << "page " << p;
  }
  bm.StopWriteBack();
}

TEST(WriteBackTest, DropAllCancelsQueuedWork) {
  // DropAll must cancel queued write-backs (they would pin frames it is
  // about to free) without deadlocking or tripping the pin check.
  constexpr uint32_t kDiskPages = 128;
  MemDisk disk(kPage, kDiskPages);
  LogManager log;
  BufferManager bm(&disk, /*pool_frames=*/16, /*shards=*/2);
  bm.SetLogFlusher(&log);
  bm.StartWriteBack();

  for (PageId p = 1; p < kDiskPages; ++p) {
    PageRef ref;
    ASSERT_OK(bm.Fetch(p, &ref));
    ref.latch().LockX();
    FillPattern(ref.data(), p);
    ref.header()->page_lsn = 0;
    ref.MarkDirty();
    ref.latch().UnlockX();
  }
  bm.DropAll();  // queued items dropped, in-progress write drained
  EXPECT_EQ(bm.CachedPages(), 0u);

  // The pool stays usable afterwards: fetch, dirty, flush.
  PageRef ref;
  ASSERT_OK(bm.Fetch(1, &ref));
  ref.latch().LockX();
  FillPattern(ref.data(), 1);
  ref.header()->page_lsn = 0;
  ref.MarkDirty();
  ref.latch().UnlockX();
  ref.Release();
  ASSERT_OK(bm.FlushAll());
  bm.StopWriteBack();
}

TEST(GroupCommitTest, DisabledFallsBackToSynchronousFlush) {
  LogManager log;
  EXPECT_FALSE(log.group_commit());  // memory logs default to synchronous
  TxnContext ctx{1, kInvalidLsn};
  LogRecord rec;
  rec.type = LogType::kCommitTxn;
  Lsn lsn = log.Append(&rec, &ctx);
  ASSERT_OK(log.FlushTo(lsn));
  EXPECT_GT(log.durable_lsn(), lsn);
}

}  // namespace
}  // namespace oir
