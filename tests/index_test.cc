// Index facade tests: the gate that the offline rebuild closes,
// logical row locks from the isolation-level cursor, FileDisk-backed
// databases, and page-size sweeps of the whole workload path.

#include "core/index.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "core/db.h"
#include "testing/crash_point.h"
#include "tests/test_util.h"
#include "util/counters.h"

namespace oir {
namespace {

using test::MakeDb;
using test::NumKey;

TEST(IndexTest, LockingCursorBlocksWriters) {
  auto db = MakeDb();
  test::InsertMany(db.get(), {10, 20, 30});

  auto scan_txn = db->BeginTxn();
  auto cur = db->index()->NewLockingCursor(scan_txn.get());
  ASSERT_OK(cur->SeekToFirst());
  ASSERT_TRUE(cur->Valid());
  EXPECT_EQ(cur->rid(), 10u);
  // The scanned row is S-locked: a deleter must wait for the scan txn.
  std::atomic<bool> deleted{false};
  std::thread writer([&] {
    auto txn = db->BeginTxn();
    Status s = db->index()->Delete(txn.get(), NumKey(10), 10);
    EXPECT_TRUE(s.ok()) << s.ToString();
    deleted.store(true);
    EXPECT_TRUE(db->Commit(txn.get()).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(deleted.load());  // blocked on the row lock
  ASSERT_OK(db->Commit(scan_txn.get()));
  writer.join();
  EXPECT_TRUE(deleted.load());
  test::ExpectTreeContains(db.get(), {20, 30});
}

TEST(IndexTest, LockingCursorScansWholeIndex) {
  auto db = MakeDb();
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 300; ++i) ids.push_back(i);
  test::InsertMany(db.get(), ids);
  auto txn = db->BeginTxn();
  auto cur = db->index()->NewLockingCursor(txn.get());
  ASSERT_OK(cur->SeekToFirst());
  uint64_t count = 0;
  while (cur->Valid()) {
    ++count;
    ASSERT_OK(cur->Next());
  }
  EXPECT_EQ(count, ids.size());
  ASSERT_OK(db->Commit(txn.get()));
  // All scan locks released: a delete proceeds immediately.
  test::DeleteMany(db.get(), {5});
}

TEST(IndexTest, ReadCommittedCursorDoesNotBlockWriters) {
  auto db = MakeDb();
  test::InsertMany(db.get(), {1, 2, 3});
  auto scan_txn = db->BeginTxn();
  auto cur = db->index()->NewCursor(scan_txn.get());
  ASSERT_OK(cur->SeekToFirst());
  // A plain cursor holds no row locks: concurrent delete succeeds at once.
  auto txn = db->BeginTxn();
  ASSERT_OK(db->index()->Delete(txn.get(), NumKey(2), 2));
  ASSERT_OK(db->Commit(txn.get()));
  ASSERT_OK(db->Commit(scan_txn.get()));
}

TEST(IndexTest, RowLockConflictAcrossTransactions) {
  auto db = MakeDb();
  test::InsertMany(db.get(), {7});
  auto t1 = db->BeginTxn();
  // t1 deletes row 7 (X lock held to txn end).
  ASSERT_OK(db->index()->Delete(t1.get(), NumKey(7), 7));
  // t2 cannot touch row 7 until t1 ends.
  auto t2 = db->BeginTxn();
  EXPECT_TRUE(db->lock_manager()
                  ->Lock(t2->id(), LogicalLockKey(7), LockMode::kS, true)
                  .IsBusy());
  ASSERT_OK(db->Abort(t1.get()));
  ASSERT_OK(db->lock_manager()->Lock(t2->id(), LogicalLockKey(7),
                                     LockMode::kS, true));
  db->lock_manager()->Unlock(t2->id(), LogicalLockKey(7));
  ASSERT_OK(db->Commit(t2.get()));
  test::ExpectTreeContains(db.get(), {7});
}

TEST(IndexTest, OfflineRebuildOnEmptyIndex) {
  auto db = MakeDb();
  RebuildResult res;
  ASSERT_OK(db->index()->RebuildOffline(&res));
  test::ExpectTreeContains(db.get(), {});
  // Still usable.
  test::InsertMany(db.get(), {1, 2});
  test::ExpectTreeContains(db.get(), {1, 2});
}

TEST(IndexTest, OfflineRebuildPreservesContentAndPacks) {
  auto db = MakeDb();
  std::vector<uint64_t> all, odd;
  for (uint64_t i = 0; i < 3000; ++i) all.push_back(i);
  test::InsertMany(db.get(), all);
  for (uint64_t i = 1; i < 3000; i += 2) odd.push_back(i);
  test::DeleteMany(db.get(), odd);

  TreeStats before;
  ASSERT_OK(db->tree()->Validate(&before));
  RebuildResult res;
  ASSERT_OK(db->index()->RebuildOffline(&res));
  TreeStats after;
  ASSERT_OK(db->tree()->Validate(&after));
  EXPECT_LT(after.num_leaf_pages, before.num_leaf_pages);
  EXPECT_GT(after.LeafUtilization(), 0.9);
  std::set<uint64_t> expect;
  for (uint64_t i = 0; i < 3000; i += 2) expect.insert(i);
  test::ExpectTreeContains(db.get(), expect);
  EXPECT_EQ(db->space_manager()->CountInState(PageState::kDeallocated), 0u);
}

TEST(IndexTest, OfflineRebuildSurvivesCrash) {
  auto db = MakeDb();
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 1000; ++i) ids.push_back(i * 3);
  test::InsertMany(db.get(), ids);
  RebuildResult res;
  ASSERT_OK(db->index()->RebuildOffline(&res));
  RecoveryStats stats;
  ASSERT_OK(db->CrashAndRecover(&stats));
  test::ExpectTreeContains(db.get(),
                           std::set<uint64_t>(ids.begin(), ids.end()));
}

// The gate: point operations issued while the offline rebuild runs wait
// for its commit and then see the rebuilt tree. The rebuild is held at its
// first page allocation, after it has collected the old tree's rows.
TEST(IndexGateTest, PointOpsIssuedDuringOfflineRebuildWaitForItsCommit) {
  auto db = MakeDb();
  std::set<uint64_t> expect;
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 2000; ++i) ids.push_back(2 * i);
  test::InsertMany(db.get(), ids);
  expect.insert(ids.begin(), ids.end());
  const PageId old_root = db->tree()->root();

  std::mutex mu;
  std::condition_variable cv;
  bool paused = false;
  bool resume = false;
  auto& reg = fault::CrashPointRegistry::Get();
  fault::CrashPointRegistry::SetEnabled(true);
  reg.ResetCounts();
  reg.Arm("space.alloc.logged", 0, [&] {
    std::unique_lock<std::mutex> l(mu);
    paused = true;
    cv.notify_all();
    cv.wait(l, [&] { return resume; });
  });
  Status rebuilt;
  std::thread rebuild([&] {
    RebuildResult res;
    rebuilt = db->index()->RebuildOffline(&res);
  });
  {
    std::unique_lock<std::mutex> l(mu);
    cv.wait(l, [&] { return paused; });
  }

  std::atomic<bool> resumed{false};
  std::atomic<bool> lookup_early{true};
  std::atomic<bool> insert_early{true};
  bool found = false;
  PageId root_seen = kInvalidPageId;
  std::thread reader([&] {
    auto txn = db->BeginTxn();
    EXPECT_OK(db->index()->Lookup(txn.get(), NumKey(10), 10, &found));
    lookup_early.store(!resumed.load());
    root_seen = db->tree()->root();
    EXPECT_OK(db->Commit(txn.get()));
  });
  std::thread writer([&] {
    auto txn = db->BeginTxn();
    EXPECT_OK(db->index()->Insert(txn.get(), NumKey(999), 999));
    insert_early.store(!resumed.load());
    EXPECT_OK(db->Commit(txn.get()));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  resumed.store(true);
  {
    std::lock_guard<std::mutex> l(mu);
    resume = true;
  }
  cv.notify_all();
  rebuild.join();
  reader.join();
  writer.join();
  reg.Disarm();
  fault::CrashPointRegistry::SetEnabled(false);

  ASSERT_OK(rebuilt);
  EXPECT_FALSE(lookup_early.load()) << "lookup passed a closed gate";
  EXPECT_FALSE(insert_early.load()) << "insert passed a closed gate";
  EXPECT_TRUE(found);
  EXPECT_NE(root_seen, old_root);
  expect.insert(999);
  test::ExpectTreeContains(db.get(), expect);
}

// Point operations take their row locks before the gate, so the offline
// rebuild never waits for an operation that waits on a row lock.
TEST(IndexGateTest, OfflineRebuildDoesNotWaitForARowLockWaiter) {
  auto db = MakeDb();
  std::set<uint64_t> expect;
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 2000; ++i) ids.push_back(2 * i);
  test::InsertMany(db.get(), ids);
  expect.insert(ids.begin(), ids.end());

  auto holder = db->BeginTxn();
  ASSERT_OK(db->lock_manager()->Lock(holder->id(), LogicalLockKey(10),
                                     LockMode::kX, /*conditional=*/false));
  holder->TrackLock(LogicalLockKey(10));
  const uint64_t waits = GlobalCounters::Get().lock_waits.load();
  Status deleted;
  std::thread deleter([&] {
    auto txn = db->BeginTxn();
    deleted = db->index()->Delete(txn.get(), NumKey(10), 10);
    EXPECT_OK(db->Commit(txn.get()));
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (GlobalCounters::Get().lock_waits.load() == waits &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }

  const auto start = std::chrono::steady_clock::now();
  RebuildResult res;
  Status rebuilt = db->index()->RebuildOffline(&res);
  const auto took = std::chrono::steady_clock::now() - start;
  EXPECT_OK(db->Commit(holder.get()));
  deleter.join();
  ASSERT_OK(rebuilt);
  EXPECT_LT(took, std::chrono::seconds(2));
  ASSERT_OK(deleted);
  expect.erase(10);
  test::ExpectTreeContains(db.get(), expect);
}

TEST(IndexTest, FileDiskBackedDatabase) {
  std::string path = ::testing::TempDir() + "/oir_index_filedisk.db";
  std::remove(path.c_str());
  DbOptions opts;
  opts.file_path = path;
  opts.buffer_pool_pages = 1 << 12;
  std::unique_ptr<Db> db;
  ASSERT_OK(Db::Open(opts, &db));
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 2000; ++i) ids.push_back(i);
  test::InsertMany(db.get(), ids);
  RebuildResult res;
  ASSERT_OK(db->index()->RebuildOnline(RebuildOptions(), &res));
  RecoveryStats stats;
  ASSERT_OK(db->CrashAndRecover(&stats));
  test::ExpectTreeContains(db.get(),
                           std::set<uint64_t>(ids.begin(), ids.end()));
  db.reset();
  std::remove(path.c_str());
}

// Page-size sweep of the full workload path: load, churn, rebuild, crash.
class PageSizeTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PageSizeTest, FullWorkloadRoundTrip) {
  auto db = MakeDb(GetParam());
  std::set<uint64_t> expect;
  {
    auto txn = db->BeginTxn();
    for (uint64_t i = 0; i < 2000; ++i) {
      ASSERT_OK(db->index()->Insert(txn.get(), NumKey(i), i));
      expect.insert(i);
    }
    ASSERT_OK(db->Commit(txn.get()));
    txn = db->BeginTxn();
    for (uint64_t i = 0; i < 2000; i += 3) {
      ASSERT_OK(db->index()->Delete(txn.get(), NumKey(i), i));
      expect.erase(i);
    }
    ASSERT_OK(db->Commit(txn.get()));
  }
  RebuildOptions opts;
  opts.ntasize = 8;
  RebuildResult res;
  ASSERT_OK(db->index()->RebuildOnline(opts, &res));
  RecoveryStats stats;
  ASSERT_OK(db->CrashAndRecover(&stats));
  test::ExpectTreeContains(db.get(), expect);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PageSizeTest,
                         ::testing::Values(512u, 1024u, 2048u, 4096u, 8192u,
                                           16384u));

}  // namespace
}  // namespace oir
