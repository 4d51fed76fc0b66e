// Cursor (range scan) tests — Section 2.5 semantics: latch released between
// rows, repositioning by key when pages change, shrink/rebuild interplay,
// and the version-validated step over the cursor's copy of its leaf.

#include "btree/cursor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "core/db.h"
#include "core/index.h"
#include "tests/test_util.h"
#include "util/counters.h"
#include "util/random.h"

namespace oir {
namespace {

using test::MakeDb;
using test::NumKey;

TEST(CursorTest, FullScanInOrder) {
  auto db = MakeDb();
  std::vector<uint64_t> ids(1000);
  for (uint64_t i = 0; i < ids.size(); ++i) ids[i] = i * 3;
  test::InsertMany(db.get(), ids);
  auto rows = test::ScanAll(db.get());
  ASSERT_EQ(rows.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(rows[i].second, ids[i]);
  }
}

TEST(CursorTest, SeekPositionsAtLowerBound) {
  auto db = MakeDb();
  test::InsertMany(db.get(), {10, 20, 30, 40});
  auto txn = db->BeginTxn();
  auto cur = db->index()->NewCursor(txn.get());
  ASSERT_OK(cur->Seek(NumKey(20)));
  ASSERT_TRUE(cur->Valid());
  EXPECT_EQ(cur->rid(), 20u);
  ASSERT_OK(cur->Seek(NumKey(25)));
  ASSERT_TRUE(cur->Valid());
  EXPECT_EQ(cur->rid(), 30u);
  ASSERT_OK(cur->Seek(NumKey(99)));
  EXPECT_FALSE(cur->Valid());
  ASSERT_OK(db->Commit(txn.get()));
}

TEST(CursorTest, SeekOnEmptyIndex) {
  auto db = MakeDb();
  auto txn = db->BeginTxn();
  auto cur = db->index()->NewCursor(txn.get());
  ASSERT_OK(cur->Seek("anything"));
  EXPECT_FALSE(cur->Valid());
  ASSERT_OK(db->Commit(txn.get()));
}

TEST(CursorTest, SurvivesConcurrentMutationOfCurrentPage) {
  auto db = MakeDb();
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 500; ++i) ids.push_back(i * 10);
  test::InsertMany(db.get(), ids);

  auto txn = db->BeginTxn();
  auto cur = db->index()->NewCursor(txn.get());
  ASSERT_OK(cur->SeekToFirst());
  // Read half the rows, then mutate the index from another transaction,
  // then continue: the cursor must reposition by key without missing or
  // duplicating the untouched rows.
  std::vector<uint64_t> seen;
  for (int i = 0; i < 250 && cur->Valid(); ++i) {
    seen.push_back(cur->rid());
    ASSERT_OK(cur->Next());
  }
  {
    auto mut = db->BeginTxn();
    // Insert keys behind AND ahead of the cursor; delete some rows ahead.
    ASSERT_OK(db->index()->Insert(mut.get(), NumKey(5), 5));
    ASSERT_OK(db->index()->Insert(mut.get(), NumKey(4905), 4905));
    ASSERT_OK(db->index()->Delete(mut.get(), NumKey(3000), 3000));
    ASSERT_OK(db->Commit(mut.get()));
  }
  while (cur->Valid()) {
    seen.push_back(cur->rid());
    ASSERT_OK(cur->Next());
  }
  ASSERT_OK(db->Commit(txn.get()));
  // Expected: all original even-ten ids except 3000 (deleted ahead of the
  // cursor), plus 4905 (inserted ahead); 5 was behind the cursor.
  std::vector<uint64_t> expect;
  for (uint64_t i = 0; i < 500; ++i) {
    uint64_t v = i * 10;
    if (v == 3000) continue;
    expect.push_back(v);
    if (v == 4900) expect.push_back(4905);
  }
  EXPECT_EQ(seen, expect);
}

TEST(CursorTest, ScanDuringRebuildSeesAllRows) {
  auto db = MakeDb();
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 3000; ++i) ids.push_back(i);
  test::InsertMany(db.get(), ids);

  // Start scanning, rebuild mid-scan, finish scanning.
  auto txn = db->BeginTxn();
  auto cur = db->index()->NewCursor(txn.get());
  ASSERT_OK(cur->SeekToFirst());
  std::vector<uint64_t> seen;
  for (int i = 0; i < 1000 && cur->Valid(); ++i) {
    seen.push_back(cur->rid());
    ASSERT_OK(cur->Next());
  }
  RebuildResult res;
  ASSERT_OK(db->index()->RebuildOnline(RebuildOptions(), &res));
  while (cur->Valid()) {
    seen.push_back(cur->rid());
    ASSERT_OK(cur->Next());
  }
  ASSERT_OK(db->Commit(txn.get()));
  ASSERT_EQ(seen.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(seen[i], ids[i]);
}

TEST(CursorTest, PagesVisitedDropsAfterRebuild) {
  auto db = MakeDb();
  // Half-empty pages: a range scan touches ~2x the pages it needs.
  std::vector<uint64_t> all;
  for (uint64_t i = 0; i < 4000; ++i) all.push_back(i);
  test::InsertMany(db.get(), all);
  std::vector<uint64_t> odd;
  for (uint64_t i = 1; i < 4000; i += 2) odd.push_back(i);
  test::DeleteMany(db.get(), odd);

  auto count_pages = [&]() {
    auto txn = db->BeginTxn();
    auto cur = db->index()->NewCursor(txn.get());
    EXPECT_OK(cur->SeekToFirst());
    while (cur->Valid()) {
      EXPECT_OK(cur->Next());
    }
    EXPECT_OK(db->Commit(txn.get()));
    return cur->pages_visited();
  };
  uint64_t before = count_pages();
  RebuildResult res;
  ASSERT_OK(db->index()->RebuildOnline(RebuildOptions(), &res));
  uint64_t after = count_pages();
  EXPECT_LT(after * 3, before * 2);  // at least 1.5x fewer pages
}

// A scan of an index nobody is changing steps through each leaf on the
// cursor's copy: the seek latches and fetches one page per level, and each
// later leaf costs one more, plus at most two for the hand-over at leaf
// ends. Re-latching every row would cost one latch and one fetch per row.
TEST(CursorTest, QuiescentScanStepsWithoutRelatching) {
  auto db = MakeDb();
  std::vector<uint64_t> ids(3000);
  for (uint64_t i = 0; i < ids.size(); ++i) ids[i] = i;
  test::InsertMany(db.get(), ids);
  ASSERT_OK(db->Checkpoint());  // no write-back may latch pages meanwhile
  TreeStats stats;
  ASSERT_OK(db->tree()->Validate(&stats));

  auto txn = db->BeginTxn();
  auto cur = db->index()->NewCursor(txn.get());
  const CounterSnapshot before = GlobalCounters::Get().Snapshot();
  ASSERT_OK(cur->Seek(NumKey(700)));
  for (uint64_t i = 700; i < 1200; ++i) {
    ASSERT_TRUE(cur->Valid());
    ASSERT_EQ(cur->rid(), i);
    ASSERT_OK(cur->Next());
  }
  const CounterSnapshot d = GlobalCounters::Get().Snapshot() - before;
  ASSERT_OK(db->Commit(txn.get()));
  const uint64_t leaves = cur->pages_visited();
  ASSERT_GT(leaves, 3u);  // the scan crosses several leaves
  const uint64_t bound = stats.height + leaves + 2;
  EXPECT_LE(d.latch_acquires, bound) << "leaves " << leaves;
  EXPECT_LE(d.pool_hits + d.pool_misses, bound) << "leaves " << leaves;
}

// Seeded single-threaded interleaving of cursor steps with committed
// inserts and deletes ahead of the cursor, behind it and on its current
// leaf (the current row included), plus occasional online rebuilds. Oracle:
// every returned row is the smallest live key above the previous row, and
// the scan ends exactly when there is none.
class CursorSuccessorTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CursorSuccessorTest, NextReturnsExactSuccessor) {
  const uint32_t page_size = GetParam();
  const uint64_t seed = test::TestSeed(page_size);
  OIR_SCOPED_SEED_TRACE(seed);
  Random rnd(seed);
  auto db = MakeDb(page_size);
  constexpr uint64_t kSpace = 4000;  // keys are ids in [0, kSpace)
  std::set<uint64_t> model;
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < kSpace; i += 2) ids.push_back(i);
  test::InsertMany(db.get(), ids);
  model.insert(ids.begin(), ids.end());

  // One committed insert or delete of `id`, mirrored in the model.
  auto toggle = [&](uint64_t id) {
    auto txn = db->BeginTxn();
    if (model.count(id) != 0) {
      ASSERT_OK(db->index()->Delete(txn.get(), NumKey(id), id));
      model.erase(id);
    } else {
      ASSERT_OK(db->index()->Insert(txn.get(), NumKey(id), id));
      model.insert(id);
    }
    ASSERT_OK(db->Commit(txn.get()));
  };

  uint64_t steps = 0;
  uint64_t rebuilds = 0;
  for (int scan = 0; scan < 4; ++scan) {
    auto txn = db->BeginTxn();
    auto cur = db->index()->NewCursor(txn.get());
    const uint64_t start = rnd.Uniform(kSpace / 2);
    ASSERT_OK(cur->Seek(NumKey(start)));
    auto expect = model.lower_bound(start);
    for (;;) {
      if (expect == model.end()) {
        ASSERT_FALSE(cur->Valid()) << "scan " << scan << " step " << steps;
        break;
      }
      ASSERT_TRUE(cur->Valid()) << "scan " << scan << " step " << steps
                                << ": expected " << *expect;
      const uint64_t prev = *expect;
      ASSERT_EQ(cur->rid(), prev) << "scan " << scan << " step " << steps;
      ASSERT_EQ(cur->user_key().ToString(), NumKey(prev));

      // Mutate between steps: behind, ahead, or around the current row
      // (the same leaf, and sometimes the current row itself).
      const uint64_t nmut = rnd.Uniform(4);
      for (uint64_t m = 0; m < nmut; ++m) {
        uint64_t id;
        switch (rnd.Uniform(4)) {
          case 0:  // behind
            id = prev == 0 ? 0 : rnd.Uniform(prev);
            break;
          case 1:  // ahead
            id = prev + 1 + rnd.Uniform(kSpace - prev);
            break;
          default:  // on the current leaf
            id = prev + rnd.Uniform(9);
            id = id < 4 ? id : id - 4;
            break;
        }
        if (id >= kSpace) id = kSpace - 1;
        toggle(id);
      }
      if (rnd.OneIn(300)) {
        RebuildOptions opts;
        opts.fillfactor = rnd.OneIn(2) ? 100 : 70;
        opts.ntasize = static_cast<uint32_t>(1 + rnd.Uniform(32));
        RebuildResult res;
        ASSERT_OK(db->index()->RebuildOnline(opts, &res));
        ++rebuilds;
      }
      ASSERT_OK(cur->Next());
      ++steps;
      expect = model.upper_bound(prev);
    }
    ASSERT_OK(db->Commit(txn.get()));
  }
  EXPECT_GT(steps, 1000u);
  EXPECT_GT(rebuilds, 0u);
  TreeStats stats;
  ASSERT_OK(db->tree()->Validate(&stats));
  EXPECT_EQ(stats.num_keys, model.size());
}

INSTANTIATE_TEST_SUITE_P(PageSizes, CursorSuccessorTest,
                         ::testing::Values(512u, 2048u));

// One thread scans the whole index over and over while another inserts
// and deletes keys outside a fixed stable set and runs online rebuilds.
// Every scan must be strictly ascending and return each stable key exactly
// once. Runs in the TSan lane: the scanner's version checks race the
// writer's latch releases and the pool's frame reuse.
TEST(CursorTest, ScanRacesWritersAndRebuild) {
  auto db = MakeDb(512, 1 << 12);
  constexpr uint64_t kSpace = 3000;  // stable keys: multiples of 3
  std::vector<uint64_t> stable;
  for (uint64_t i = 0; i < kSpace; i += 3) stable.push_back(i);
  test::InsertMany(db.get(), stable);

  std::atomic<bool> stop{false};
  std::atomic<int> rebuilds{0};
  std::atomic<bool> writer_done{false};
  auto write = [&] {
    Random rnd(test::TestSeed(7));
    std::set<uint64_t> extra;
    int round = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      auto txn = db->BeginTxn();
      for (int i = 0; i < 20; ++i) {
        uint64_t id = rnd.Uniform(kSpace);
        if (id % 3 == 0) ++id;  // never touch a stable key
        Status s = extra.count(id) != 0
                       ? db->index()->Delete(txn.get(), NumKey(id), id)
                       : db->index()->Insert(txn.get(), NumKey(id), id);
        ASSERT_TRUE(s.ok()) << s.ToString();
        if (!extra.erase(id)) extra.insert(id);
      }
      ASSERT_OK(db->Commit(txn.get()));
      if (++round % 10 == 0) {
        RebuildOptions opts;
        opts.ntasize = 4;
        opts.xactsize = 16;
        RebuildResult res;
        ASSERT_OK(db->index()->RebuildOnline(opts, &res));
        rebuilds.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::thread writer([&] {
    write();  // returns early on a failed assertion
    writer_done.store(true, std::memory_order_relaxed);
  });

  // Scan until the writer has rebuilt the index a few times.
  int scans = 0;
  for (; scans < 12 || rebuilds.load(std::memory_order_relaxed) < 3; ++scans) {
    if (writer_done.load(std::memory_order_relaxed)) break;  // it failed
    const int scan = scans;
    auto txn = db->BeginTxn();
    auto cur = db->index()->NewCursor(txn.get());
    ASSERT_OK(cur->SeekToFirst());
    std::string prev;
    size_t next_stable = 0;
    while (cur->Valid()) {
      std::string key = cur->index_key().ToString();
      ASSERT_LT(prev, key) << "scan " << scan;
      prev = std::move(key);
      const RowId rid = cur->rid();
      if (rid % 3 == 0) {
        ASSERT_LT(next_stable, stable.size()) << "scan " << scan;
        ASSERT_EQ(rid, stable[next_stable]) << "scan " << scan;
        ++next_stable;
      }
      ASSERT_OK(cur->Next());
    }
    EXPECT_EQ(next_stable, stable.size()) << "scan " << scan;
    ASSERT_OK(db->Commit(txn.get()));
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GE(rebuilds.load(), 3) << scans << " scans";
  TreeStats stats;
  ASSERT_OK(db->tree()->Validate(&stats));
}

}  // namespace
}  // namespace oir
