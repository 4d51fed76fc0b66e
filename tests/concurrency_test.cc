// Concurrency tests: the Section 2 protocols under real threads — mixed
// insert/delete/scan workloads, concurrent structure modifications, and
// OLTP running against a live online rebuild (the paper's headline
// property).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "core/db.h"
#include "core/index.h"
#include "testing/crash_point.h"
#include "testing/oracle.h"
#include "tests/test_util.h"
#include "util/counters.h"
#include "util/random.h"

namespace oir {
namespace {

using test::MakeDb;
using test::NumKey;

// End-state oracle: full structural invariants (tree shape + space map
// agreement + no leftover SMO bits), beyond what Validate() alone checks.
void ExpectInvariants(Db* db) {
  Status s = fault::CheckInvariants(db->tree(), db->space_manager(),
                                    db->buffer_manager());
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ConcurrencyTest, ParallelInsertsDistinctRanges) {
  auto db = MakeDb();
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, t] {
      auto txn = db->BeginTxn();
      for (uint64_t i = 0; i < kPerThread; ++i) {
        uint64_t id = t * 1000000ull + i;
        Status s = db->index()->Insert(txn.get(), NumKey(id), id);
        ASSERT_TRUE(s.ok()) << s.ToString();
      }
      ASSERT_TRUE(db->Commit(txn.get()).ok());
    });
  }
  for (auto& t : threads) t.join();
  TreeStats stats;
  ASSERT_OK(db->tree()->Validate(&stats));
  EXPECT_EQ(stats.num_keys, kThreads * kPerThread);
  ExpectInvariants(db.get());
}

TEST(ConcurrencyTest, ParallelInsertsInterleavedKeys) {
  auto db = MakeDb();
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 800;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, t] {
      auto txn = db->BeginTxn();
      for (uint64_t i = 0; i < kPerThread; ++i) {
        uint64_t id = i * kThreads + t;  // adjacent keys from all threads
        Status s = db->index()->Insert(txn.get(), NumKey(id), id);
        ASSERT_TRUE(s.ok()) << s.ToString();
      }
      ASSERT_TRUE(db->Commit(txn.get()).ok());
    });
  }
  for (auto& t : threads) t.join();
  TreeStats stats;
  ASSERT_OK(db->tree()->Validate(&stats));
  EXPECT_EQ(stats.num_keys, kThreads * kPerThread);
  ExpectInvariants(db.get());
}

TEST(ConcurrencyTest, MixedInsertDeleteScan) {
  const uint64_t seed = test::TestSeed(1);
  OIR_SCOPED_SEED_TRACE(seed);
  auto db = MakeDb();
  std::vector<uint64_t> base;
  for (uint64_t i = 0; i < 4000; ++i) base.push_back(i * 4);
  test::InsertMany(db.get(), base);

  std::atomic<bool> stop{false};
  std::atomic<int> scan_errors{0};

  // Writers churn disjoint id spaces (insert then delete their own keys).
  auto writer = [&](int t) {
    Random rnd(seed + t + 1);
    while (!stop.load()) {
      auto txn = db->BeginTxn();
      uint64_t id = 100000ull * (t + 1) + rnd.Uniform(5000);
      Status s = db->index()->Insert(txn.get(), NumKey(id), id);
      if (s.ok()) {
        s = db->index()->Delete(txn.get(), NumKey(id), id);
        EXPECT_TRUE(s.ok()) << s.ToString();
      }
      EXPECT_TRUE(db->Commit(txn.get()).ok());
    }
  };
  // Scanners continuously verify the base keys remain visible in order.
  auto scanner = [&] {
    while (!stop.load()) {
      auto txn = db->BeginTxn();
      auto cur = db->index()->NewCursor(txn.get());
      Status s = cur->SeekToFirst();
      uint64_t prev = 0;
      bool first = true;
      uint64_t base_seen = 0;
      while (s.ok() && cur->Valid()) {
        uint64_t rid = cur->rid();
        if (!first && rid <= prev) {
          ++scan_errors;
          break;
        }
        if (rid < 100000 && rid % 4 == 0) ++base_seen;
        prev = rid;
        first = false;
        s = cur->Next();
      }
      if (!s.ok() || base_seen != 4000) ++scan_errors;
      EXPECT_TRUE(db->Commit(txn.get()).ok());
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(writer, t);
  for (int t = 0; t < 2; ++t) threads.emplace_back(scanner);
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  stop.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(scan_errors.load(), 0);
  TreeStats stats;
  ASSERT_OK(db->tree()->Validate(&stats));
  EXPECT_EQ(stats.num_keys, 4000u);
  ExpectInvariants(db.get());
}

// The paper's headline property: OLTP keeps running during the rebuild,
// and the rebuild neither loses keys nor breaks the tree.
TEST(ConcurrencyTest, OltpDuringOnlineRebuild) {
  const uint64_t seed = test::TestSeed(1);
  OIR_SCOPED_SEED_TRACE(seed);
  auto db = MakeDb();
  // Half-full declustered index worth rebuilding.
  std::vector<uint64_t> base;
  for (uint64_t i = 0; i < 8000; ++i) base.push_back(i * 2);
  test::InsertMany(db.get(), base);

  TreeStats before;
  ASSERT_OK(db->tree()->Validate(&before));
  RebuildOptions opts;
  opts.ntasize = 16;
  opts.xactsize = 128;
  ASSERT_GT(before.num_leaf_pages, 4u * opts.ntasize);

  // The rebuild starts once every client has completed an operation, and
  // only operations completed while it runs count toward `ops`. The six
  // random clients alone do not show that top actions leave the rest of the
  // index open: this rebuild takes about a millisecond, and a client that
  // the scheduler preempts stays off its CPU for longer than that. So during
  // every top action, with its batch's SHRINK bits set and its address
  // locks held (crash point rebuild.copy.bits_flipped), the rebuild waits
  // until a seventh client, the probe, completes 20 operations at the end
  // of the index away from the batch (at most 5 s). A top action that
  // blocked operations outside its batch fails the test.
  std::atomic<bool> rebuild_running{false};
  std::atomic<bool> rebuild_done{false};
  std::atomic<int> clients_started{0};
  std::atomic<uint64_t> ops{0};
  std::set<uint64_t> stable(base.begin(), base.end());
  auto completed = [&](bool* first) {
    if (rebuild_running.load()) ++ops;
    if (*first) ++clients_started;
    *first = false;
  };

  // Writers insert odd keys (never touched by the checker) and delete them.
  auto writer = [&](int t) {
    Random rnd(seed + 1000 + t);
    bool first = true;
    while (!rebuild_done.load()) {
      auto txn = db->BeginTxn();
      uint64_t id = 1 + 2 * rnd.Uniform(8000);
      Status s = db->index()->Insert(txn.get(), NumKey(id), id);
      if (s.ok()) {
        bool found = false;
        EXPECT_TRUE(
            db->index()->Lookup(txn.get(), NumKey(id), id, &found).ok());
        EXPECT_TRUE(found);
        EXPECT_TRUE(db->index()->Delete(txn.get(), NumKey(id), id).ok());
      }
      EXPECT_TRUE(db->Commit(txn.get()).ok());
      if (s.ok()) completed(&first);
    }
  };
  auto reader = [&] {
    Random rnd(seed + 7);
    bool first = true;
    while (!rebuild_done.load()) {
      auto txn = db->BeginTxn();
      uint64_t id = 2 * rnd.Uniform(8000);
      bool found = false;
      Status s = db->index()->Lookup(txn.get(), NumKey(id), id, &found);
      EXPECT_TRUE(s.ok()) << s.ToString();
      EXPECT_TRUE(found) << "stable key " << id << " missing during rebuild";
      EXPECT_TRUE(db->Commit(txn.get()).ok());
      completed(&first);
    }
  };
  // The probe reads the first or last stable key and inserts and deletes a
  // row of that key with a rid no other client uses. The first half of the
  // rebuild probes the last leaf, the second half the first new leaf.
  std::atomic<bool> probe_left{false};
  std::atomic<int> probe_requested{0};
  std::atomic<int> probe_served{0};
  auto probe = [&] {
    bool first = true;
    for (int served = 0; !rebuild_done.load();) {
      if (probe_requested.load() == served) {
        std::this_thread::yield();
        continue;
      }
      const uint64_t id = probe_left.load() ? 0 : 2 * 7999;
      const RowId extra_rid = 1000000;
      for (int n = 0; n < 20; ++n) {
        auto txn = db->BeginTxn();
        bool found = false;
        EXPECT_TRUE(
            db->index()->Lookup(txn.get(), NumKey(id), id, &found).ok());
        EXPECT_TRUE(found) << "stable key " << id << " missing during rebuild";
        EXPECT_TRUE(db->index()->Insert(txn.get(), NumKey(id), extra_rid).ok());
        EXPECT_TRUE(db->index()->Delete(txn.get(), NumKey(id), extra_rid).ok());
        EXPECT_TRUE(db->Commit(txn.get()).ok());
        completed(&first);
      }
      probe_served.store(++served);
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) threads.emplace_back(writer, t);
  for (int t = 0; t < 3; ++t) threads.emplace_back(reader);
  threads.emplace_back(probe);
  while (clients_started.load() < 6) std::this_thread::yield();

  std::atomic<int> held{0};
  std::atomic<int> blocked{0};
  auto hold_top_action = [&] {
    const int want = probe_requested.load() + 1;
    probe_requested.store(want);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (probe_served.load() < want &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    ++held;
    if (probe_served.load() < want) ++blocked;
  };
  const char* kHoldPoint = "rebuild.copy.bits_flipped";
  auto& reg = fault::CrashPointRegistry::Get();
  fault::CrashPointRegistry::SetEnabled(true);
  reg.ResetCounts();
  reg.Arm(kHoldPoint, 0, hold_top_action);
  opts.on_progress = [&](const obs::RebuildProgress& p) {
    probe_left.store(2 * p.leaves_rebuilt > before.num_leaf_pages);
    for (const auto& [name, hits] : reg.Snapshot()) {
      if (name == kHoldPoint) reg.Arm(kHoldPoint, hits, hold_top_action);
    }
  };
  RebuildResult res;
  rebuild_running.store(true);
  Status s = db->index()->RebuildOnline(opts, &res);
  rebuild_running.store(false);
  reg.Disarm();
  fault::CrashPointRegistry::SetEnabled(false);
  rebuild_done.store(true);
  for (auto& t : threads) t.join();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(held.load(), static_cast<int>(res.top_actions));
  EXPECT_EQ(blocked.load(), 0)
      << "a top action blocked operations outside its batch";
  EXPECT_GT(ops.load(), 100u);  // OLTP made progress during the rebuild

  TreeStats stats;
  ASSERT_OK(db->tree()->Validate(&stats));
  EXPECT_EQ(stats.num_keys, stable.size());
  test::ExpectTreeContains(db.get(), stable);
  ExpectInvariants(db.get());
}

TEST(ConcurrencyTest, ScansDuringRebuildStayConsistent) {
  auto db = MakeDb();
  std::vector<uint64_t> base;
  for (uint64_t i = 0; i < 6000; ++i) base.push_back(i);
  test::InsertMany(db.get(), base);

  std::atomic<bool> rebuild_done{false};
  std::atomic<int> errors{0};
  auto scanner = [&] {
    while (!rebuild_done.load()) {
      auto txn = db->BeginTxn();
      auto cur = db->index()->NewCursor(txn.get());
      Status s = cur->SeekToFirst();
      uint64_t count = 0;
      uint64_t prev = 0;
      bool first = true;
      while (s.ok() && cur->Valid()) {
        if (!first && cur->rid() <= prev) {
          ++errors;
          break;
        }
        prev = cur->rid();
        first = false;
        ++count;
        s = cur->Next();
      }
      if (!s.ok() || count != base.size()) ++errors;
      EXPECT_TRUE(db->Commit(txn.get()).ok());
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(scanner);

  RebuildResult res;
  Status s = db->index()->RebuildOnline(RebuildOptions(), &res);
  rebuild_done.store(true);
  for (auto& t : threads) t.join();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(errors.load(), 0);
  ExpectInvariants(db.get());
}

TEST(ConcurrencyTest, OfflineRebuildBlocksWriters) {
  auto db = MakeDb();
  std::vector<uint64_t> base;
  for (uint64_t i = 0; i < 2000; ++i) base.push_back(i * 2);
  test::InsertMany(db.get(), base);

  // A writer that records when it managed to run.
  std::atomic<bool> start_writer{false};
  std::atomic<bool> writer_finished{false};
  std::thread writer([&] {
    while (!start_writer.load()) std::this_thread::yield();
    auto txn = db->BeginTxn();
    EXPECT_TRUE(db->index()->Insert(txn.get(), NumKey(999999), 999999).ok());
    EXPECT_TRUE(db->Commit(txn.get()).ok());
    writer_finished.store(true);
  });

  RebuildResult res;
  start_writer.store(true);
  ASSERT_OK(db->index()->RebuildOffline(&res));
  writer.join();
  EXPECT_TRUE(writer_finished.load());
  TreeStats stats;
  ASSERT_OK(db->tree()->Validate(&stats));
  EXPECT_EQ(stats.num_keys, base.size() + 1);
  ExpectInvariants(db.get());
}

// Blocks until some thread has waited in the lock manager since
// `waits_before` was read (at most 10 s); returns whether one did.
bool AwaitLockWait(uint64_t waits_before) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (GlobalCounters::Get().lock_waits.load() == waits_before) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// The rebuild X-locks a batch's pages before it latches them to set their
// bits. A writer that finds such a leaf full must not wait for the leaf's
// address lock while it holds the leaf's latch, or the rebuild's latch
// request and the writer's lock request wait for each other.
TEST(ConcurrencyTest, LeafSplitWaitsForAddressLockWithoutTheLatch) {
  auto db = MakeDb();
  const PageId leaf = db->tree()->root();  // an empty tree's one leaf
  // Stands in for the rebuild between locking its batch and latching it.
  auto rebuild = db->BeginTxn();
  ASSERT_OK(db->lock_manager()->Lock(rebuild->id(), AddressLockKey(leaf),
                                     LockMode::kX, /*conditional=*/false));

  const uint64_t waits = GlobalCounters::Get().lock_waits.load();
  constexpr uint64_t kKeys = 400;  // several leaves' worth
  std::thread writer([&] {
    for (uint64_t i = 0; i < kKeys; ++i) {
      auto txn = db->BeginTxn();
      Status s = db->index()->Insert(txn.get(), NumKey(i), i);
      EXPECT_TRUE(s.ok()) << "insert " << i << ": " << s.ToString();
      EXPECT_TRUE(db->Commit(txn.get()).ok());
    }
  });
  // The writer fills the leaf, and its split waits for the address lock.
  const bool writer_waited = AwaitLockWait(waits);
  bool latched = false;
  if (writer_waited) {
    PageRef ref;
    EXPECT_OK(db->buffer_manager()->Fetch(leaf, &ref));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (!(latched = ref.latch().TryLockX()) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (latched) ref.latch().UnlockX();
  }
  db->lock_manager()->Unlock(rebuild->id(), AddressLockKey(leaf));
  writer.join();
  ASSERT_OK(db->Commit(rebuild.get()));
  EXPECT_TRUE(writer_waited);
  EXPECT_TRUE(latched)
      << "the writer waited for the address lock holding the leaf's latch";
  std::set<uint64_t> all;
  for (uint64_t i = 0; i < kKeys; ++i) all.insert(i);
  test::ExpectTreeContains(db.get(), all);
  ExpectInvariants(db.get());
}

TEST(ConcurrencyTest, ConcurrentRebuildAndHeavyInsertLoadIntoSameRange) {
  // Inserts target the same key space the rebuild is walking through —
  // maximal interaction between the copy phase locks and writer traversals.
  const uint64_t seed = test::TestSeed(1);
  OIR_SCOPED_SEED_TRACE(seed);
  auto db = MakeDb();
  std::vector<uint64_t> base;
  for (uint64_t i = 0; i < 4000; ++i) base.push_back(i * 10);
  test::InsertMany(db.get(), base);

  std::atomic<bool> rebuild_done{false};
  std::atomic<uint64_t> inserted{0};
  std::vector<std::vector<uint64_t>> added(4);
  auto writer = [&](int t) {
    Random rnd(seed + t * 31 + 5);
    while (!rebuild_done.load()) {
      auto txn = db->BeginTxn();
      uint64_t id = rnd.Uniform(40000);
      if (id % 10 == 0) id += 1;  // avoid colliding with base ids
      Status s = db->index()->Insert(txn.get(), NumKey(id), id);
      if (s.ok()) {
        added[t].push_back(id);
        ++inserted;
      } else {
        EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();  // duplicate
      }
      EXPECT_TRUE(db->Commit(txn.get()).ok());
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(writer, t);

  RebuildOptions opts;
  opts.ntasize = 8;
  opts.xactsize = 64;
  RebuildResult res;
  Status s = db->index()->RebuildOnline(opts, &res);
  rebuild_done.store(true);
  for (auto& t : threads) t.join();
  ASSERT_TRUE(s.ok()) << s.ToString();

  std::set<uint64_t> expect(base.begin(), base.end());
  for (auto& v : added) expect.insert(v.begin(), v.end());
  TreeStats stats;
  ASSERT_OK(db->tree()->Validate(&stats));
  EXPECT_EQ(stats.num_keys, expect.size());
  test::ExpectTreeContains(db.get(), expect);
  ExpectInvariants(db.get());
}

TEST(ConcurrencyTest, BackToBackRebuildsUnderLoad) {
  const uint64_t seed = test::TestSeed(1);
  OIR_SCOPED_SEED_TRACE(seed);
  auto db = MakeDb();
  std::vector<uint64_t> base;
  for (uint64_t i = 0; i < 3000; ++i) base.push_back(i * 4);
  test::InsertMany(db.get(), base);

  std::atomic<bool> stop{false};
  auto writer = [&](int t) {
    Random rnd(seed + t);
    while (!stop.load()) {
      auto txn = db->BeginTxn();
      uint64_t id = 2 + 4 * rnd.Uniform(3000);  // ids ≡ 2 mod 4
      Status s = db->index()->Insert(txn.get(), NumKey(id), id);
      if (s.ok()) {
        EXPECT_TRUE(db->index()->Delete(txn.get(), NumKey(id), id).ok());
      }
      EXPECT_TRUE(db->Commit(txn.get()).ok());
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) threads.emplace_back(writer, t);
  for (int round = 0; round < 3; ++round) {
    RebuildOptions opts;
    opts.ntasize = 4 << round;
    RebuildResult res;
    Status s = db->index()->RebuildOnline(opts, &res);
    ASSERT_TRUE(s.ok()) << "round " << round << ": " << s.ToString();
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  test::ExpectTreeContains(db.get(),
                           std::set<uint64_t>(base.begin(), base.end()));
  ExpectInvariants(db.get());
}

}  // namespace
}  // namespace oir
