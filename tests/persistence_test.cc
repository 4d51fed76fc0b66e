// Real process-restart persistence: data file + log file + master record
// survive object destruction; Db::OpenExisting runs restart recovery and
// reproduces exactly the committed state — including mid-rebuild states,
// checkpoints and log truncation.

#include <gtest/gtest.h>

#include <cstdio>

#include "core/db.h"
#include "core/index.h"
#include "tests/test_util.h"

namespace oir {
namespace {

using test::NumKey;

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = ::testing::TempDir() + "/oir_persist_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    Cleanup();
    opts_.file_path = base_ + ".db";
    opts_.log_path = base_ + ".log";
    opts_.buffer_pool_pages = 1 << 13;
  }
  void TearDown() override { Cleanup(); }

  void Cleanup() {
    std::remove((base_ + ".db").c_str());
    std::remove((base_ + ".log").c_str());
    std::remove((base_ + ".log.master").c_str());
  }

  std::string base_;
  DbOptions opts_;
};

TEST_F(PersistenceTest, CommittedDataSurvivesReopen) {
  std::set<uint64_t> ids;
  {
    std::unique_ptr<Db> db;
    ASSERT_OK(Db::Open(opts_, &db));
    auto txn = db->BeginTxn();
    for (uint64_t i = 0; i < 1500; ++i) {
      ASSERT_OK(db->index()->Insert(txn.get(), NumKey(i), i));
      ids.insert(i);
    }
    ASSERT_OK(db->Commit(txn.get()));
    // Destroy WITHOUT flushing pages: only the log is durable.
  }
  std::unique_ptr<Db> db;
  RecoveryStats stats;
  ASSERT_OK(Db::OpenExisting(opts_, &db, &stats));
  EXPECT_GT(stats.records_redone, 0u);
  test::ExpectTreeContains(db.get(), ids);
}

TEST_F(PersistenceTest, UncommittedWorkRolledBackOnReopen) {
  {
    std::unique_ptr<Db> db;
    ASSERT_OK(Db::Open(opts_, &db));
    test::InsertMany(db.get(), {1, 2, 3});
    auto loser = db->BeginTxn();
    ASSERT_OK(db->index()->Insert(loser.get(), NumKey(99), 99));
    ASSERT_OK(db->log_manager()->FlushAll());
    test::AbandonTxn(std::move(loser));  // dies with the process
  }
  std::unique_ptr<Db> db;
  RecoveryStats stats;
  ASSERT_OK(Db::OpenExisting(opts_, &db, &stats));
  EXPECT_EQ(stats.loser_txns, 1u);
  test::ExpectTreeContains(db.get(), {1, 2, 3});
}

TEST_F(PersistenceTest, RebuildSurvivesReopen) {
  std::set<uint64_t> expect;
  {
    std::unique_ptr<Db> db;
    ASSERT_OK(Db::Open(opts_, &db));
    std::vector<uint64_t> all, odd;
    for (uint64_t i = 0; i < 3000; ++i) all.push_back(i);
    test::InsertMany(db.get(), all);
    for (uint64_t i = 1; i < 3000; i += 2) odd.push_back(i);
    test::DeleteMany(db.get(), odd);
    for (uint64_t i = 0; i < 3000; i += 2) expect.insert(i);
    RebuildOptions ropts;
    ropts.xactsize = 64;
    RebuildResult res;
    ASSERT_OK(db->index()->RebuildOnline(ropts, &res));
  }
  std::unique_ptr<Db> db;
  ASSERT_OK(Db::OpenExisting(opts_, &db));
  test::ExpectTreeContains(db.get(), expect);
  EXPECT_EQ(db->space_manager()->CountInState(PageState::kDeallocated), 0u);
}

TEST_F(PersistenceTest, CheckpointBoundsReopenScan) {
  std::set<uint64_t> ids;
  {
    std::unique_ptr<Db> db;
    ASSERT_OK(Db::Open(opts_, &db));
    auto txn = db->BeginTxn();
    for (uint64_t i = 0; i < 2000; ++i) {
      ASSERT_OK(db->index()->Insert(txn.get(), NumKey(i), i));
      ids.insert(i);
    }
    ASSERT_OK(db->Commit(txn.get()));
    ASSERT_OK(db->Checkpoint());
    test::InsertMany(db.get(), {50001});
    ids.insert(50001);
  }
  std::unique_ptr<Db> db;
  RecoveryStats stats;
  ASSERT_OK(Db::OpenExisting(opts_, &db, &stats));
  EXPECT_LT(stats.records_scanned, 100u);  // bounded by the checkpoint
  test::ExpectTreeContains(db.get(), ids);
}

TEST_F(PersistenceTest, TruncatedLogReopens) {
  std::set<uint64_t> ids;
  {
    std::unique_ptr<Db> db;
    ASSERT_OK(Db::Open(opts_, &db));
    auto txn = db->BeginTxn();
    for (uint64_t i = 0; i < 2000; ++i) {
      ASSERT_OK(db->index()->Insert(txn.get(), NumKey(i), i));
      ids.insert(i);
    }
    ASSERT_OK(db->Commit(txn.get()));
    ASSERT_OK(db->CheckpointAndTruncate());
  }
  std::unique_ptr<Db> db;
  ASSERT_OK(Db::OpenExisting(opts_, &db));
  test::ExpectTreeContains(db.get(), ids);
}

TEST_F(PersistenceTest, RepeatedReopenCycles) {
  std::set<uint64_t> ids;
  for (int round = 0; round < 4; ++round) {
    std::unique_ptr<Db> db;
    if (round == 0) {
      ASSERT_OK(Db::Open(opts_, &db));
    } else {
      ASSERT_OK(Db::OpenExisting(opts_, &db));
      test::ExpectTreeContains(db.get(), ids);
    }
    auto txn = db->BeginTxn();
    for (uint64_t i = 0; i < 200; ++i) {
      uint64_t id = round * 1000 + i;
      ASSERT_OK(db->index()->Insert(txn.get(), NumKey(id), id));
      ids.insert(id);
    }
    ASSERT_OK(db->Commit(txn.get()));
    if (round % 2 == 1) ASSERT_OK(db->CheckpointAndTruncate());
  }
  std::unique_ptr<Db> db;
  ASSERT_OK(Db::OpenExisting(opts_, &db));
  test::ExpectTreeContains(db.get(), ids);
}

TEST_F(PersistenceTest, TornLogTailIsDiscarded) {
  {
    std::unique_ptr<Db> db;
    ASSERT_OK(Db::Open(opts_, &db));
    test::InsertMany(db.get(), {1, 2, 3});
  }
  // Corrupt the tail: append garbage bytes to the log file (a torn write).
  {
    FILE* f = std::fopen((base_ + ".log").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "\x30\x01\x00\x00torn-record-bytes";
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  std::unique_ptr<Db> db;
  ASSERT_OK(Db::OpenExisting(opts_, &db));
  test::ExpectTreeContains(db.get(), {1, 2, 3});
  // New work appends cleanly after the truncated tail.
  test::InsertMany(db.get(), {4});
  db.reset();
  ASSERT_OK(Db::OpenExisting(opts_, &db));
  test::ExpectTreeContains(db.get(), {1, 2, 3, 4});
}

TEST_F(PersistenceTest, OpenExistingValidatesOptions) {
  std::unique_ptr<Db> db;
  DbOptions bad;
  EXPECT_TRUE(Db::OpenExisting(bad, &db).IsInvalidArgument());
}

}  // namespace
}  // namespace oir
