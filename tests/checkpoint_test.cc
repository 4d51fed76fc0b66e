// Checkpoint + log truncation tests: recovery scans from the master
// checkpoint, checkpoints survive only when durable, active transactions
// at checkpoint time are still rolled back, and truncation never removes
// log an active transaction or the checkpoint needs.

#include <gtest/gtest.h>

#include "core/db.h"
#include "core/index.h"
#include "tests/test_util.h"

namespace oir {
namespace {

using test::MakeDb;
using test::NumKey;

TEST(CheckpointTest, RecoveryScansFromCheckpoint) {
  auto db = MakeDb();
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 2000; ++i) ids.push_back(i);
  test::InsertMany(db.get(), ids);

  ASSERT_OK(db->Checkpoint());
  // Work after the checkpoint.
  test::InsertMany(db.get(), {100001, 100002, 100003});

  RecoveryStats stats;
  ASSERT_OK(db->CrashAndRecover(&stats));
  // Only the post-checkpoint tail was scanned: far fewer records than the
  // full history (2000 inserts ≈ 2000+ records).
  EXPECT_LT(stats.records_scanned, 200u);
  std::set<uint64_t> expect(ids.begin(), ids.end());
  expect.insert({100001, 100002, 100003});
  test::ExpectTreeContains(db.get(), expect);
}

TEST(CheckpointTest, CheckpointWithNoFollowingWork) {
  auto db = MakeDb();
  test::InsertMany(db.get(), {1, 2, 3});
  ASSERT_OK(db->Checkpoint());
  RecoveryStats stats;
  ASSERT_OK(db->CrashAndRecover(&stats));
  test::ExpectTreeContains(db.get(), {1, 2, 3});
}

TEST(CheckpointTest, RepeatedCheckpointsUseLatest) {
  auto db = MakeDb();
  std::set<uint64_t> expect;
  for (int round = 0; round < 5; ++round) {
    auto txn = db->BeginTxn();
    for (uint64_t i = 0; i < 100; ++i) {
      uint64_t id = round * 1000 + i;
      ASSERT_OK(db->index()->Insert(txn.get(), NumKey(id), id));
      expect.insert(id);
    }
    ASSERT_OK(db->Commit(txn.get()));
    ASSERT_OK(db->Checkpoint());
  }
  RecoveryStats stats;
  ASSERT_OK(db->CrashAndRecover(&stats));
  EXPECT_LT(stats.records_scanned, 50u);  // only the tail after ckpt #5
  test::ExpectTreeContains(db.get(), expect);
}

TEST(CheckpointTest, ActiveTxnAtCheckpointIsRolledBack) {
  auto db = MakeDb();
  test::InsertMany(db.get(), {10, 20, 30});
  // A transaction straddling the checkpoint, never committed.
  auto loser = db->BeginTxn();
  ASSERT_OK(db->index()->Insert(loser.get(), NumKey(77), 77));
  ASSERT_OK(db->Checkpoint());
  ASSERT_OK(db->index()->Insert(loser.get(), NumKey(88), 88));
  ASSERT_OK(db->log_manager()->FlushAll());
  test::AbandonTxn(std::move(loser));

  RecoveryStats stats;
  ASSERT_OK(db->CrashAndRecover(&stats));
  EXPECT_EQ(stats.loser_txns, 1u);
  test::ExpectTreeContains(db.get(), {10, 20, 30});
}

TEST(CheckpointTest, ActiveTxnWithAllRecordsBeforeCheckpoint) {
  auto db = MakeDb();
  test::InsertMany(db.get(), {1});
  auto loser = db->BeginTxn();
  ASSERT_OK(db->index()->Insert(loser.get(), NumKey(55), 55));
  // Checkpoint after the loser's last record; loser then goes idle.
  ASSERT_OK(db->Checkpoint());
  test::InsertMany(db.get(), {2});
  ASSERT_OK(db->log_manager()->FlushAll());
  test::AbandonTxn(std::move(loser));

  RecoveryStats stats;
  ASSERT_OK(db->CrashAndRecover(&stats));
  // The loser appears only in the checkpoint's transaction table; its undo
  // chain is reached through the snapshot, not the scan.
  EXPECT_EQ(stats.loser_txns, 1u);
  test::ExpectTreeContains(db.get(), {1, 2});
}

// A transaction destroyed while still active (an error unwound its owner
// before Commit or Abort) leaves the active table as an orphan: the
// diagnostic dump never reads the freed object, and a later checkpoint
// still lists it, so recovery rolls it back.
TEST(CheckpointTest, DestroyedActiveTxnStaysALoser) {
  auto db = MakeDb();
  test::InsertMany(db.get(), {1});
  {
    auto loser = db->BeginTxn();
    ASSERT_OK(db->index()->Insert(loser.get(), NumKey(55), 55));
  }
  EXPECT_EQ(db->txn_manager()->NumActive(), 1u);
  EXPECT_NE(db->txn_manager()->DumpActiveTxnsJson().find("orphaned"),
            std::string::npos);
  ASSERT_OK(db->Checkpoint());
  test::InsertMany(db.get(), {2});
  ASSERT_OK(db->log_manager()->FlushAll());

  RecoveryStats stats;
  ASSERT_OK(db->CrashAndRecover(&stats));
  EXPECT_EQ(stats.loser_txns, 1u);
  EXPECT_EQ(db->txn_manager()->NumActive(), 0u);
  test::ExpectTreeContains(db.get(), {1, 2});
}

TEST(CheckpointTest, UndurableCheckpointDoesNotSurviveCrash) {
  auto db = MakeDb();
  test::InsertMany(db.get(), {1, 2, 3});
  // Hand-roll an unforced checkpoint: master points at a record beyond the
  // durable boundary.
  ASSERT_OK(db->Checkpoint());
  Lsn good_master = db->log_manager()->master_checkpoint();
  // More work + a second checkpoint record that never becomes durable.
  test::InsertMany(db.get(), {4});
  LogRecord fake;
  fake.type = LogType::kCheckpoint;
  fake.old_page_lsn = db->log_manager()->tail_lsn();
  Lsn fake_lsn = db->log_manager()->AppendSystem(&fake);
  // Simulate the "publish before force" bug: set master without flushing.
  // SetMasterCheckpoint only promotes the durable copy once flushed, so
  // after the crash the previous checkpoint must win.
  db->log_manager()->SetMasterCheckpoint(fake_lsn);

  RecoveryStats stats;
  ASSERT_OK(db->CrashAndRecover(&stats));
  EXPECT_EQ(db->log_manager()->master_checkpoint(), good_master);
  // {4} committed with a forced commit record, so it survives even though
  // the fake checkpoint vanished.
  test::ExpectTreeContains(db.get(), {1, 2, 3, 4});
}

TEST(CheckpointTest, TruncationReclaimsLog) {
  auto db = MakeDb();
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 2000; ++i) ids.push_back(i);
  test::InsertMany(db.get(), ids);
  uint64_t before_head = db->log_manager()->head_lsn();
  ASSERT_OK(db->CheckpointAndTruncate());
  EXPECT_GT(db->log_manager()->head_lsn(), before_head);
  // Old records are gone...
  LogRecord rec;
  EXPECT_FALSE(db->log_manager()->ReadRecord(before_head, &rec).ok());
  // ...and recovery still works from the checkpoint.
  RecoveryStats stats;
  ASSERT_OK(db->CrashAndRecover(&stats));
  test::ExpectTreeContains(db.get(),
                           std::set<uint64_t>(ids.begin(), ids.end()));
}

TEST(CheckpointTest, TruncationHorizonRespectsActiveTxn) {
  auto db = MakeDb();
  test::InsertMany(db.get(), {1, 2, 3});
  auto active = db->BeginTxn();
  ASSERT_OK(db->index()->Insert(active.get(), NumKey(99), 99));
  Lsn horizon = kInvalidLsn;
  ASSERT_OK(db->Checkpoint(&horizon));
  // The horizon must not pass the active transaction's begin record.
  EXPECT_LE(horizon, active->begin_lsn());
  db->log_manager()->DiscardPrefix(horizon);
  // The active transaction can still roll back (its chain is intact).
  ASSERT_OK(db->Abort(active.get()));
  test::ExpectTreeContains(db.get(), {1, 2, 3});
}

TEST(CheckpointTest, CheckpointDuringRebuildWorkload) {
  auto db = MakeDb();
  std::vector<uint64_t> all, odd;
  for (uint64_t i = 0; i < 4000; ++i) all.push_back(i);
  test::InsertMany(db.get(), all);
  for (uint64_t i = 1; i < 4000; i += 2) odd.push_back(i);
  test::DeleteMany(db.get(), odd);

  RebuildOptions opts;
  opts.xactsize = 64;
  RebuildResult res;
  ASSERT_OK(db->index()->RebuildOnline(opts, &res));
  ASSERT_OK(db->CheckpointAndTruncate());
  // More rebuild-era churn after the checkpoint.
  test::InsertMany(db.get(), {900001, 900003});
  RecoveryStats stats;
  ASSERT_OK(db->CrashAndRecover(&stats));
  std::set<uint64_t> expect;
  for (uint64_t i = 0; i < 4000; i += 2) expect.insert(i);
  expect.insert({900001, 900003});
  test::ExpectTreeContains(db.get(), expect);
}

TEST(CheckpointTest, CrashBeforeAnyCheckpointStillRecovers) {
  auto db = MakeDb();
  test::InsertMany(db.get(), {5, 6, 7});
  RecoveryStats stats;
  ASSERT_OK(db->CrashAndRecover(&stats));  // scans from the head
  test::ExpectTreeContains(db.get(), {5, 6, 7});
}

}  // namespace
}  // namespace oir
