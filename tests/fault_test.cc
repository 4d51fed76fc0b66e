// Fault-injection building blocks: the crash-point registry, the
// FaultInjectingDisk decorator (power cut, torn writes, transient errors),
// WAL flush failure injection, and torn-log-tail truncation at recovery —
// unit level (LogManager) and end to end (Db::OpenExisting).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>

#include "core/db.h"
#include "core/index.h"
#include "storage/disk.h"
#include "testing/crash_point.h"
#include "testing/fault_disk.h"
#include "testing/oracle.h"
#include "tests/test_util.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace oir {
namespace {

using fault::CrashPointRegistry;
using fault::FaultInjectingDisk;
using test::NumKey;

// ---------------------------------------------------------------- registry

class CrashPointTest : public ::testing::Test {
 protected:
  void SetUp() override { Clear(); }
  void TearDown() override { Clear(); }
  void Clear() {
    CrashPointRegistry::SetEnabled(false);
    CrashPointRegistry::Get().Disarm();
    CrashPointRegistry::Get().ResetCounts();
  }
};

TEST_F(CrashPointTest, DisabledRegistryCountsNothing) {
  OIR_CRASH_POINT("test.disabled.point");
  EXPECT_TRUE(CrashPointRegistry::Get().Snapshot().empty());
}

TEST_F(CrashPointTest, CountsHitsPerName) {
  CrashPointRegistry::SetEnabled(true);
  OIR_CRASH_POINT("test.point.a");
  OIR_CRASH_POINT("test.point.a");
  OIR_CRASH_POINT("test.point.b");
  CrashPointRegistry::SetEnabled(false);
  auto snap = CrashPointRegistry::Get().Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "test.point.a");
  EXPECT_EQ(snap[0].second, 2u);
  EXPECT_EQ(snap[1].first, "test.point.b");
  EXPECT_EQ(snap[1].second, 1u);
}

TEST_F(CrashPointTest, ArmedHandlerFiresOnceAtChosenOrdinal) {
  auto& reg = CrashPointRegistry::Get();
  int fired = 0;
  reg.Arm("test.point.a", 2, [&fired] { ++fired; });
  CrashPointRegistry::SetEnabled(true);
  OIR_CRASH_POINT("test.point.a");  // hit 0
  OIR_CRASH_POINT("test.point.b");  // other name: never fires
  EXPECT_FALSE(reg.triggered());
  OIR_CRASH_POINT("test.point.a");  // hit 1
  EXPECT_EQ(fired, 0);
  OIR_CRASH_POINT("test.point.a");  // hit 2: fires
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(reg.triggered());
  OIR_CRASH_POINT("test.point.a");  // exactly once
  CrashPointRegistry::SetEnabled(false);
  EXPECT_EQ(fired, 1);
}

TEST_F(CrashPointTest, ParseSpec) {
  std::string name;
  uint64_t hit = 99;
  EXPECT_TRUE(CrashPointRegistry::ParseSpec("wal.flush.pre", &name, &hit));
  EXPECT_EQ(name, "wal.flush.pre");
  EXPECT_EQ(hit, 0u);
  EXPECT_TRUE(CrashPointRegistry::ParseSpec("btree.split.alloc#12", &name,
                                            &hit));
  EXPECT_EQ(name, "btree.split.alloc");
  EXPECT_EQ(hit, 12u);
  EXPECT_FALSE(CrashPointRegistry::ParseSpec("", &name, &hit));
  EXPECT_FALSE(CrashPointRegistry::ParseSpec("a#", &name, &hit));
  EXPECT_FALSE(CrashPointRegistry::ParseSpec("a#12x", &name, &hit));
  EXPECT_FALSE(CrashPointRegistry::ParseSpec("#3", &name, &hit));
}

// -------------------------------------------------------------- fault disk

TEST(FaultDiskTest, PowerCutFailsWritesButReadsSurvive) {
  FaultInjectingDisk disk(std::make_unique<MemDisk>(512, 8));
  std::string a(512, 'a'), b(512, 'b'), got(512, '\0');
  ASSERT_OK(disk.WritePage(2, a.data()));
  disk.CutPower();
  EXPECT_TRUE(disk.power_cut());
  EXPECT_FALSE(disk.WritePage(2, b.data()).ok());
  EXPECT_FALSE(disk.Sync().ok());
  ASSERT_OK(disk.ReadPage(2, got.data()));
  EXPECT_EQ(got, a);  // the pre-cut image is what the platter holds
  EXPECT_GE(disk.injected_faults(), 2u);
  disk.Restore();
  ASSERT_OK(disk.WritePage(2, b.data()));
  ASSERT_OK(disk.ReadPage(2, got.data()));
  EXPECT_EQ(got, b);
}

TEST(FaultDiskTest, TransientErrorsHealAfterN) {
  FaultInjectingDisk disk(std::make_unique<MemDisk>(512, 8));
  std::string buf(512, 'x');
  disk.FailNextWrites(2);
  EXPECT_FALSE(disk.WritePage(1, buf.data()).ok());
  EXPECT_FALSE(disk.WritePage(1, buf.data()).ok());
  ASSERT_OK(disk.WritePage(1, buf.data()));
  EXPECT_EQ(disk.injected_faults(), 2u);
}

TEST(FaultDiskTest, TornWriteKeepsLeadingSectorsAndCutsPower) {
  FaultInjectingDisk disk(std::make_unique<MemDisk>(2048, 8));
  std::string oldimg(2048, 'o'), newimg(2048, 'n'), got(2048, '\0');
  ASSERT_OK(disk.WritePage(3, oldimg.data()));
  disk.TearNextWrite(3, 1);  // only the first 512-byte sector lands
  EXPECT_FALSE(disk.WritePage(3, newimg.data()).ok());
  EXPECT_TRUE(disk.power_cut());
  ASSERT_OK(disk.ReadPage(3, got.data()));
  EXPECT_EQ(got.substr(0, 512), std::string(512, 'n'));
  EXPECT_EQ(got.substr(512), std::string(2048 - 512, 'o'));
}

TEST(FaultDiskTest, TornMultiPageWriteStopsAtTornPage) {
  FaultInjectingDisk disk(std::make_unique<MemDisk>(1024, 16));
  std::string oldimg(3 * 1024, 'o'), newimg(3 * 1024, 'n');
  ASSERT_OK(disk.WriteMulti(4, 3, oldimg.data()));
  disk.TearNextWrite(5, 1);  // middle page of the 3-page transfer
  EXPECT_FALSE(disk.WriteMulti(4, 3, newimg.data()).ok());
  std::string got(1024, '\0');
  ASSERT_OK(disk.ReadPage(4, got.data()));
  EXPECT_EQ(got, std::string(1024, 'n'));  // before the tear: full write
  ASSERT_OK(disk.ReadPage(5, got.data()));
  EXPECT_EQ(got.substr(0, 512), std::string(512, 'n'));
  EXPECT_EQ(got.substr(512), std::string(512, 'o'));
  ASSERT_OK(disk.ReadPage(6, got.data()));
  EXPECT_EQ(got, std::string(1024, 'o'));  // after the tear: nothing landed
}

// ------------------------------------------------------- WAL flush faults

TEST(FailFlushesTest, SyncFlushFailsWhileSetAndHeals) {
  LogManager log;
  TxnContext ctx{1, kInvalidLsn};
  LogRecord a;
  a.type = LogType::kBeginTxn;
  Lsn la = log.Append(&a, &ctx);
  ASSERT_OK(log.FlushTo(la));
  LogRecord b;
  b.type = LogType::kCommitTxn;
  Lsn lb = log.Append(&b, &ctx);
  log.SetFailFlushes(true);
  EXPECT_FALSE(log.FlushTo(lb).ok());
  // Already-durable prefixes still report success — the device refuses new
  // work, it does not un-write old bytes.
  EXPECT_OK(log.FlushTo(la));
  log.SetFailFlushes(false);
  EXPECT_OK(log.FlushTo(lb));
  EXPECT_GT(log.durable_lsn(), lb);
}

TEST(FailFlushesTest, GroupCommitFlushPublishesError) {
  LogManager log;
  log.EnableGroupCommit();
  TxnContext ctx{1, kInvalidLsn};
  LogRecord a;
  a.type = LogType::kCommitTxn;
  Lsn la = log.Append(&a, &ctx);
  log.SetFailFlushes(true);
  EXPECT_FALSE(log.FlushTo(la).ok());
  log.SetFailFlushes(false);
  EXPECT_OK(log.FlushTo(la));
}

// ---------------------------------------------------------- torn log tail

class TornTailTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/oir_torntail_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".log";
    Cleanup();
  }
  void TearDown() override { Cleanup(); }
  void Cleanup() {
    std::remove(path_.c_str());
    std::remove((path_ + ".master").c_str());
  }

  // Appends `n` flushed system records; returns the file size.
  long WriteRecords(int n) {
    std::unique_ptr<LogManager> log;
    EXPECT_OK(LogManager::Open(path_, /*truncate=*/true, &log));
    for (int i = 0; i < n; ++i) {
      LogRecord rec;
      rec.type = LogType::kNtaEnd;
      rec.page_id = static_cast<PageId>(i);
      log->AppendSystem(&rec);
    }
    EXPECT_OK(log->FlushAll());
    log.reset();  // closes the file
    FILE* f = std::fopen(path_.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fclose(f);
    return size;
  }

  int CountRecords(LogManager* log) {
    int count = 0;
    for (auto it = log->Scan(log->head_lsn()); it.Valid(); it.Next()) ++count;
    return count;
  }

  std::string path_;
};

TEST_F(TornTailTest, FileLogTruncatedMidRecordIsCutAtLastValidRecord) {
  long size = WriteRecords(6);
  ASSERT_GT(size, 3);
  // Chop 3 bytes off the tail: the last record's frame is now truncated,
  // exactly what a crash mid-write leaves behind.
  ASSERT_EQ(::truncate(path_.c_str(), size - 3), 0);
  std::unique_ptr<LogManager> log;
  ASSERT_OK(LogManager::Open(path_, /*truncate=*/false, &log));
  EXPECT_EQ(CountRecords(log.get()), 5);
  // The truncated tail is gone for good: new appends extend a clean chain.
  LogRecord rec;
  rec.type = LogType::kNtaEnd;
  rec.page_id = 777;
  log->AppendSystem(&rec);
  ASSERT_OK(log->FlushAll());
  log.reset();
  ASSERT_OK(LogManager::Open(path_, /*truncate=*/false, &log));
  EXPECT_EQ(CountRecords(log.get()), 6);
}

TEST_F(TornTailTest, FileLogBadCrcAtTailIsCutAtLastValidRecord) {
  long size = WriteRecords(6);
  ASSERT_GT(size, 0);
  // Flip the last payload byte: frame length is intact but the CRC fails.
  FILE* f = std::fopen(path_.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, size - 1, SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, size - 1, SEEK_SET), 0);
  std::fputc(c ^ 0xff, f);
  std::fclose(f);
  std::unique_ptr<LogManager> log;
  ASSERT_OK(LogManager::Open(path_, /*truncate=*/false, &log));
  EXPECT_EQ(CountRecords(log.get()), 5);
}

TEST_F(TornTailTest, MemoryLogDiscardsUndurableTailOnCrash) {
  LogManager log;
  LogRecord rec;
  rec.type = LogType::kNtaEnd;
  rec.page_id = 1;
  Lsn l1 = log.AppendSystem(&rec);
  ASSERT_OK(log.FlushTo(l1));
  rec.page_id = 2;
  Lsn l2 = log.AppendSystem(&rec);
  log.SimulateCrash();
  EXPECT_EQ(CountRecords(&log), 1);
  LogRecord out;
  EXPECT_FALSE(log.ReadRecord(l2, &out).ok());
  // Appends after the crash extend the durable prefix cleanly.
  rec.page_id = 3;
  Lsn l3 = log.AppendSystem(&rec);
  ASSERT_OK(log.FlushTo(l3));
  EXPECT_EQ(CountRecords(&log), 2);
}

TEST_F(TornTailTest, OpenExistingRecoversPastGarbageTail) {
  std::string base = ::testing::TempDir() + "/oir_torntail_e2e";
  DbOptions opts;
  opts.file_path = base + ".db";
  opts.log_path = base + ".log";
  std::remove(opts.file_path.c_str());
  std::remove(opts.log_path.c_str());
  std::remove((opts.log_path + ".master").c_str());

  std::set<uint64_t> ids;
  {
    std::unique_ptr<Db> db;
    ASSERT_OK(Db::Open(opts, &db));
    auto txn = db->BeginTxn();
    for (uint64_t i = 0; i < 200; ++i) {
      ASSERT_OK(db->index()->Insert(txn.get(), NumKey(i), i));
      ids.insert(i);
    }
    ASSERT_OK(db->Commit(txn.get()));
  }
  // A crash mid-append leaves a half-written frame after the committed
  // prefix; recovery must truncate it, not reject the log.
  FILE* f = std::fopen(opts.log_path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::string garbage(100, '\x5a');
  ASSERT_EQ(std::fwrite(garbage.data(), 1, garbage.size(), f),
            garbage.size());
  std::fclose(f);

  std::unique_ptr<Db> db;
  RecoveryStats stats;
  ASSERT_OK(Db::OpenExisting(opts, &db, &stats));
  test::ExpectTreeContains(db.get(), ids);
  EXPECT_OK(fault::CheckInvariants(db->tree(), db->space_manager(),
                                   db->buffer_manager()));

  std::remove(opts.file_path.c_str());
  std::remove(opts.log_path.c_str());
  std::remove((opts.log_path + ".master").c_str());
}

// ------------------------------------------- transient write-back retries

TEST(TransientWriteTest, CheckpointRetriesAfterTransientDiskError) {
  DbOptions opts;
  opts.buffer_pool_pages = 1 << 12;
  FaultInjectingDisk* fdisk = nullptr;
  opts.wrap_disk = [&fdisk](std::unique_ptr<Disk> base) {
    auto wrapped = std::make_unique<FaultInjectingDisk>(std::move(base));
    fdisk = wrapped.get();
    return wrapped;
  };
  std::unique_ptr<Db> db;
  ASSERT_OK(Db::Open(opts, &db));
  ASSERT_NE(fdisk, nullptr);

  std::set<uint64_t> ids;
  auto txn = db->BeginTxn();
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_OK(db->index()->Insert(txn.get(), NumKey(i), i));
    ids.insert(i);
  }
  ASSERT_OK(db->Commit(txn.get()));

  // First checkpoint hits a transient device error and fails; the dirty
  // pages must stay dirty, so the retry writes everything out.
  fdisk->FailNextWrites(1);
  EXPECT_FALSE(db->Checkpoint().ok());
  EXPECT_EQ(fdisk->injected_faults(), 1u);
  ASSERT_OK(db->Checkpoint());

  // If the failed flush had clean-marked a page without writing it, redo
  // from the checkpoint would lose its pre-checkpoint updates.
  RecoveryStats stats;
  ASSERT_OK(db->CrashAndRecover(&stats));
  test::ExpectTreeContains(db.get(), ids);
  EXPECT_OK(fault::CheckInvariants(db->tree(), db->space_manager(),
                                   db->buffer_manager()));
}

// --------------------------------------- rebuild forced-write failures

// Opens a Db over a FaultInjectingDisk holding `n` committed keys.
std::unique_ptr<Db> OpenFaultDb(uint64_t n, FaultInjectingDisk** fdisk,
                                std::set<uint64_t>* ids) {
  DbOptions opts;
  opts.buffer_pool_pages = 1 << 12;
  opts.wrap_disk = [fdisk](std::unique_ptr<Disk> base) {
    auto wrapped = std::make_unique<FaultInjectingDisk>(std::move(base));
    *fdisk = wrapped.get();
    return wrapped;
  };
  std::unique_ptr<Db> db;
  EXPECT_OK(Db::Open(opts, &db));
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < n; ++i) keys.push_back(i);
  test::InsertMany(db.get(), keys);
  ids->insert(keys.begin(), keys.end());
  return db;
}

// Runs an online rebuild whose first end-of-transaction forced write meets
// `failed_writes` failing device writes.
Status RebuildWithFailingFlush(Db* db, FaultInjectingDisk* fdisk,
                               uint32_t failed_writes) {
  auto& reg = CrashPointRegistry::Get();
  reg.ResetCounts();
  reg.Arm("rebuild.txn.flush", 0,
          [fdisk, failed_writes] { fdisk->FailNextWrites(failed_writes); });
  CrashPointRegistry::SetEnabled(true);
  RebuildResult res;
  Status s = db->index()->RebuildOnline(RebuildOptions(), &res);
  CrashPointRegistry::SetEnabled(false);
  EXPECT_TRUE(reg.triggered());
  reg.Disarm();
  return s;
}

// The failed write aborts the rebuild transaction instead of leaking it in
// the active table (a later checkpoint snapshots that table).
TEST(RebuildFaultTest, FailedForcedWriteAbortsRebuildTransaction) {
  FaultInjectingDisk* fdisk = nullptr;
  std::set<uint64_t> ids;
  auto db = OpenFaultDb(3000, &fdisk, &ids);
  EXPECT_FALSE(RebuildWithFailingFlush(db.get(), fdisk, 1).ok());
  EXPECT_EQ(db->txn_manager()->NumActive(), 0u);
  ASSERT_OK(db->Checkpoint());
  EXPECT_OK(fault::CheckInvariants(db->tree(), db->space_manager(),
                                   db->buffer_manager()));
  test::ExpectTreeContains(db.get(), ids);
}

// When the abort path's own forced write fails too, the old pages must not
// be freed (Section 3): the keycopy records redo the new pages from them.
TEST(RebuildFaultTest, OldPagesKeptWhenAbortFlushFails) {
  FaultInjectingDisk* fdisk = nullptr;
  std::set<uint64_t> ids;
  auto db = OpenFaultDb(3000, &fdisk, &ids);
  EXPECT_FALSE(RebuildWithFailingFlush(db.get(), fdisk, 1u << 20).ok());
  fdisk->Restore();
  EXPECT_EQ(db->txn_manager()->NumActive(), 0u);
  EXPECT_GT(db->space_manager()->CountInState(PageState::kDeallocated), 0u);
  RecoveryStats stats;
  ASSERT_OK(db->CrashAndRecover(&stats));
  EXPECT_OK(fault::CheckInvariants(db->tree(), db->space_manager(),
                                   db->buffer_manager()));
  test::ExpectTreeContains(db.get(), ids);
}

}  // namespace
}  // namespace oir
