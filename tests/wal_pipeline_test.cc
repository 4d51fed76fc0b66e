// Tests for the pipelined durable WAL: FlushTo waiter correctness with
// many threads waiting on interleaved LSNs across segment boundaries,
// error-epoch propagation (and healing) when the durable path hits a
// transient disk error, torn-segment-tail recovery on reopen, O_DIRECT
// round trips, sync-mode selection via the environment override, and the
// exact group-commit accounting (commits acked / groups acked).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "tests/test_util.h"
#include "util/counters.h"
#include "wal/log_manager.h"

namespace oir {
namespace {

std::string TestWalPath(const char* tag) {
  return ::testing::TempDir() + "/oir_wal_pipeline_" + tag + "_" +
         std::to_string(::getpid()) + ".log";
}

void RemoveWalFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".master").c_str());
  std::remove((path + ".master.tmp").c_str());
}

// Saves/restores one environment variable around a test body.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

// Many committers on a file-backed log with segments small enough that
// every thread's waits straddle segment boundaries: every acknowledged
// LSN must be durable at ack time, and every record must survive a
// process "restart" (close + reopen).
TEST(WalPipelineTest, InterleavedWaitersAcrossSegments) {
  const std::string path = TestWalPath("interleaved");
  RemoveWalFiles(path);

  WalOptions wal;
  wal.segment_bytes = 4096;  // force many seals
  wal.inflight_segments = 4;
  std::unique_ptr<LogManager> log;
  ASSERT_OK(LogManager::Open(path, /*truncate=*/true, &log, wal));
  ASSERT_TRUE(log->group_commit());

  constexpr int kThreads = 8;
  constexpr int kPer = 150;
  auto before = GlobalCounters::Get().Snapshot();
  std::mutex mu;
  std::vector<Lsn> acked;
  std::atomic<int> not_durable_at_ack{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TxnContext ctx{static_cast<TxnId>(t + 1), kInvalidLsn};
      for (int i = 0; i < kPer; ++i) {
        LogRecord rec;
        rec.type = LogType::kCommitTxn;
        Lsn lsn = log->Append(&rec, &ctx);
        ASSERT_OK(log->FlushTo(lsn));
        if (log->durable_lsn() <= lsn) not_durable_at_ack.fetch_add(1);
        std::lock_guard<std::mutex> l(mu);
        acked.push_back(lsn);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(not_durable_at_ack.load(), 0);

  auto delta = GlobalCounters::Get().Snapshot() - before;
  // 8 * 150 records over 4K segments: the workload must actually have
  // exercised the pipeline, not one giant flush.
  EXPECT_GT(delta.wal_segments_sealed, 4u);
  EXPECT_EQ(delta.wal_segments_sealed, delta.wal_segments_completed);
  EXPECT_EQ(delta.log_commits_acked, uint64_t{kThreads} * kPer);
  // Every completed segment's write+sync time is in the device histogram.
  EXPECT_EQ(log->segment_io_ns().Count(), delta.wal_segments_completed);

  // Restart: every acknowledged record must still parse from the file.
  log.reset();
  std::unique_ptr<LogManager> reopened;
  ASSERT_OK(LogManager::Open(path, /*truncate=*/false, &reopened, wal));
  for (Lsn lsn : acked) {
    LogRecord rec;
    ASSERT_OK(reopened->ReadRecord(lsn, &rec));
    EXPECT_EQ(rec.type, LogType::kCommitTxn);
  }
  reopened.reset();
  RemoveWalFiles(path);
}

// A transient durable-path failure must reach exactly the waiters whose
// records were not yet durable (error epoch), leave the boundary frozen,
// and heal completely once the fault clears: later FlushTo calls — for
// the same LSNs — succeed and the records are durable.
TEST(WalPipelineTest, TransientErrorPropagatesAndHeals) {
  LogManager log;  // in-memory: pipeline runs without physical I/O
  log.EnableGroupCommit();

  TxnContext ctx{1, kInvalidLsn};
  LogRecord rec;
  rec.type = LogType::kCommitTxn;
  Lsn ok_lsn = log.Append(&rec, &ctx);
  ASSERT_OK(log.FlushTo(ok_lsn));
  const Lsn durable_before = log.durable_lsn();

  log.SetFailFlushes(true);
  constexpr int kWaiters = 6;
  std::vector<Lsn> pending;
  for (int i = 0; i < kWaiters; ++i) {
    LogRecord r;
    r.type = LogType::kCommitTxn;
    pending.push_back(log.Append(&r, &ctx));
  }
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (Lsn lsn : pending) {
    threads.emplace_back([&, lsn] {
      Status s = log.FlushTo(lsn);
      if (s.IsIOError()) errors.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  // Every waiter beyond the frozen boundary saw the error; the boundary
  // itself did not move.
  EXPECT_EQ(errors.load(), kWaiters);
  EXPECT_EQ(log.durable_lsn(), durable_before);
  // An already-durable record still acks OK while the device is "dead".
  EXPECT_OK(log.FlushTo(ok_lsn));

  // Heal: the same LSNs now flush fine and the boundary catches up.
  log.SetFailFlushes(false);
  for (Lsn lsn : pending) {
    EXPECT_OK(log.FlushTo(lsn));
    EXPECT_GT(log.durable_lsn(), lsn);
  }
  // And the records beyond the old boundary are all readable.
  for (Lsn lsn : pending) {
    LogRecord r;
    EXPECT_OK(log.ReadRecord(lsn, &r));
  }
}

// Garbage appended past the durable prefix (a torn final segment) must
// not poison reopen: recovery keeps exactly the valid prefix, truncates
// the torn bytes, and the log accepts new appends afterwards.
TEST(WalPipelineTest, TornSegmentTailRecoversValidPrefix) {
  const std::string path = TestWalPath("torn");
  RemoveWalFiles(path);

  WalOptions wal;
  wal.segment_bytes = 4096;
  std::vector<Lsn> flushed;
  Lsn tail_before = 0;
  {
    std::unique_ptr<LogManager> log;
    ASSERT_OK(LogManager::Open(path, /*truncate=*/true, &log, wal));
    TxnContext ctx{1, kInvalidLsn};
    for (int i = 0; i < 64; ++i) {
      LogRecord rec;
      rec.type = LogType::kCommitTxn;
      flushed.push_back(log->Append(&rec, &ctx));
    }
    ASSERT_OK(log->FlushAll());
    tail_before = log->tail_lsn();
  }

  // Simulate a torn segment: bytes that hit the platter without their
  // frame ever becoming valid.
  {
    int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
    ASSERT_GE(fd, 0);
    std::string garbage(300, '\x7f');
    ASSERT_EQ(::write(fd, garbage.data(), garbage.size()),
              static_cast<ssize_t>(garbage.size()));
    ::close(fd);
  }

  std::unique_ptr<LogManager> log;
  ASSERT_OK(LogManager::Open(path, /*truncate=*/false, &log, wal));
  for (Lsn lsn : flushed) {
    LogRecord rec;
    ASSERT_OK(log->ReadRecord(lsn, &rec));
  }
  // The torn bytes are gone: the tail is the end of the valid prefix,
  // and appending + flushing from there works.
  EXPECT_EQ(log->tail_lsn(), tail_before);
  TxnContext ctx{2, kInvalidLsn};
  LogRecord rec;
  rec.type = LogType::kCommitTxn;
  Lsn lsn = log->Append(&rec, &ctx);
  ASSERT_OK(log->FlushTo(lsn));
  EXPECT_GT(log->durable_lsn(), lsn);
  log.reset();
  RemoveWalFiles(path);
}

// O_DIRECT needs sector-aligned offsets, lengths and source buffers. Many
// committers with small segments make the sealer pad and re-materialize
// shared sectors constantly; every acked record must survive a reopen.
TEST(WalPipelineTest, ODirectCommitsSurviveReopen) {
  const std::string path = TestWalPath("odirect");
  RemoveWalFiles(path);

  WalOptions wal;
  wal.segment_bytes = 4096;
  wal.sync_mode = WalSyncMode::kODirect;
  std::unique_ptr<LogManager> log;
  ASSERT_OK(LogManager::Open(path, /*truncate=*/true, &log, wal));
  if (std::string(log->sync_mode_name()) != "odirect") {
    log.reset();
    RemoveWalFiles(path);
    GTEST_SKIP() << "filesystem refuses O_DIRECT (e.g. tmpfs)";
  }

  constexpr int kThreads = 4;
  constexpr int kPer = 100;
  std::mutex mu;
  std::vector<Lsn> acked;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TxnContext ctx{static_cast<TxnId>(t + 1), kInvalidLsn};
      for (int i = 0; i < kPer; ++i) {
        LogRecord rec;
        rec.type = LogType::kCommitTxn;
        Lsn lsn = log->Append(&rec, &ctx);
        ASSERT_OK(log->FlushTo(lsn));
        std::lock_guard<std::mutex> l(mu);
        acked.push_back(lsn);
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(acked.size(), size_t{kThreads} * kPer);

  log.reset();
  std::unique_ptr<LogManager> reopened;
  ASSERT_OK(LogManager::Open(path, /*truncate=*/false, &reopened, wal));
  for (Lsn lsn : acked) {
    LogRecord rec;
    ASSERT_OK(reopened->ReadRecord(lsn, &rec));
    EXPECT_EQ(rec.type, LogType::kCommitTxn);
  }
  reopened.reset();
  RemoveWalFiles(path);
}

// OIR_WAL_SYNC forces the effective sync discipline over WalOptions.
TEST(WalPipelineTest, EnvironmentForcesSyncMode) {
  const std::string path = TestWalPath("sync_env");
  RemoveWalFiles(path);
  ScopedEnv sync("OIR_WAL_SYNC", "fsync");

  WalOptions wal;
  wal.sync_mode = WalSyncMode::kFdatasync;
  std::unique_ptr<LogManager> log;
  ASSERT_OK(LogManager::Open(path, /*truncate=*/true, &log, wal));
  EXPECT_STREQ(log->sync_mode_name(), "fsync");
  EXPECT_TRUE(log->group_commit());

  TxnContext ctx{1, kInvalidLsn};
  LogRecord rec;
  rec.type = LogType::kCommitTxn;
  Lsn lsn = log->Append(&rec, &ctx);
  ASSERT_OK(log->FlushTo(lsn));
  log.reset();
  RemoveWalFiles(path);
}

// The in-memory pipeline (group commit forced on, no physical I/O)
// still runs the full seal/submit/complete protocol — the counters the
// crash sweep relies on must move.
TEST(WalPipelineTest, MemPipelineSealsAndCompletes) {
  LogManager log;
  log.EnableGroupCommit();
  auto before = GlobalCounters::Get().Snapshot();

  TxnContext ctx{1, kInvalidLsn};
  for (int i = 0; i < 32; ++i) {
    LogRecord rec;
    rec.type = LogType::kCommitTxn;
    Lsn lsn = log.Append(&rec, &ctx);
    ASSERT_OK(log.FlushTo(lsn));
  }
  auto delta = GlobalCounters::Get().Snapshot() - before;
  EXPECT_GT(delta.wal_segments_sealed, 0u);
  EXPECT_EQ(delta.wal_segments_sealed, delta.wal_segments_completed);
  EXPECT_EQ(log.durable_lsn(), log.tail_lsn());
}

// Exact group accounting: commits acked is exactly the number of
// group-path FlushTo calls, single- and multi-threaded; a group is one
// durable advance, so single-threaded back-to-back commits form one
// group each and mean group size is exactly 1.
TEST(WalPipelineTest, GroupSizeAccountingIsExact) {
  {
    LogManager log;
    log.EnableGroupCommit();
    auto before = GlobalCounters::Get().Snapshot();
    TxnContext ctx{1, kInvalidLsn};
    constexpr int kN = 40;
    for (int i = 0; i < kN; ++i) {
      LogRecord rec;
      rec.type = LogType::kCommitTxn;
      Lsn lsn = log.Append(&rec, &ctx);
      ASSERT_OK(log.FlushTo(lsn));
    }
    auto delta = GlobalCounters::Get().Snapshot() - before;
    EXPECT_EQ(delta.log_commits_acked, uint64_t{kN});
    EXPECT_EQ(delta.log_groups_acked, uint64_t{kN});  // no overlap → size 1
  }
  {
    LogManager log;
    log.EnableGroupCommit();
    auto before = GlobalCounters::Get().Snapshot();
    constexpr int kThreads = 8;
    constexpr int kPer = 100;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        TxnContext ctx{static_cast<TxnId>(t + 1), kInvalidLsn};
        for (int i = 0; i < kPer; ++i) {
          LogRecord rec;
          rec.type = LogType::kCommitTxn;
          Lsn lsn = log.Append(&rec, &ctx);
          ASSERT_OK(log.FlushTo(lsn));
        }
      });
    }
    for (auto& th : threads) th.join();
    auto delta = GlobalCounters::Get().Snapshot() - before;
    // Every call acked exactly once; grouping can only merge them.
    EXPECT_EQ(delta.log_commits_acked, uint64_t{kThreads} * kPer);
    EXPECT_GE(delta.log_groups_acked, 1u);
    EXPECT_LE(delta.log_groups_acked, delta.log_commits_acked);
  }
}

// Synchronous (group-commit-off) flushes do not touch the group
// accounting — the bench reports mean_group_size only when grouping is
// actually on, so the counters must stay clean otherwise.
TEST(WalPipelineTest, SynchronousFlushLeavesGroupCountersAlone) {
  LogManager log;
  ASSERT_FALSE(log.group_commit());
  auto before = GlobalCounters::Get().Snapshot();
  TxnContext ctx{1, kInvalidLsn};
  for (int i = 0; i < 8; ++i) {
    LogRecord rec;
    rec.type = LogType::kCommitTxn;
    Lsn lsn = log.Append(&rec, &ctx);
    ASSERT_OK(log.FlushTo(lsn));
  }
  auto delta = GlobalCounters::Get().Snapshot() - before;
  EXPECT_EQ(delta.log_commits_acked, 0u);
  EXPECT_EQ(delta.log_groups_acked, 0u);
}

}  // namespace
}  // namespace oir
