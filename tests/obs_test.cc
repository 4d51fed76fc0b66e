// Tests for the observability subsystem: JSON writer/validator, trace ring
// wraparound and disabled-path behaviour, rebuild progress monotonicity
// racing online writers, the lock watchdog, and the Db stats export
// surface (per-Db rebuild and recovery reports, live rebuild progress).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/rebuild.h"
#include "obs/json.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "sync/lock_manager.h"
#include "tests/test_util.h"

namespace oir {
namespace {

using obs::JsonIsValid;
using obs::JsonWriter;
using obs::TraceBuffer;
using obs::TraceEventType;
using test::MakeDb;
using test::NumKey;

// Empties the process-wide trace ring on scope exit, so one test's events
// never show up in the next test's snapshot.
struct TraceClearGuard {
  ~TraceClearGuard() { TraceBuffer::Get().Clear(); }
};

TEST(JsonWriterTest, ObjectsArraysAndEscaping) {
  JsonWriter w;
  w.BeginObject();
  w.Key("n").Value(uint64_t{42});
  w.Key("s").Value("a\"b\\c\n\t");
  w.Key("neg").Value(int64_t{-7});
  w.Key("f").Value(1.5);
  w.Key("b").Value(true);
  w.Key("arr").BeginArray();
  w.Value(uint64_t{1});
  w.Value(uint64_t{2});
  w.EndArray();
  w.Key("empty").BeginObject().EndObject();
  w.EndObject();
  const std::string doc = w.str();
  EXPECT_TRUE(JsonIsValid(doc)) << doc;
  EXPECT_NE(doc.find("\"s\":\"a\\\"b\\\\c\\n\\t\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"arr\":[1,2]"), std::string::npos) << doc;
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeZero) {
  JsonWriter w;
  w.BeginObject();
  w.Key("nan").Value(0.0 / 0.0);
  w.Key("inf").Value(1.0 / 0.0);
  w.EndObject();
  EXPECT_TRUE(JsonIsValid(w.str())) << w.str();
}

TEST(JsonValidatorTest, AcceptsAndRejects) {
  EXPECT_TRUE(JsonIsValid("{}"));
  EXPECT_TRUE(JsonIsValid("[1,2.5,-3e2,\"x\",true,false,null]"));
  EXPECT_TRUE(JsonIsValid("{\"a\":{\"b\":[{}]}}"));
  EXPECT_FALSE(JsonIsValid(""));
  EXPECT_FALSE(JsonIsValid("{"));
  EXPECT_FALSE(JsonIsValid("{\"a\":}"));
  EXPECT_FALSE(JsonIsValid("{\"a\":1,}"));
  EXPECT_FALSE(JsonIsValid("[1 2]"));
  EXPECT_FALSE(JsonIsValid("{\"a\":01}"));
  EXPECT_FALSE(JsonIsValid("\"unterminated"));
  EXPECT_FALSE(JsonIsValid("{} trailing"));
}

TEST(TraceTest, RecordsAndWrapsAround) {
  TraceClearGuard guard;
  auto& tb = TraceBuffer::Get();
  tb.Clear();

  // One thread writes into one ring; overfill it so it wraps.
  const size_t total = TraceBuffer::kRingCapacity + 100;
  for (size_t i = 0; i < total; ++i) {
    tb.Record(TraceEventType::kSmoSplit, i, i + 1);
  }
  std::vector<obs::TraceRecord> snap = tb.Snapshot();
  ASSERT_EQ(snap.size(), TraceBuffer::kRingCapacity);
  // Only the most recent kRingCapacity survive; sorted by timestamp.
  uint64_t min_arg = ~0ull, max_arg = 0;
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].type, TraceEventType::kSmoSplit);
    if (i > 0) {
      EXPECT_GE(snap[i].ts_ns, snap[i - 1].ts_ns);
    }
    min_arg = std::min(min_arg, snap[i].arg0);
    max_arg = std::max(max_arg, snap[i].arg0);
  }
  EXPECT_EQ(max_arg, total - 1);
  EXPECT_EQ(min_arg, total - TraceBuffer::kRingCapacity);

  EXPECT_TRUE(JsonIsValid(tb.DumpJson()));
  EXPECT_TRUE(JsonIsValid(tb.DumpChromeTracing()));
}

TEST(TraceTest, ConcurrentWritersAndDumper) {
  TraceClearGuard guard;
  auto& tb = TraceBuffer::Get();
  tb.Clear();
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int i = 0; i < 4; ++i) {
    writers.emplace_back([&tb, &stop, i] {
      uint64_t n = 0;
      // At least one record even if the dumper finishes before this thread
      // is first scheduled.
      do {
        tb.Record(TraceEventType::kLockWaitBegin, i, n++);
      } while (!stop.load(std::memory_order_relaxed));
    });
  }
  for (int i = 0; i < 20; ++i) {
    std::string doc = tb.DumpJson();
    EXPECT_TRUE(JsonIsValid(doc));
  }
  stop.store(true);
  for (auto& th : writers) th.join();
  EXPECT_FALSE(tb.Snapshot().empty());
}

TEST(TraceTest, WrapAroundWhileReaderRacesEightWriters) {
  TraceClearGuard guard;
  auto& tb = TraceBuffer::Get();
  tb.Clear();
  // Each writer overfills rings while a reader dumps: wrap-around
  // overwrites must never tear a record or corrupt the JSON.
  constexpr int kWriters = 8;
  const size_t per_writer = TraceBuffer::kRingCapacity + 512;
  std::vector<std::thread> writers;
  for (int i = 0; i < kWriters; ++i) {
    writers.emplace_back([&tb, per_writer, i] {
      for (size_t n = 0; n < per_writer; ++n) {
        tb.Record(TraceEventType::kWalSegSeal, i, n);
      }
    });
  }
  for (int i = 0; i < 30; ++i) {
    std::string doc = tb.DumpJson();
    EXPECT_TRUE(JsonIsValid(doc));
  }
  for (auto& th : writers) th.join();
  std::vector<obs::TraceRecord> snap = tb.Snapshot();
  EXPECT_FALSE(snap.empty());
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_GE(snap[i].ts_ns, snap[i - 1].ts_ns);
  }
  EXPECT_TRUE(JsonIsValid(tb.DumpJson()));
}

TEST(TraceTest, ChromeTracingHasSlicesForRebuildPhases) {
  TraceClearGuard guard;
  auto& tb = TraceBuffer::Get();
  tb.Clear();

  auto db = MakeDb();
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 2000; ++i) ids.push_back(i);
  test::InsertMany(db.get(), ids);
  RebuildResult res;
  ASSERT_OK(db->index()->RebuildOnline(RebuildOptions(), &res));
  EXPECT_GT(res.top_actions, 0u);

  std::string doc = tb.DumpChromeTracing();
  EXPECT_TRUE(JsonIsValid(doc)) << doc.substr(0, 400);
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("top_action"), std::string::npos);
  EXPECT_NE(doc.find("copy_phase"), std::string::npos);
  EXPECT_NE(doc.find("propagate_phase"), std::string::npos);
  // Duration events come in begin/end pairs.
  EXPECT_NE(doc.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"E\""), std::string::npos);
}

// Polls OnlineRebuilder::progress() from another thread while OLTP writers
// race the rebuild: every published field must be monotone, and the final
// snapshot must agree with the RebuildResult.
TEST(RebuildProgressTest, MonotonicWhilePolledUnderConcurrentWriters) {
  auto db = MakeDb();
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 4000; ++i) ids.push_back(i * 2);
  test::InsertMany(db.get(), ids);

  OnlineRebuilder rebuilder(db->tree(), db->txn_manager(),
                            db->buffer_manager(), db->log_manager(),
                            db->lock_manager(), db->space_manager());

  std::atomic<bool> stop{false};
  std::thread writer([&db, &stop] {
    uint64_t n = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      auto txn = db->BeginTxn();
      Status s = db->index()->Insert(txn.get(), NumKey(n * 2 + 1), n * 2 + 1);
      if (s.ok()) {
        EXPECT_OK(db->Commit(txn.get()));
      } else {
        EXPECT_OK(db->Abort(txn.get()));
      }
      n++;
    }
  });

  std::atomic<bool> rebuild_done{false};
  std::thread poller([&rebuilder, &rebuild_done] {
    obs::RebuildProgress last;
    while (!rebuild_done.load(std::memory_order_relaxed)) {
      obs::RebuildProgress p = rebuilder.progress();
      EXPECT_GE(p.leaves_rebuilt, last.leaves_rebuilt);
      EXPECT_GE(p.top_actions, last.top_actions);
      EXPECT_GE(p.transactions, last.transactions);
      EXPECT_GE(p.copy_us, last.copy_us);
      EXPECT_GE(p.propagate_us, last.propagate_us);
      EXPECT_GE(p.flush_us, last.flush_us);
      EXPECT_GE(p.retries, last.retries);
      EXPECT_GE(p.batches_truncated, last.batches_truncated);
      last = p;
      std::this_thread::yield();
    }
  });

  uint64_t callbacks = 0;
  RebuildOptions opts;
  opts.on_progress = [&callbacks](const obs::RebuildProgress& p) {
    ++callbacks;
    // Mid-rebuild callbacks see running; the final one (after Finish) done.
    EXPECT_TRUE(p.running || p.done);
  };
  RebuildResult res;
  ASSERT_OK(rebuilder.Run(opts, &res));
  rebuild_done.store(true);
  poller.join();
  stop.store(true);
  writer.join();

  obs::RebuildProgress final = rebuilder.progress();
  EXPECT_FALSE(final.running);
  EXPECT_TRUE(final.done);
  EXPECT_EQ(final.top_actions, res.top_actions);
  EXPECT_EQ(final.transactions, res.transactions);
  EXPECT_EQ(final.leaves_rebuilt, res.old_leaf_pages);
  EXPECT_GT(final.leaves_total, 0u);
  EXPECT_GT(final.copy_us + final.propagate_us + final.flush_us, 0u);
  EXPECT_GE(callbacks, res.top_actions);

  TreeStats tstats;
  ASSERT_OK(db->tree()->Validate(&tstats));
}

TEST(WatchdogTest, FiresAndNamesPageWaiterAndHolder) {
  TraceClearGuard guard;
  TraceBuffer::Get().Clear();

  LockManager lm;
  lm.set_long_wait_threshold(std::chrono::milliseconds(50));
  const LockKey key = AddressLockKey(777);
  ASSERT_OK(lm.Lock(/*owner=*/1, key, LockMode::kX, /*conditional=*/false));

  const uint64_t fires_before =
      GlobalCounters::Get().lock_watchdog_fires.load();
  testing::internal::CaptureStderr();

  std::thread waiter([&lm, key] {
    // Blocks behind txn 1 until it unlocks; the watchdog fires at ~50 ms.
    EXPECT_OK(lm.Lock(/*owner=*/2, key, LockMode::kX, /*conditional=*/false));
    lm.Unlock(2, key);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  lm.Unlock(1, key);
  waiter.join();

  std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("lock watchdog"), std::string::npos) << err;
  EXPECT_NE(err.find("txn 2"), std::string::npos) << err;     // requester
  EXPECT_NE(err.find("page 777"), std::string::npos) << err;  // blocked page
  EXPECT_NE(err.find("holder: txn 1"), std::string::npos) << err;

  EXPECT_GE(GlobalCounters::Get().lock_watchdog_fires.load(),
            fires_before + 1);

  bool traced = false;
  for (const auto& r : TraceBuffer::Get().Snapshot()) {
    if (r.type == TraceEventType::kLockWatchdog && r.arg0 == 777 &&
        r.arg1 == 1) {
      traced = true;
    }
  }
  EXPECT_TRUE(traced);
}

TEST(WatchdogTest, ZeroThresholdDisables) {
  LockManager lm;
  lm.set_long_wait_threshold(std::chrono::milliseconds(0));
  const LockKey key = AddressLockKey(888);
  ASSERT_OK(lm.Lock(1, key, LockMode::kX, false));
  const uint64_t before = GlobalCounters::Get().lock_watchdog_fires.load();
  std::thread waiter([&lm, key] {
    EXPECT_OK(lm.Lock(2, key, LockMode::kX, false));
    lm.Unlock(2, key);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  lm.Unlock(1, key);
  waiter.join();
  EXPECT_EQ(GlobalCounters::Get().lock_watchdog_fires.load(), before);
}

TEST(DbStatsTest, DumpStatsJsonIsValidWithAllSections) {
  auto db = MakeDb();
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 1500; ++i) ids.push_back(i);
  test::InsertMany(db.get(), ids);
  RebuildResult res;
  ASSERT_OK(db->index()->RebuildOnline(RebuildOptions(), &res));

  std::string doc = db->DumpStatsJson();
  EXPECT_TRUE(JsonIsValid(doc)) << doc.substr(0, 400);
  for (const char* section :
       {"\"counters\"", "\"pool\"", "\"wal\"", "\"lock\"", "\"btree\"",
        "\"space\"", "\"rebuild_progress\"", "\"rebuild\"", "\"recovery\"",
        "\"wait_profile\"", "\"segment_io_p99_ns\""}) {
    EXPECT_NE(doc.find(section), std::string::npos) << section;
  }
  // The rebuild report made it through the JSON path with real content.
  EXPECT_NE(doc.find("\"keys_moved\""), std::string::npos);
  EXPECT_NE(doc.find("\"rebuild_progress\":{\"running\":false,\"done\":true"),
            std::string::npos)
      << doc;

  StatsReport report;
  ASSERT_OK(db->GetStats(&report));
  EXPECT_GT(report.pool_frames, 0u);
  EXPECT_GT(report.pages_allocated, 0u);
  EXPECT_FALSE(report.last_rebuild_json.empty());
  EXPECT_TRUE(JsonIsValid(report.last_rebuild_json));

  EXPECT_FALSE(db->DumpStatsText().empty());
}

TEST(DbStatsTest, EveryGlobalCounterInStatsJson) {
  auto db = MakeDb();
  const std::string doc = db->DumpStatsJson();
  size_t fields = 0;
  GlobalCounters::Get().ForEach(
      [&](const char* name, std::atomic<uint64_t>&) {
        ++fields;
        EXPECT_NE(doc.find("\"" + std::string(name) + "\":"), std::string::npos)
            << name;
      });
  EXPECT_GT(fields, 0u);
}

// Reads the unsigned value of `"key":` at or after `from` in `doc`.
uint64_t JsonUintAfter(const std::string& doc, const std::string& key,
                       size_t from) {
  const std::string k = "\"" + key + "\":";
  size_t at = doc.find(k, from);
  if (at == std::string::npos) return ~uint64_t{0};
  return std::strtoull(doc.c_str() + at + k.size(), nullptr, 10);
}

// DumpStatsJson taken while a rebuild is parked in its progress callback
// shows the live tracker; afterwards the same section reports it done.
TEST(DbStatsTest, RebuildProgressLiveInStatsJson) {
  auto db = MakeDb();
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 3000; ++i) ids.push_back(i);
  test::InsertMany(db.get(), ids);

  std::promise<void> parked;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  bool once = false;
  RebuildOptions opts;
  opts.on_progress = [&](const obs::RebuildProgress& p) {
    if (once || !p.running || p.leaves_rebuilt == 0) return;
    once = true;
    parked.set_value();
    released.wait();
  };
  Status s;
  RebuildResult res;
  std::thread rebuild(
      [&] { s = db->index()->RebuildOnline(opts, &res); });
  parked.get_future().wait();
  const std::string live = db->DumpStatsJson();
  release.set_value();
  rebuild.join();
  ASSERT_OK(s);

  EXPECT_TRUE(JsonIsValid(live));
  const size_t at = live.find("\"rebuild_progress\":{\"running\":true");
  ASSERT_NE(at, std::string::npos) << live;
  EXPECT_GT(JsonUintAfter(live, "leaves_rebuilt", at), 0u);
  EXPECT_GT(JsonUintAfter(live, "leaves_total", at), 0u);

  const std::string after = db->DumpStatsJson();
  const size_t end = after.find("\"rebuild_progress\":{\"running\":false");
  ASSERT_NE(end, std::string::npos) << after;
  EXPECT_EQ(JsonUintAfter(after, "leaves_rebuilt", end), res.old_leaf_pages);
}

// Rebuild and recovery reports belong to the Db that produced them.
TEST(DbStatsTest, ReportsArePerDb) {
  auto a = MakeDb();
  auto b = MakeDb();
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 1500; ++i) ids.push_back(i);
  test::InsertMany(a.get(), ids);
  RebuildResult res;
  ASSERT_OK(a->index()->RebuildOnline(RebuildOptions(), &res));
  RecoveryStats rstats;
  ASSERT_OK(a->CrashAndRecover(&rstats));

  const std::string doc_a = a->DumpStatsJson();
  EXPECT_NE(doc_a.find("\"rebuild\":{\"old_leaf_pages\""), std::string::npos)
      << doc_a;
  EXPECT_NE(doc_a.find("\"recovery\":{\"records_scanned\""),
            std::string::npos)
      << doc_a;
  const std::string doc_b = b->DumpStatsJson();
  EXPECT_NE(doc_b.find("\"rebuild\":{}"), std::string::npos) << doc_b;
  EXPECT_NE(doc_b.find("\"recovery\":{}"), std::string::npos) << doc_b;
  StatsReport rb;
  ASSERT_OK(b->GetStats(&rb));
  EXPECT_TRUE(rb.last_rebuild_json.empty());
  EXPECT_TRUE(rb.last_recovery_json.empty());
}

TEST(DbStatsTest, RecoveryStatsExportedThroughJsonPath) {
  auto db = MakeDb();
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 200; ++i) ids.push_back(i);
  test::InsertMany(db.get(), ids);
  RecoveryStats rstats;
  ASSERT_OK(db->CrashAndRecover(&rstats));
  EXPECT_TRUE(JsonIsValid(rstats.ToJson())) << rstats.ToJson();

  std::string doc = db->DumpStatsJson();
  EXPECT_TRUE(JsonIsValid(doc));
  EXPECT_NE(doc.find("\"records_scanned\""), std::string::npos) << doc;
}

TEST(RebuildResultTest, ToJsonRoundTrips) {
  RebuildResult r;
  r.old_leaf_pages = 10;
  r.keys_moved = 1234;
  std::string j = r.ToJson();
  EXPECT_TRUE(JsonIsValid(j)) << j;
  EXPECT_NE(j.find("\"old_leaf_pages\":10"), std::string::npos);
  EXPECT_NE(j.find("\"keys_moved\":1234"), std::string::npos);
}

}  // namespace
}  // namespace oir
