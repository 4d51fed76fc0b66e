// Tests for the crash flight recorder (obs/flight_recorder.h): explicit
// and async-triggered bundles, provider splicing and token-guarded
// unregistration, the per-process cap on triggered bundles, the bounded
// recent-stats ring, watchdog- and crash-point-driven dumps, a fuzz-ish
// corpus of bundle states, and a dump racing concurrent writers. Every
// bundle must satisfy JsonIsValid.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "obs/waitstate.h"
#include "sync/lock_manager.h"
#include "testing/crash_point.h"
#include "tests/test_util.h"
#include "util/counters.h"

namespace oir {
namespace {

using obs::FlightRecorder;
using obs::JsonIsValid;
using obs::TraceBuffer;
using obs::WaitProfiler;

// Reads a bundle and deletes its file: the assertions work on the returned
// body, so no test leaves its bundles behind in the flight directory.
std::string TakeBundle(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  in.close();
  std::remove(path.c_str());
  return os.str();
}

// The events of a bundle's "trace" section, one JSON object each.
std::vector<std::string> TraceEvents(const std::string& body) {
  std::vector<std::string> events;
  const std::string open = "\"trace\":{\"events\":[";
  size_t pos = body.find(open);
  EXPECT_NE(pos, std::string::npos);
  if (pos == std::string::npos) return events;
  const size_t end = body.find(']', pos);
  for (pos = body.find('{', pos + open.size()); pos < end;
       pos = body.find('{', pos + 1)) {
    events.push_back(body.substr(pos, body.find('}', pos) - pos + 1));
  }
  return events;
}

// Routes bundles into gtest's temp dir, empties the trace ring and
// restores global obs flags.
struct RecorderTestEnv {
  RecorderTestEnv() {
    ::setenv("OIR_FLIGHT_DIR", ::testing::TempDir().c_str(), 1);
  }
  ~RecorderTestEnv() {
    TraceBuffer::Get().Clear();
    WaitProfiler::SetEnabled(false);
    WaitProfiler::Reset();
    fault::CrashPointRegistry::SetEnabled(false);
    fault::CrashPointRegistry::Get().Disarm();
  }
};

TEST(FlightRecorderTest, ExplicitDumpProducesValidBundle) {
  RecorderTestEnv env;
  auto& fr = FlightRecorder::Get();
  std::string path;
  ASSERT_TRUE(fr.DumpNow("explicit_test", &path));
  std::string body = TakeBundle(path);
  EXPECT_TRUE(JsonIsValid(body)) << body.substr(0, 400);
  EXPECT_NE(body.find("\"reason\":\"explicit_test\""), std::string::npos);
  for (const char* section :
       {"\"wait_profile\"", "\"counters\"", "\"trace\"", "\"recent_stats\"",
        "\"pid\"", "\"ts_ns\""}) {
    EXPECT_NE(body.find(section), std::string::npos) << section;
  }
  EXPECT_EQ(fr.last_dump_path(), path);
  EXPECT_GT(GlobalCounters::Get().flight_records_dumped.load(), 0u);
}

TEST(FlightRecorderTest, ProvidersSplicedAndInvalidOnesBecomeNull) {
  RecorderTestEnv env;
  auto& fr = FlightRecorder::Get();
  uint64_t good = fr.RegisterProvider(
      "test_good", [] { return std::string("{\"answer\":42}"); });
  uint64_t bad = fr.RegisterProvider(
      "test_bad", [] { return std::string("{broken"); });
  std::string path;
  ASSERT_TRUE(fr.DumpNow("provider_test", &path));
  fr.UnregisterProvider("test_good", good);
  fr.UnregisterProvider("test_bad", bad);
  std::string body = TakeBundle(path);
  EXPECT_TRUE(JsonIsValid(body)) << body.substr(0, 400);
  EXPECT_NE(body.find("\"test_good\":{\"answer\":42}"), std::string::npos);
  EXPECT_NE(body.find("\"test_bad\":null"), std::string::npos);
}

TEST(FlightRecorderTest, StaleUnregisterTokenIsANoOp) {
  RecorderTestEnv env;
  auto& fr = FlightRecorder::Get();
  uint64_t old_token = fr.RegisterProvider(
      "test_token", [] { return std::string("\"old\""); });
  // A second registration under the same name supersedes the first.
  uint64_t new_token = fr.RegisterProvider(
      "test_token", [] { return std::string("\"new\""); });
  fr.UnregisterProvider("test_token", old_token);  // stale: must not remove
  std::string path;
  ASSERT_TRUE(fr.DumpNow("token_test", &path));
  EXPECT_NE(TakeBundle(path).find("\"test_token\":\"new\""),
            std::string::npos);
  fr.UnregisterProvider("test_token", new_token);
  ASSERT_TRUE(fr.DumpNow("token_test_2", &path));
  EXPECT_EQ(TakeBundle(path).find("\"test_token\""), std::string::npos);
}

TEST(FlightRecorderTest, TriggerDumpsAsynchronously) {
  RecorderTestEnv env;
  auto& fr = FlightRecorder::Get();
  const uint64_t before = fr.dumps_completed();
  fr.Trigger("async_test");
  EXPECT_TRUE(fr.WaitForDumps(before + 1, /*timeout_ms=*/10000));
  std::remove(fr.last_dump_path().c_str());
}

// Triggered bundles keep only the newest kMaxTriggeredBundles per process;
// a bundle whose path the caller asked for survives the sweep.
TEST(FlightRecorderTest, TriggeredBundlesCappedPerProcess) {
  RecorderTestEnv env;
  auto& fr = FlightRecorder::Get();
  std::string asked;
  ASSERT_TRUE(fr.DumpNow("cap_test_asked", &asked));
  const size_t cap = FlightRecorder::kMaxTriggeredBundles;
  const size_t n = cap + 4;
  std::vector<std::string> paths;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t before = fr.dumps_completed();
    fr.Trigger("cap_test_" + std::to_string(i));
    ASSERT_TRUE(fr.WaitForDumps(before + 1, /*timeout_ms=*/10000));
    paths.push_back(fr.last_dump_path());
  }
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::ifstream(paths[i]).good(), i >= n - cap) << paths[i];
  }
  EXPECT_TRUE(std::ifstream(asked).good()) << asked;
  std::remove(asked.c_str());
  for (const std::string& p : paths) std::remove(p.c_str());
}

TEST(FlightRecorderTest, RecentStatsRingIsBounded) {
  RecorderTestEnv env;
  auto& fr = FlightRecorder::Get();
  for (int i = 0; i < 20; ++i) {
    fr.NoteSnapshot("{\"ring_probe\":" + std::to_string(i) + "}");
  }
  std::string path;
  ASSERT_TRUE(fr.DumpNow("ring_test", &path));
  std::string body = TakeBundle(path);
  EXPECT_TRUE(JsonIsValid(body)) << body.substr(0, 400);
  // Only the newest kMaxRecentStats snapshots survive.
  EXPECT_NE(body.find("\"ring_probe\":19"), std::string::npos);
  EXPECT_EQ(body.find("\"ring_probe\":0}"), std::string::npos);
  size_t n = 0;
  for (size_t pos = body.find("\"ring_probe\""); pos != std::string::npos;
       pos = body.find("\"ring_probe\"", pos + 1)) {
    ++n;
  }
  EXPECT_EQ(n, FlightRecorder::kMaxRecentStats);
}

TEST(FlightRecorderTest, WatchdogFireProducesBundle) {
  RecorderTestEnv env;
  auto& fr = FlightRecorder::Get();
  const uint64_t before = fr.dumps_completed();

  LockManager lm;
  lm.set_long_wait_threshold(std::chrono::milliseconds(50));
  const LockKey key = AddressLockKey(4242);
  ASSERT_OK(lm.Lock(/*owner=*/1, key, LockMode::kX, /*conditional=*/false));
  testing::internal::CaptureStderr();  // swallow the watchdog report
  std::thread waiter([&lm, key] {
    EXPECT_OK(lm.Lock(/*owner=*/2, key, LockMode::kX, /*conditional=*/false));
    lm.Unlock(2, key);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  lm.Unlock(1, key);
  waiter.join();
  testing::internal::GetCapturedStderr();

  // The watchdog fired with the shard mutex held, so it could only enqueue;
  // the recorder's worker performs the dump.
  ASSERT_TRUE(fr.WaitForDumps(before + 1, /*timeout_ms=*/10000));
  std::string body = TakeBundle(fr.last_dump_path());
  EXPECT_TRUE(JsonIsValid(body)) << body.substr(0, 400);
  EXPECT_NE(body.find("lock_watchdog"), std::string::npos);
  // The trace ring is always on: the bundle shows the wait that fired the
  // watchdog without any tracing switch having been set.
  bool saw_wait = false;
  for (const std::string& e : TraceEvents(body)) {
    if (e.find("\"type\":\"lock_wait_begin\"") != std::string::npos &&
        e.find("\"arg0\":4242,") != std::string::npos) {
      saw_wait = true;
    }
  }
  EXPECT_TRUE(saw_wait) << body.substr(0, 2000);
}

// A bundle carries only the newest kMaxTraceEvents of the trace ring, even
// after every ring has wrapped.
TEST(FlightRecorderTest, BundleTraceHoldsTheNewestEventsOnly) {
  RecorderTestEnv env;
  auto& tb = TraceBuffer::Get();
  // Threads take consecutive ring ids, so kNumRings fresh threads cover
  // every ring; each overfills its ring.
  std::vector<std::thread> writers;
  for (size_t t = 0; t < TraceBuffer::kNumRings; ++t) {
    writers.emplace_back([&tb] {
      for (size_t n = 0; n <= TraceBuffer::kRingCapacity; ++n) {
        tb.Record(obs::TraceEventType::kSmoSplit, n, 0);
      }
    });
  }
  for (auto& th : writers) th.join();
  ASSERT_EQ(tb.Snapshot().size(),
            TraceBuffer::kNumRings * TraceBuffer::kRingCapacity);
  tb.Record(obs::TraceEventType::kCheckpoint, 777, 0);

  std::string path;
  ASSERT_TRUE(FlightRecorder::Get().DumpNow("trace_cap_test", &path));
  std::string body = TakeBundle(path);
  EXPECT_TRUE(JsonIsValid(body)) << body.substr(0, 400);
  const std::vector<std::string> events = TraceEvents(body);
  EXPECT_EQ(events.size(), FlightRecorder::kMaxTraceEvents);
  ASSERT_FALSE(events.empty());
  EXPECT_NE(events.back().find("\"type\":\"checkpoint\""),
            std::string::npos)
      << events.back();
}

TEST(FlightRecorderTest, TrippedCrashPointProducesBundle) {
  RecorderTestEnv env;
  auto& fr = FlightRecorder::Get();
  const uint64_t before = fr.dumps_completed();

  auto& reg = fault::CrashPointRegistry::Get();
  fault::CrashPointRegistry::SetEnabled(true);
  std::atomic<bool> fired{false};
  reg.Arm("fr.test.trip", 0, [&fired] { fired.store(true); });
  OIR_CRASH_POINT("fr.test.trip");
  EXPECT_TRUE(fired.load());
  reg.Disarm();
  fault::CrashPointRegistry::SetEnabled(false);

  ASSERT_TRUE(fr.WaitForDumps(before + 1, /*timeout_ms=*/10000));
  std::string body = TakeBundle(fr.last_dump_path());
  EXPECT_TRUE(JsonIsValid(body)) << body.substr(0, 400);
  EXPECT_NE(body.find("crash_point:fr.test.trip"), std::string::npos);
}

// Fuzz-ish corpus: bundles must stay valid across combinations of enabled
// subsystems, populated rings and hostile reason strings.
TEST(FlightRecorderTest, BundleCorpusAcrossVariedStates) {
  RecorderTestEnv env;
  auto& fr = FlightRecorder::Get();
  const std::string reasons[] = {
      "plain",
      "quotes \"and\" backslash \\",
      "newline\nand\ttab",
      "unicode \xc3\xa9\xe2\x98\x83",
      std::string(300, 'x'),
      "",
  };
  int case_no = 0;
  for (int traced = 0; traced <= 1; ++traced) {
    for (int prof_on = 0; prof_on <= 1; ++prof_on) {
      TraceBuffer::Get().Clear();
      if (traced) {
        for (int i = 0; i < 100; ++i) {
          TraceBuffer::Get().Record(obs::TraceEventType::kSmoSplit, i, i);
        }
      }
      WaitProfiler::SetEnabled(prof_on != 0);
      if (prof_on) {
        obs::OpScope op(obs::OpType::kRead);
      }
      for (const std::string& reason : reasons) {
        fr.NoteSnapshot("{\"case\":" + std::to_string(case_no++) + "}");
        std::string path;
        ASSERT_TRUE(fr.DumpNow(reason, &path));
        std::string body = TakeBundle(path);
        EXPECT_TRUE(JsonIsValid(body))
            << "trace=" << traced << " prof=" << prof_on << " reason=["
            << reason << "]: " << body.substr(0, 400);
      }
    }
  }
}

TEST(FlightRecorderTest, DumpRacesConcurrentWriters) {
  RecorderTestEnv env;
  auto& fr = FlightRecorder::Get();
  WaitProfiler::SetEnabled(true);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 8; ++t) {
    writers.emplace_back([&stop, &fr, t] {
      uint64_t n = 0;
      do {
        TraceBuffer::Get().Record(obs::TraceEventType::kLockWaitBegin, t, n);
        {
          obs::OpScope op(obs::OpType::kWrite);
          obs::WaitScope ws(obs::WaitState::kLatchWait);
        }
        if (n % 64 == 0) {
          fr.NoteSnapshot("{\"writer\":" + std::to_string(t) + "}");
        }
        ++n;
      } while (!stop.load(std::memory_order_relaxed));
    });
  }
  for (int i = 0; i < 10; ++i) {
    std::string path;
    ASSERT_TRUE(fr.DumpNow("race_test", &path));
    EXPECT_TRUE(JsonIsValid(TakeBundle(path)));
  }
  stop.store(true);
  for (auto& th : writers) th.join();
}

}  // namespace
}  // namespace oir
