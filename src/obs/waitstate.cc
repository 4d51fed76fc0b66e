#include "obs/waitstate.h"

#include "obs/json.h"
#include "util/clock.h"
#include "util/histogram.h"

namespace oir::obs {

std::atomic<bool> WaitProfiler::enabled_{false};

namespace {

constexpr size_t kShards = 16;

// Per-thread shard index: threads are striped over the shards in
// registration order, so a small thread count gets distinct shards.
size_t ThreadShardIndex() {
  static std::atomic<size_t> next{0};
  thread_local size_t idx = next.fetch_add(1, std::memory_order_relaxed);
  return idx % kShards;
}

// Everything a thread needs to classify its own time. Touched only by the
// owning thread, so plain (non-atomic) fields are fine.
struct ThreadClock {
  uint64_t acc[kNumWaitStates] = {};  // monotone per-state nanoseconds
  uint64_t mark = 0;                  // start of the current segment
  WaitState state = WaitState::kRunning;
  uint32_t wait_depth = 0;
  uint32_t op_depth = 0;
  uint64_t op_start = 0;
  uint64_t op_snap[kNumWaitStates] = {};

  // Closes the current segment into acc[state] and restarts it at `now`.
  void Roll(uint64_t now) {
    acc[static_cast<size_t>(state)] += now - mark;
    mark = now;
  }
};

ThreadClock& Tls() {
  thread_local ThreadClock tc;
  return tc;
}

// Global per-op-type aggregates, thread-striped. Scalar fields are relaxed
// atomics; the wall-clock Histogram has its own internal mutex (uncontended
// within a shard).
struct alignas(64) AggShard {
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> wall_ns{0};
  std::atomic<uint64_t> state_ns[kNumWaitStates] = {};
  Histogram wall_hist;
};

struct OpAgg {
  AggShard shards[kShards];
};

OpAgg* Aggs() {
  static OpAgg* aggs = new OpAgg[kNumOpTypes];
  return aggs;
}

}  // namespace

const char* WaitStateName(WaitState s) {
  switch (s) {
    case WaitState::kRunning:
      return "running";
    case WaitState::kLatchWait:
      return "latch_wait";
    case WaitState::kLockWait:
      return "lock_wait";
    case WaitState::kWalCommitWait:
      return "wal_commit_wait";
    case WaitState::kIoWait:
      return "io_wait";
    case WaitState::kThrottled:
      return "throttled";
    case WaitState::kNumStates:
      break;
  }
  return "unknown";
}

const char* OpTypeName(OpType t) {
  switch (t) {
    case OpType::kRead:
      return "read";
    case OpType::kWrite:
      return "write";
    case OpType::kCommit:
      return "commit";
    case OpType::kRebuild:
      return "rebuild";
    case OpType::kOther:
      return "other";
    case OpType::kNumTypes:
      break;
  }
  return "unknown";
}

WaitState WaitProfiler::EnterWait(WaitState s) {
  ThreadClock& tc = Tls();
  if (tc.wait_depth++ != 0) return tc.state;  // nested: outermost wins
  WaitState prev = tc.state;
  uint64_t now = NowNanos();
  if (tc.mark == 0) tc.mark = now;
  tc.Roll(now);
  tc.state = s;
  return prev;
}

void WaitProfiler::ExitWait(WaitState prev) {
  ThreadClock& tc = Tls();
  if (--tc.wait_depth != 0) return;
  tc.Roll(NowNanos());
  tc.state = prev;
}

void WaitProfiler::BeginOp() {
  ThreadClock& tc = Tls();
  if (tc.op_depth++ != 0) return;
  uint64_t now = NowNanos();
  // A fresh thread has mark == 0; start its clock here rather than
  // attributing process-uptime to the first segment.
  if (tc.mark == 0) tc.mark = now;
  tc.Roll(now);
  tc.op_start = now;
  for (size_t i = 0; i < kNumWaitStates; ++i) tc.op_snap[i] = tc.acc[i];
}

void WaitProfiler::EndOp(OpType t) {
  ThreadClock& tc = Tls();
  if (--tc.op_depth != 0) return;
  uint64_t now = NowNanos();
  tc.Roll(now);
  uint64_t wall = now - tc.op_start;
  AggShard& sh = Aggs()[static_cast<size_t>(t)].shards[ThreadShardIndex()];
  sh.count.fetch_add(1, std::memory_order_relaxed);
  sh.wall_ns.fetch_add(wall, std::memory_order_relaxed);
  for (size_t i = 0; i < kNumWaitStates; ++i) {
    sh.state_ns[i].fetch_add(tc.acc[i] - tc.op_snap[i],
                             std::memory_order_relaxed);
  }
  sh.wall_hist.Add(wall);
}

std::vector<WaitProfiler::OpBreakdown> WaitProfiler::TakeSnapshot() {
  std::vector<OpBreakdown> out;
  for (size_t t = 0; t < kNumOpTypes; ++t) {
    OpBreakdown b;
    b.type = static_cast<OpType>(t);
    Histogram merged;
    for (AggShard& sh : Aggs()[t].shards) {
      b.count += sh.count.load(std::memory_order_relaxed);
      b.wall_ns += sh.wall_ns.load(std::memory_order_relaxed);
      for (size_t i = 0; i < kNumWaitStates; ++i) {
        b.state_ns[i] += sh.state_ns[i].load(std::memory_order_relaxed);
      }
      merged.Merge(sh.wall_hist);
    }
    if (b.count == 0) continue;
    b.hist_count = merged.Count();
    b.p50 = merged.Percentile(50);
    b.p95 = merged.Percentile(95);
    b.p99 = merged.Percentile(99);
    b.max = static_cast<double>(merged.Max());
    out.push_back(b);
  }
  return out;
}

std::string WaitProfiler::ToJson() {
  std::vector<OpBreakdown> snap = TakeSnapshot();
  JsonWriter w;
  w.BeginObject();
  for (const OpBreakdown& b : snap) {
    w.Key(OpTypeName(b.type)).BeginObject();
    w.Key("count").Value(b.count);
    w.Key("wall_ns").Value(b.wall_ns);
    w.Key("states").BeginObject();
    for (size_t i = 0; i < kNumWaitStates; ++i) {
      w.Key(WaitStateName(static_cast<WaitState>(i))).Value(b.state_ns[i]);
    }
    w.EndObject();
    w.Key("wall_hist").BeginObject();
    w.Key("count").Value(b.hist_count);
    w.Key("p50").Value(b.p50);
    w.Key("p95").Value(b.p95);
    w.Key("p99").Value(b.p99);
    w.Key("max").Value(b.max);
    w.EndObject();
    w.EndObject();
  }
  w.EndObject();
  return w.str();
}

void WaitProfiler::Reset() {
  for (size_t t = 0; t < kNumOpTypes; ++t) {
    for (AggShard& sh : Aggs()[t].shards) {
      sh.count.store(0, std::memory_order_relaxed);
      sh.wall_ns.store(0, std::memory_order_relaxed);
      for (size_t i = 0; i < kNumWaitStates; ++i) {
        sh.state_ns[i].store(0, std::memory_order_relaxed);
      }
      sh.wall_hist.Clear();
    }
  }
}

}  // namespace oir::obs
