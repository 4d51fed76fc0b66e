#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "obs/json.h"
#include "util/clock.h"

namespace oir::obs {

namespace {

// Small dense thread id, assigned on first trace from each thread.
uint32_t TraceTid() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

const char* TraceEventName(TraceEventType t) {
  switch (t) {
    case TraceEventType::kNone: return "none";
    case TraceEventType::kTopActionBegin: return "top_action_begin";
    case TraceEventType::kTopActionEnd: return "top_action_end";
    case TraceEventType::kTopActionTruncate: return "top_action_truncate";
    case TraceEventType::kSmoSplit: return "smo_split";
    case TraceEventType::kSmoShrink: return "smo_shrink";
    case TraceEventType::kCondLockFail: return "cond_lock_fail";
    case TraceEventType::kLockWaitBegin: return "lock_wait_begin";
    case TraceEventType::kLockWaitEnd: return "lock_wait_end";
    case TraceEventType::kLockWatchdog: return "lock_watchdog";
    case TraceEventType::kCheckpoint: return "checkpoint";
    case TraceEventType::kCopyPhaseBegin: return "copy_phase_begin";
    case TraceEventType::kCopyPhaseEnd: return "copy_phase_end";
    case TraceEventType::kPropagatePhaseBegin: return "propagate_phase_begin";
    case TraceEventType::kPropagatePhaseEnd: return "propagate_phase_end";
    case TraceEventType::kFaultInjected: return "fault_injected";
    case TraceEventType::kWalSegSeal: return "wal_seg_seal";
    case TraceEventType::kWalSegSubmit: return "wal_seg_submit";
    case TraceEventType::kWalSegComplete: return "wal_seg_complete";
  }
  return "unknown";
}

TraceBuffer::TraceBuffer() {
  for (Ring& ring : rings_) {
    ring.slots = std::make_unique<Slot[]>(kRingCapacity);
  }
}

TraceBuffer& TraceBuffer::Get() {
  static TraceBuffer* instance = new TraceBuffer();
  return *instance;
}

void TraceBuffer::Clear() {
  for (size_t r = 0; r < kNumRings; ++r) {
    Ring& ring = rings_[r];
    ring.cursor.store(0, std::memory_order_relaxed);
    for (size_t i = 0; i < kRingCapacity; ++i) {
      ring.slots[i].type.store(0, std::memory_order_relaxed);
    }
  }
}

void TraceBuffer::Record(TraceEventType type, uint64_t arg0, uint64_t arg1) {
  const uint32_t tid = TraceTid();
  Ring& ring = rings_[tid % kNumRings];
  const uint64_t seq = ring.cursor.fetch_add(1, std::memory_order_relaxed);
  Slot& s = ring.slots[seq % kRingCapacity];
  s.ts_ns.store(NowNanos(), std::memory_order_relaxed);
  s.arg0.store(arg0, std::memory_order_relaxed);
  s.arg1.store(arg1, std::memory_order_relaxed);
  s.tid.store(tid, std::memory_order_relaxed);
  s.type.store(static_cast<uint8_t>(type), std::memory_order_release);
}

std::vector<TraceRecord> TraceBuffer::Snapshot() const {
  std::vector<TraceRecord> out;
  for (size_t r = 0; r < kNumRings; ++r) {
    const Ring& ring = rings_[r];
    const uint64_t cursor = ring.cursor.load(std::memory_order_acquire);
    const uint64_t n = std::min<uint64_t>(cursor, kRingCapacity);
    const uint64_t start = cursor - n;
    for (uint64_t i = start; i < cursor; ++i) {
      const Slot& s = ring.slots[i % kRingCapacity];
      TraceRecord rec;
      rec.type = static_cast<TraceEventType>(
          s.type.load(std::memory_order_acquire));
      if (rec.type == TraceEventType::kNone) continue;
      rec.ts_ns = s.ts_ns.load(std::memory_order_relaxed);
      rec.arg0 = s.arg0.load(std::memory_order_relaxed);
      rec.arg1 = s.arg1.load(std::memory_order_relaxed);
      rec.tid = s.tid.load(std::memory_order_relaxed);
      out.push_back(rec);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              return a.ts_ns < b.ts_ns;
            });
  return out;
}

std::string TraceBuffer::DumpJson(size_t max_events) const {
  std::vector<TraceRecord> recs = Snapshot();
  const size_t first = recs.size() - std::min(recs.size(), max_events);
  JsonWriter w;
  w.BeginObject().Key("events").BeginArray();
  for (size_t i = first; i < recs.size(); ++i) {
    const TraceRecord& r = recs[i];
    w.BeginObject();
    w.Key("ts_ns").Value(r.ts_ns);
    w.Key("type").Value(TraceEventName(r.type));
    w.Key("tid").Value(static_cast<uint64_t>(r.tid));
    w.Key("arg0").Value(r.arg0);
    w.Key("arg1").Value(r.arg1);
    w.EndObject();
  }
  w.EndArray().EndObject();
  return w.str();
}

namespace {

// Duration-slice name for begin/end pairs; nullptr for instant events.
const char* SliceName(TraceEventType t, bool* is_begin) {
  switch (t) {
    case TraceEventType::kTopActionBegin:
      *is_begin = true;
      return "top_action";
    case TraceEventType::kTopActionEnd:
      *is_begin = false;
      return "top_action";
    case TraceEventType::kCopyPhaseBegin:
      *is_begin = true;
      return "copy_phase";
    case TraceEventType::kCopyPhaseEnd:
      *is_begin = false;
      return "copy_phase";
    case TraceEventType::kPropagatePhaseBegin:
      *is_begin = true;
      return "propagate_phase";
    case TraceEventType::kPropagatePhaseEnd:
      *is_begin = false;
      return "propagate_phase";
    case TraceEventType::kLockWaitBegin:
      *is_begin = true;
      return "lock_wait";
    case TraceEventType::kLockWaitEnd:
      *is_begin = false;
      return "lock_wait";
    default:
      return nullptr;
  }
}

}  // namespace

std::string TraceBuffer::DumpChromeTracing() const {
  std::vector<TraceRecord> recs = Snapshot();
  JsonWriter w;
  w.BeginObject().Key("traceEvents").BeginArray();
  for (const TraceRecord& r : recs) {
    bool is_begin = false;
    const char* slice = SliceName(r.type, &is_begin);
    w.BeginObject();
    w.Key("name").Value(slice != nullptr ? slice : TraceEventName(r.type));
    w.Key("cat").Value("oir");
    if (slice != nullptr) {
      w.Key("ph").Value(is_begin ? "B" : "E");
    } else {
      w.Key("ph").Value("i");
      w.Key("s").Value("t");
    }
    w.Key("ts").Value(static_cast<double>(r.ts_ns) / 1000.0);
    w.Key("pid").Value(static_cast<uint64_t>(1));
    w.Key("tid").Value(static_cast<uint64_t>(r.tid));
    w.Key("args").BeginObject();
    w.Key("arg0").Value(r.arg0);
    w.Key("arg1").Value(r.arg1);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray().EndObject();
  return w.str();
}

}  // namespace oir::obs
