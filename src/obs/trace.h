#ifndef OIR_OBS_TRACE_H_
#define OIR_OBS_TRACE_H_

// Lock-free event trace: fixed-size ring buffers with per-thread write
// cursors (threads are striped over kNumRings rings; claiming a slot is one
// fetch_add on the ring's cursor, almost always uncontended), binary
// records with a monotonic timestamp. Always on: the rings are allocated
// with the singleton, so a flight bundle always holds the latest events.
//
// Dumpable as plain JSON (DumpJson) and as a chrome://tracing document
// (DumpChromeTracing): save the latter to a file and load it at
// chrome://tracing or https://ui.perfetto.dev.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace oir::obs {

enum class TraceEventType : uint8_t {
  kNone = 0,
  kTopActionBegin,      // arg0 = top-action ordinal, arg1 = 0
  kTopActionEnd,        // arg0 = top-action ordinal, arg1 = leaves in batch
  kTopActionTruncate,   // arg0 = busy page,          arg1 = batch size so far
  kSmoSplit,            // arg0 = old page,           arg1 = new page
  kSmoShrink,           // arg0 = freed page,         arg1 = 0
  kCondLockFail,        // arg0 = lock key id,        arg1 = requester txn
  kLockWaitBegin,       // arg0 = lock key id,        arg1 = requester txn
  kLockWaitEnd,         // arg0 = lock key id,        arg1 = requester txn
  kLockWatchdog,        // arg0 = lock key id,        arg1 = holder txn
  kCheckpoint,          // arg0 = checkpoint lsn,     arg1 = 0
  kCopyPhaseBegin,      // arg0 = top-action ordinal, arg1 = 0
  kCopyPhaseEnd,        // arg0 = top-action ordinal, arg1 = keys copied
  kPropagatePhaseBegin, // arg0 = top-action ordinal, arg1 = 0
  kPropagatePhaseEnd,   // arg0 = top-action ordinal, arg1 = 0
  kFaultInjected,       // arg0 = first page affected, arg1 = FaultKind
  kWalSegSeal,          // arg0 = segment end lsn,    arg1 = segment bytes
  kWalSegSubmit,        // arg0 = segment end lsn,    arg1 = submitted bytes
  kWalSegComplete,      // arg0 = durable lsn,        arg1 = segment bytes
};

const char* TraceEventName(TraceEventType t);

struct TraceRecord {
  uint64_t ts_ns = 0;
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
  uint32_t tid = 0;
  TraceEventType type = TraceEventType::kNone;
};

class TraceBuffer {
 public:
  static constexpr size_t kNumRings = 16;
  static constexpr size_t kRingCapacity = 1 << 12;  // records per ring

  // The process-wide buffer; its rings (~2 MiB) live for the process.
  static TraceBuffer& Get();

  void Clear();

  void Record(TraceEventType type, uint64_t arg0, uint64_t arg1);

  // Merged, timestamp-sorted view of everything currently buffered. Each
  // ring keeps its most recent kRingCapacity records; a slot being
  // overwritten concurrently with the dump can yield one stale record per
  // ring (fields are individually atomic — never torn words).
  std::vector<TraceRecord> Snapshot() const;

  // {"events":[{"ts_ns":..,"type":"..","tid":..,"arg0":..,"arg1":..},...]}
  // holding the newest `max_events` records of Snapshot().
  std::string DumpJson(size_t max_events = SIZE_MAX) const;
  // chrome://tracing "traceEvents" document: begin/end event pairs become
  // duration ("B"/"E") slices, everything else instant ("i") events.
  std::string DumpChromeTracing() const;

 private:
  // Each logical record is 5 relaxed atomic words so concurrent
  // overwrite-during-dump is benign under TSan.
  struct Slot {
    std::atomic<uint64_t> ts_ns{0};
    std::atomic<uint64_t> arg0{0};
    std::atomic<uint64_t> arg1{0};
    std::atomic<uint32_t> tid{0};
    std::atomic<uint8_t> type{0};
  };
  struct alignas(64) Ring {
    std::atomic<uint64_t> cursor{0};  // total records ever written
    std::unique_ptr<Slot[]> slots;
  };

  TraceBuffer();

  Ring rings_[kNumRings];
};

}  // namespace oir::obs

// Records an event in the process-wide trace ring.
#define OIR_TRACE(type, arg0, arg1) \
  ::oir::obs::TraceBuffer::Get().Record((type), (arg0), (arg1))

#endif  // OIR_OBS_TRACE_H_
