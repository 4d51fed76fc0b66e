#ifndef OIR_PERFBENCH_SPANS_H_
#define OIR_PERFBENCH_SPANS_H_

// In-memory span log for the traced perfbench run. Each benchmark thread
// owns one SpanLog; a span records its name, start, end, parent span and
// the trace id shared by every span of one transaction (or one rebuild).
// Nothing is written until the run ends, so recording costs two clock
// reads and a vector append.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace oir::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanName : uint8_t {
  kTxnRead,
  kTxnScan,
  kTxnWrite,
  kBeginTxn,
  kLookup,
  kInsert,
  kDelete,
  kSeek,
  kNext,
  kCommit,      // commit of a transaction that logged (update txns)
  kCommitRead,  // commit of a read-only transaction
  kAbort,
  kRebuild,
  kTopAction,   // interval between on_progress top-action callbacks
  kRebuildTxn,  // interval between on_progress transaction callbacks
  kCount,
};

inline const char* SpanNameStr(SpanName n) {
  static const char* const kNames[] = {
      "txn.read",      "txn.scan",     "txn.write",
      "db.begin_txn",  "index.lookup", "index.insert",
      "index.delete",  "cursor.seek",  "cursor.next",
      "db.commit",     "db.commit_ro", "db.abort",
      "index.rebuild_online", "rebuild.top_action", "rebuild.txn"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<size_t>(SpanName::kCount));
  return kNames[static_cast<size_t>(n)];
}

constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  SpanName name;
  uint32_t parent;    // index into the owning log, or kNoParent
  uint64_t trace_id;  // shared by the spans of one transaction / rebuild
  int64_t start_ns;
  int64_t end_ns;
};

class SpanLog {
 public:
  explicit SpanLog(uint32_t thread_id) : thread_id_(thread_id) {}

  uint32_t thread_id() const { return thread_id_; }
  const std::vector<Span>& spans() const { return spans_; }

  // Opens a span and returns its index; Close() sets its end.
  uint32_t Open(SpanName name, uint64_t trace_id, uint32_t parent) {
    spans_.push_back(Span{name, parent, trace_id, NowNs(), 0});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void Close(uint32_t idx) { spans_[idx].end_ns = NowNs(); }

  // Adds a span whose interval was measured elsewhere.
  uint32_t Add(SpanName name, uint64_t trace_id, uint32_t parent,
               int64_t start_ns, int64_t end_ns) {
    spans_.push_back(Span{name, parent, trace_id, start_ns, end_ns});
    return static_cast<uint32_t>(spans_.size() - 1);
  }

  void SetParent(uint32_t idx, uint32_t parent) {
    spans_[idx].parent = parent;
  }

  // Self time of every span: its duration minus the part its children
  // cover. Children of one span never overlap (one thread runs them in
  // sequence), so the covered part is the sum of their durations.
  std::vector<int64_t> SelfTimes() const {
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& s : spans_) {
      if (s.parent != kNoParent) self[s.parent] -= s.end_ns - s.start_ns;
    }
    return self;
  }

 private:
  uint32_t thread_id_;
  std::vector<Span> spans_;
};

// Writes the spans as chrome://tracing complete events ("ph":"X"), log by
// log, stopping after `max_spans` so a long run leaves a file a viewer can
// open. Returns the number written, or -1 when the file cannot be written.
inline int64_t WriteChromeTrace(const std::string& path,
                                const std::vector<const SpanLog*>& logs,
                                int64_t origin_ns, size_t max_spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return -1;
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  size_t written = 0;
  for (const SpanLog* log : logs) {
    const std::vector<int64_t> self = log->SelfTimes();
    const std::vector<Span>& spans = log->spans();
    for (size_t i = 0; i < spans.size() && written < max_spans;
         ++i, ++written) {
      const Span& s = spans[i];
      std::fprintf(
          f,
          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace_id\":%llu,"
          "\"parent\":%lld,\"self_us\":%.3f}}\n",
          first ? "" : ",", SpanNameStr(s.name), log->thread_id(),
          (s.start_ns - origin_ns) / 1e3, (s.end_ns - s.start_ns) / 1e3,
          static_cast<unsigned long long>(s.trace_id),
          s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
          self[i] / 1e3);
      first = false;
    }
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0 ? static_cast<int64_t>(written) : -1;
}

}  // namespace oir::perfbench

#endif  // OIR_PERFBENCH_SPANS_H_
