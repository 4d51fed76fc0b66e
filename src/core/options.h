#ifndef OIR_CORE_OPTIONS_H_
#define OIR_CORE_OPTIONS_H_

// User-facing option structs.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "obs/progress.h"
#include "storage/async_io.h"
#include "storage/page.h"

namespace oir {

class Disk;

struct DbOptions {
  // Page size in bytes. The paper's experiments use 2 KB (Section 6.4).
  uint32_t page_size = kDefaultPageSize;

  // Buffer pool capacity in pages.
  size_t buffer_pool_pages = 4096;

  // ---- write-ahead log ----
  // File-backed logs always group-commit through the pipelined durable
  // path: the WAL tail is carved into segments that a dedicated sealer
  // thread hands to an async pwrite+fdatasync writer, so up to
  // wal_inflight_segments write+sync operations overlap and committers are
  // acked on completion. An in-memory log flushes synchronously (see
  // LogManager::EnableGroupCommit to force the pipeline there for testing).

  // Maximum bytes per sealed log segment. Smaller segments reduce
  // commit-ack latency; larger ones amortize the per-sync cost.
  uint32_t wal_segment_bytes = 256 * 1024;

  // Maximum sealed-but-not-yet-durable segments in flight.
  uint32_t wal_inflight_segments = 4;

  // Log sync discipline (see storage/async_io.h). O_DIRECT is probed at
  // open and falls back to buffered fdatasync where the filesystem refuses
  // it. Overridable via the OIR_WAL_SYNC environment variable.
  WalSyncMode wal_sync_mode = WalSyncMode::kFdatasync;

  // Back the database with this POSIX file. Empty = the database lives in
  // memory.
  std::string file_path;

  // Persist the write-ahead log to this file (plus a `.master` sidecar for
  // the checkpoint pointer). Required for Db::OpenExisting. Empty = the
  // log lives in memory (crash testing via Db::CrashAndRecover).
  std::string log_path;

  // Test hook: wraps the freshly created disk before any component sees it.
  // Fault-injection tests install a FaultInjectingDisk decorator here; the
  // returned disk is what the buffer pool and space manager talk to.
  std::function<std::unique_ptr<Disk>(std::unique_ptr<Disk>)> wrap_disk;

  // Live-stats publisher: when non-empty, a background thread writes
  // DumpStatsJson() to this path (atomic temp+rename) every 500 ms, and
  // feeds the flight recorder's recent-stats ring. `oir_top` polls the
  // file. The OIR_STATS_PUBLISH environment variable overrides the path,
  // so any existing binary can publish without a flag change.
  std::string stats_publish_path;
};

// Options of the online index rebuild (Section 3).
struct RebuildOptions {
  // Leaf pages rebuilt per multipage rebuild top action. The paper chose 32
  // based on its performance study (Sections 3, 6.4).
  uint32_t ntasize = 32;

  // Leaf pages rebuilt per transaction. At the end of each transaction the
  // new pages are forced to disk and the old pages become reusable; the
  // paper recommends "a few hundred pages" (Section 3).
  uint32_t xactsize = 256;

  // Percentage fill of new leaf pages, leaving head room for future
  // inserts (Section 4.1). 100 packs pages completely.
  uint32_t fillfactor = 100;

  // Pages per forced-write I/O — emulates configuring large buffers for
  // the rebuild (Section 6.3: 16 KB buffers over 2 KB pages => 8). Must
  // not exceed the buffer pool size (the run buffer is io_pages pages).
  uint32_t io_pages = 8;

  // Read-ahead twin of the forced write (Section 6.3 symmetry): while the
  // lock phase walks the old leaf chain it prefetches the pages ahead with
  // multi-page transfers of up to io_pages pages. Exposed for ablation.
  bool prefetch = true;

  // Section 5.5 enhancement: fill level-1 pages by moving inserts into the
  // left sibling during propagation, avoiding a separate level-1 pass.
  // Exposed for ablation.
  bool reorganize_level1 = true;

  // Ablation of the minimal-logging design: when true, key contents are
  // logged (batch inserts) instead of the position-only keycopy record,
  // removing the need for the flush-before-free ordering (Section 3).
  bool log_full_keys = false;

  // Invoked on the rebuild thread after every top action and transaction
  // commit with a snapshot of the rebuild's progress. Must not call back
  // into the database. Leave empty for no callbacks; other threads can also
  // poll Index::rebuilder().progress() directly.
  std::function<void(const obs::RebuildProgress&)> on_progress;

  // ---- admission control ----
  // Pace the rebuild so foreground operations degrade no more than this
  // percentage versus their latency baseline. Between top actions the
  // throttle samples live signals — foreground mean latency and lock-wait
  // share from the wait profiler (when enabled), lock-watchdog fires and
  // buffer-pool eviction pressure from the global counters — and inserts
  // an attributed (WaitState::kThrottled) pause that grows
  // multiplicatively while foreground is over budget and decays
  // additively once it recovers. 0 disables pacing.
  uint32_t max_foreground_degradation_pct = 0;

  // Foreground mean-latency baseline in nanoseconds for the degradation
  // target. 0 captures it automatically from the wait profiler's read/
  // write aggregates at rebuild start (requires WaitProfiler enabled and
  // prior foreground traffic; otherwise only the counter-based signals
  // pace the rebuild).
  uint64_t throttle_baseline_ns = 0;
};

struct RebuildResult {
  uint64_t old_leaf_pages = 0;   // leaf pages consumed (deallocated)
  uint64_t new_leaf_pages = 0;   // leaf pages produced
  uint64_t keys_moved = 0;
  uint64_t top_actions = 0;
  uint64_t transactions = 0;
  uint64_t log_bytes = 0;        // log volume attributable to the rebuild
  uint64_t log_records = 0;
  uint64_t cpu_ns = 0;           // thread CPU time of the rebuild
  uint64_t wall_ns = 0;
  uint64_t level1_visits = 0;
  uint64_t io_ops = 0;

  // Resumability + admission control (this run only; a resumed run's
  // counters above do not include the crashed run's work).
  bool resumed = false;              // run started from a resume cursor
  std::string resume_cursor;         // the cursor it started from
  uint64_t progress_records = 0;     // kRebuildProgress records appended
  uint64_t throttle_pauses = 0;      // admission-control pauses taken
  uint64_t throttle_pause_us = 0;    // total paced time (yields+pauses)

  // JSON object with every field above (stats-export path).
  std::string ToJson() const;
};

}  // namespace oir

#endif  // OIR_CORE_OPTIONS_H_
