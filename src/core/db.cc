#include "core/db.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include <chrono>

#include "core/index.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "obs/waitstate.h"
#include "testing/crash_point.h"
#include "util/counters.h"

namespace oir {

Db::Db(const DbOptions& options) : options_(options) {}

Db::~Db() {
  // First: no flight-record provider or publisher tick may touch the
  // components once teardown starts. StopObservability blocks out any
  // in-flight dump before returning.
  StopObservability();
  // The write-back worker calls into the log manager (WAL-before-data),
  // and log_ is destroyed before bm_ — stop the worker while both live.
  if (bm_ != nullptr) bm_->StopWriteBack();
  if (!ephemeral_wal_path_.empty()) {
    log_.reset();  // close fds before unlinking
    std::remove(ephemeral_wal_path_.c_str());
    std::remove((ephemeral_wal_path_ + ".master").c_str());
    std::remove((ephemeral_wal_path_ + ".master.tmp").c_str());
  }
}

namespace {

// Pages a fresh database device starts with; file and memory devices both
// grow on demand.
constexpr uint32_t kInitialDiskPages = 64;

// Cadence of the live-stats publisher (DbOptions::stats_publish_path).
constexpr std::chrono::milliseconds kStatsPublishInterval{500};

WalOptions WalOptionsFrom(const DbOptions& options) {
  WalOptions w;
  w.segment_bytes = options.wal_segment_bytes;
  w.inflight_segments = options.wal_inflight_segments;
  w.sync_mode = options.wal_sync_mode;
  return w;
}

}  // namespace

Status Db::BuildStack(bool truncate_files) {
  const DbOptions& options = options_;
  if (!options.file_path.empty()) {
    if (truncate_files) std::remove(options.file_path.c_str());
    std::unique_ptr<FileDisk> fd;
    OIR_RETURN_IF_ERROR(
        FileDisk::Open(options.file_path, options.page_size, &fd));
    OIR_RETURN_IF_ERROR(fd->Extend(kInitialDiskPages));
    disk_ = std::move(fd);
  } else {
    disk_ = std::make_unique<MemDisk>(options.page_size, kInitialDiskPages);
  }
  if (options.wrap_disk) {
    disk_ = options.wrap_disk(std::move(disk_));
    OIR_CHECK(disk_ != nullptr);
  }
  std::string log_path = options.log_path;
  if (log_path.empty()) {
    // CI hook: OIR_TEST_WAL=file runs every test that would use an
    // in-memory WAL against a real file-backed one (unique throwaway
    // path), exercising the async durable path under the whole suite. The
    // destructor removes the file.
    if (const char* e = std::getenv("OIR_TEST_WAL");
        e != nullptr && std::string(e) == "file") {
      static std::atomic<uint64_t> seq{0};
      const char* dir = std::getenv("TMPDIR");
      log_path = std::string(dir != nullptr && *dir ? dir : "/tmp") +
                 "/oir_test_wal_" + std::to_string(::getpid()) + "_" +
                 std::to_string(seq.fetch_add(1)) + ".log";
      ephemeral_wal_path_ = log_path;
      truncate_files = true;
    }
  }
  if (!log_path.empty()) {
    OIR_RETURN_IF_ERROR(LogManager::Open(log_path, truncate_files, &log_,
                                         WalOptionsFrom(options)));
  } else {
    log_ = std::make_unique<LogManager>(WalOptionsFrom(options));
  }

  bm_ = std::make_unique<BufferManager>(disk_.get(), options.buffer_pool_pages);
  bm_->SetLogFlusher(log_.get());
  bm_->StartWriteBack();
  locks_ = std::make_unique<LockManager>();
  space_ = std::make_unique<SpaceManager>(disk_.get(), log_.get(),
                                          kFirstDataPageId);
  txn_mgr_ = std::make_unique<TransactionManager>(log_.get(), locks_.get(),
                                                  bm_.get(), space_.get());
  tree_ = std::make_unique<BTree>(bm_.get(), log_.get(), locks_.get(),
                                  space_.get());
  txn_mgr_->SetUndoHook(tree_.get());
  index_ = std::make_unique<Index>(tree_.get(), txn_mgr_.get(), bm_.get(),
                                   log_.get(), locks_.get(), space_.get(),
                                   &rebuild_journal_);
  return Status::OK();
}

Status Db::Open(const DbOptions& options, std::unique_ptr<Db>* out) {
  std::unique_ptr<Db> db(new Db(options));
  OIR_RETURN_IF_ERROR(db->BuildStack(/*truncate_files=*/true));

  // Bootstrap: create the empty index inside a committed transaction so
  // that recovery can always replay the database from an empty log.
  std::unique_ptr<Transaction> boot = db->txn_mgr_->Begin();
  OIR_RETURN_IF_ERROR(db->tree_->CreateNew(boot->ctx()));
  OIR_RETURN_IF_ERROR(db->txn_mgr_->Commit(boot.get()));
  db->StartObservability();
  *out = std::move(db);
  return Status::OK();
}

Status Db::OpenExisting(const DbOptions& options, std::unique_ptr<Db>* out,
                        RecoveryStats* stats) {
  if (options.file_path.empty() || options.log_path.empty()) {
    return Status::InvalidArgument(
        "OpenExisting requires file_path and log_path");
  }
  std::unique_ptr<Db> db(new Db(options));
  OIR_RETURN_IF_ERROR(db->BuildStack(/*truncate_files=*/false));

  // Restart recovery over the persisted log and data file.
  RecoveryStats local;
  RecoveryStats* st = stats != nullptr ? stats : &local;
  ApplyContext ctx{db->bm_.get(), db->space_.get(), db->log_.get()};
  RecoveryManager rm(ctx);
  OIR_RETURN_IF_ERROR(rm.AnalyzeAndRedo(st));
  OIR_RETURN_IF_ERROR(db->tree_->Open());
  OIR_RETURN_IF_ERROR(rm.UndoLosers(db->tree_.get(), st));
  OIR_RETURN_IF_ERROR(rm.Finish(st));
  db->txn_mgr_->ResetAfterCrash(rm.max_txn_id() + 1);
  db->AdoptRebuildResume(rm.rebuild_resume());
  db->NoteRecovery(*st);
  db->StartObservability();
  *out = std::move(db);
  return Status::OK();
}

Status Db::Checkpoint(Lsn* truncation_horizon) {
  // Fuzzy checkpoint. Order matters:
  //  1. capture scan_start = current log tail; recovery will rescan
  //     everything from here, so state changes racing with the snapshot
  //     below are replayed idempotently. A checkpoint taken mid-rebuild
  //     embeds the latest progress record appended before scan_start, so
  //     the resume point survives truncation of the log prefix that held
  //     the kRebuildProgress records. No rebuild pending => inactive
  //     defaults;
  //  2. snapshot the page states and the active transactions;
  //  3. append the checkpoint record;
  //  4. flush every dirty page (covers all updates before scan_start);
  //  5. force the log and publish the master record.
  LogRecord ckpt;
  ckpt.type = LogType::kCheckpoint;
  const Lsn scan_start =
      rebuild_journal_.Snapshot(*log_, &ckpt.rebuild_progress);
  ckpt.old_page_lsn = scan_start;  // reused field: recovery scan start
  ckpt.ckpt_allocated = space_->PagesInState(PageState::kAllocated);
  ckpt.ckpt_deallocated = space_->PagesInState(PageState::kDeallocated);
  ckpt.ckpt_end_page = space_->end_page();
  ckpt.ckpt_next_txn_id = txn_mgr_->next_txn_id();
  Lsn oldest_begin = kInvalidLsn;
  txn_mgr_->SnapshotActive(&ckpt.ckpt_txns, &oldest_begin);
  Lsn ckpt_lsn = log_->AppendSystem(&ckpt);
  OIR_CRASH_POINT("ckpt.logged");

  OIR_RETURN_IF_ERROR(bm_->FlushAll());
  OIR_CRASH_POINT("ckpt.pages_flushed");
  OIR_RETURN_IF_ERROR(log_->FlushAll());
  log_->SetMasterCheckpoint(ckpt_lsn);
  OIR_CRASH_POINT("ckpt.master");
  OIR_TRACE(obs::TraceEventType::kCheckpoint, ckpt_lsn, 0);

  if (truncation_horizon != nullptr) {
    // The log before min(scan_start, oldest active begin) is dead: redo
    // starts at scan_start and every active transaction's undo chain
    // reaches back at most to its begin record.
    Lsn horizon = scan_start;
    if (oldest_begin != kInvalidLsn && oldest_begin < horizon) {
      horizon = oldest_begin;
    }
    *truncation_horizon = horizon;
  }
  return Status::OK();
}

Status Db::CheckpointAndTruncate() {
  Lsn horizon = kInvalidLsn;
  OIR_RETURN_IF_ERROR(Checkpoint(&horizon));
  if (horizon != kInvalidLsn) {
    log_->DiscardPrefix(horizon);
  }
  return Status::OK();
}

Status Db::CrashAndRecover(RecoveryStats* stats) {
  // Crash: volatile state dies. Dirty pages and unflushed log records are
  // lost; locks, side entries and in-flight transactions evaporate.
  bm_->DropAll();
  log_->SimulateCrash();
  locks_->Reset();
  tree_->ResetTransient();

  // Restart.
  RecoveryStats local;
  RecoveryStats* st = stats != nullptr ? stats : &local;
  ApplyContext ctx{bm_.get(), space_.get(), log_.get()};
  RecoveryManager rm(ctx);
  OIR_RETURN_IF_ERROR(rm.AnalyzeAndRedo(st));
  OIR_RETURN_IF_ERROR(tree_->Open());
  OIR_RETURN_IF_ERROR(rm.UndoLosers(tree_.get(), st));
  OIR_RETURN_IF_ERROR(rm.Finish(st));
  txn_mgr_->ResetAfterCrash(rm.max_txn_id() + 1);
  AdoptRebuildResume(rm.rebuild_resume());
  NoteRecovery(*st);
  return Status::OK();
}

void Db::NoteRecovery(const RecoveryStats& stats) {
  MutexLock l(recovery_mu_);
  last_recovery_ = stats;
}

void Db::AdoptRebuildResume(const RebuildResumeState& resume) {
  pending_rebuild_ = resume;
  if (resume.pending) {
    // Keep the journal armed: a checkpoint taken before the rebuild is
    // resumed must still carry the resume point (the log prefix holding
    // the progress records may be truncated afterwards).
    rebuild_journal_.Publish(resume.progress);
  } else {
    rebuild_journal_.Clear();
  }
}

Status Db::ResumeRebuild(const RebuildOptions& options,
                         RebuildResult* result) {
  if (!pending_rebuild_.pending) {
    return Status::InvalidArgument("no pending rebuild to resume");
  }
  OIR_RETURN_IF_ERROR(
      index_->RebuildOnline(options, result, &pending_rebuild_.progress));
  pending_rebuild_ = RebuildResumeState();
  return Status::OK();
}

Status Db::GetStats(StatsReport* out) {
  *out = StatsReport();
  out->counters = GlobalCounters::Get().Snapshot();
  out->pool_frames = bm_->pool_frames();
  out->pool_shards = bm_->num_shards();
  out->pool_cached_pages = bm_->CachedPages();
  out->wal_tail_lsn = log_->tail_lsn();
  out->wal_durable_lsn = log_->durable_lsn();
  out->wal_bytes_appended = log_->TotalBytesAppended();
  out->wal_group_commit = log_->group_commit();
  out->wal_pipeline = out->wal_group_commit;
  out->wal_backend = log_->backend_name();
  out->wal_sync_mode = log_->sync_mode_name();
  out->wal_segment_bytes = log_->segment_bytes();
  out->wal_inflight_segments = log_->inflight_segments();
  const Histogram& io = log_->segment_io_ns();
  out->wal_segment_io_count = io.Count();
  out->wal_segment_io_p50_ns = io.Percentile(50);
  out->wal_segment_io_p99_ns = io.Percentile(99);
  out->locked_keys = locks_->NumLockedKeys();
  out->root_page = tree_->root();
  out->pages_allocated = space_->CountInState(PageState::kAllocated);
  out->pages_deallocated = space_->CountInState(PageState::kDeallocated);
  out->end_page = space_->end_page();
  out->rebuild_progress = index_->rebuilder().progress();
  RebuildResult rebuild;
  if (index_->rebuilder().last_result(&rebuild)) {
    out->last_rebuild_json = rebuild.ToJson();
  }
  MutexLock l(recovery_mu_);
  if (last_recovery_) out->last_recovery_json = last_recovery_->ToJson();
  return Status::OK();
}

std::string Db::DumpStatsJson() {
  StatsReport r;
  OIR_CHECK(GetStats(&r).ok());
  obs::JsonWriter w;
  w.BeginObject();

  w.Key("counters").BeginObject();
  r.counters.ForEach(
      [&w](const char* name, uint64_t v) { w.Key(name).Value(v); });
  w.EndObject();

  w.Key("pool").BeginObject();
  w.Key("frames").Value(r.pool_frames);
  w.Key("shards").Value(r.pool_shards);
  w.Key("cached_pages").Value(r.pool_cached_pages);
  w.Key("hits").Value(r.counters.pool_hits);
  w.Key("misses").Value(r.counters.pool_misses);
  w.Key("evictions").Value(r.counters.pool_evictions);
  w.Key("writebacks").Value(r.counters.pool_writebacks);
  w.Key("wb_enqueued").Value(r.counters.pool_wb_enqueued);
  w.Key("wb_async_writes").Value(r.counters.pool_wb_async_writes);
  w.Key("prefetched").Value(r.counters.pool_prefetched);
  w.EndObject();

  w.Key("wal").BeginObject();
  w.Key("tail_lsn").Value(r.wal_tail_lsn);
  w.Key("durable_lsn").Value(r.wal_durable_lsn);
  w.Key("bytes_appended").Value(r.wal_bytes_appended);
  w.Key("group_commit").Value(r.wal_group_commit);
  w.Key("pipeline").Value(r.wal_pipeline);
  w.Key("backend").Value(r.wal_backend);
  w.Key("sync_mode").Value(r.wal_sync_mode);
  w.Key("segment_bytes").Value(r.wal_segment_bytes);
  w.Key("inflight_segments").Value(r.wal_inflight_segments);
  w.Key("segment_io_count").Value(r.wal_segment_io_count);
  w.Key("segment_io_p50_ns").Value(r.wal_segment_io_p50_ns);
  w.Key("segment_io_p99_ns").Value(r.wal_segment_io_p99_ns);
  w.Key("records").Value(r.counters.log_records);
  w.Key("flush_calls").Value(r.counters.log_flush_calls);
  w.Key("fsyncs").Value(r.counters.log_fsyncs);
  w.Key("commits_acked").Value(r.counters.log_commits_acked);
  w.Key("groups_acked").Value(r.counters.log_groups_acked);
  w.Key("segments_sealed").Value(r.counters.wal_segments_sealed);
  w.Key("segments_completed").Value(r.counters.wal_segments_completed);
  w.EndObject();

  w.Key("lock").BeginObject();
  w.Key("requests").Value(r.counters.lock_requests);
  w.Key("waits").Value(r.counters.lock_waits);
  w.Key("locked_keys").Value(r.locked_keys);
  w.Key("watchdog_fires").Value(r.counters.lock_watchdog_fires);
  w.Key("cond_failures").Value(r.counters.cond_lock_failures);
  w.EndObject();

  w.Key("btree").BeginObject();
  w.Key("root_page").Value(static_cast<uint64_t>(r.root_page));
  w.Key("traversal_restarts").Value(r.counters.traversal_restarts);
  w.Key("blocked_traversals").Value(r.counters.blocked_traversals);
  w.Key("level1_visits").Value(r.counters.level1_visits);
  w.EndObject();

  w.Key("space").BeginObject();
  w.Key("allocated").Value(r.pages_allocated);
  w.Key("deallocated").Value(r.pages_deallocated);
  w.Key("end_page").Value(r.end_page);
  w.EndObject();

  const obs::RebuildProgress& p = r.rebuild_progress;
  w.Key("rebuild_progress").BeginObject();
  w.Key("running").Value(p.running);
  w.Key("done").Value(p.done);
  w.Key("resumed").Value(p.resumed);
  w.Key("leaves_total").Value(p.leaves_total);
  w.Key("leaves_rebuilt").Value(p.leaves_rebuilt);
  w.Key("current_page").Value(uint64_t{p.current_page});
  w.Key("top_actions").Value(p.top_actions);
  w.Key("transactions").Value(p.transactions);
  w.Key("batches_truncated").Value(p.batches_truncated);
  w.Key("retries").Value(p.retries);
  w.Key("copy_us").Value(p.copy_us);
  w.Key("propagate_us").Value(p.propagate_us);
  w.Key("flush_us").Value(p.flush_us);
  w.Key("progress_records").Value(p.progress_records);
  w.Key("throttle_pauses").Value(p.throttle_pauses);
  w.Key("throttle_us").Value(p.throttle_us);
  w.EndObject();

  w.Key("rebuild");
  if (r.last_rebuild_json.empty()) {
    w.BeginObject().EndObject();
  } else {
    w.RawValue(r.last_rebuild_json);
  }
  w.Key("recovery");
  if (r.last_recovery_json.empty()) {
    w.BeginObject().EndObject();
  } else {
    w.RawValue(r.last_recovery_json);
  }

  w.Key("wait_profile").RawValue(obs::WaitProfiler::ToJson());

  w.EndObject();
  return w.str();
}

std::string Db::DumpStatsText() {
  StatsReport r;
  OIR_CHECK(GetStats(&r).ok());
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "pool: %llu/%llu pages cached, %llu shards\n",
                (unsigned long long)r.pool_cached_pages,
                (unsigned long long)r.pool_frames,
                (unsigned long long)r.pool_shards);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "wal: tail=%llu durable=%llu appended=%llu group_commit=%d\n",
                (unsigned long long)r.wal_tail_lsn,
                (unsigned long long)r.wal_durable_lsn,
                (unsigned long long)r.wal_bytes_appended,
                r.wal_group_commit ? 1 : 0);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "lock: %llu keys locked, %llu watchdog fires\n",
                (unsigned long long)r.locked_keys,
                (unsigned long long)r.counters.lock_watchdog_fires);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "space: %llu allocated, %llu deallocated, end_page=%llu\n",
                (unsigned long long)r.pages_allocated,
                (unsigned long long)r.pages_deallocated,
                (unsigned long long)r.end_page);
  out += buf;
  out += "counters: " + r.counters.ToString() + "\n";
  return out;
}

Status Db::DumpFlightRecord(std::string* path) {
  std::string p;
  if (!obs::FlightRecorder::Get().DumpNow("explicit", &p)) {
    return Status::IOError("could not write flight-record bundle");
  }
  if (path != nullptr) *path = p;
  return Status::OK();
}

void Db::StartObservability() {
  auto& fr = obs::FlightRecorder::Get();
  fr_stats_token_ = fr.RegisterProvider("stats",
                                        [this] { return DumpStatsJson(); });
  fr_locks_token_ =
      fr.RegisterProvider("locks", [this] { return locks_->DumpJson(); });
  fr_txns_token_ = fr.RegisterProvider(
      "active_txns", [this] { return txn_mgr_->DumpActiveTxnsJson(); });

  std::string path = options_.stats_publish_path;
  if (const char* e = std::getenv("OIR_STATS_PUBLISH");
      e != nullptr && e[0] != '\0') {
    path = e;
  }
  if (path.empty()) return;
  {
    MutexLock l(pub_mu_);
    pub_stop_ = false;
  }
  pub_thread_ = std::thread([this, path] { StatsPublisherLoop(path); });
}

void Db::StopObservability() {
  if (pub_thread_.joinable()) {
    {
      MutexLock l(pub_mu_);
      pub_stop_ = true;
    }
    pub_cv_.NotifyAll();
    pub_thread_.join();
  }
  auto& fr = obs::FlightRecorder::Get();
  if (fr_stats_token_ != 0) fr.UnregisterProvider("stats", fr_stats_token_);
  if (fr_locks_token_ != 0) fr.UnregisterProvider("locks", fr_locks_token_);
  if (fr_txns_token_ != 0) {
    fr.UnregisterProvider("active_txns", fr_txns_token_);
  }
  fr_stats_token_ = fr_locks_token_ = fr_txns_token_ = 0;
}

void Db::StatsPublisherLoop(std::string path) {
  const std::string tmp = path + ".tmp";
  for (;;) {
    std::string body = DumpStatsJson();
    obs::FlightRecorder::Get().NoteSnapshot(body);
    FILE* f = std::fopen(tmp.c_str(), "w");
    if (f != nullptr) {
      size_t n = std::fwrite(body.data(), 1, body.size(), f);
      if (n == body.size() && std::fclose(f) == 0) {
        std::rename(tmp.c_str(), path.c_str());
      } else {
        std::remove(tmp.c_str());
      }
    }
    MutexLock l(pub_mu_);
    if (pub_stop_) return;
    // wait-state: publisher tick, not an operation wait
    pub_cv_.WaitFor(pub_mu_, kStatsPublishInterval);
    if (pub_stop_) return;
  }
}

}  // namespace oir

