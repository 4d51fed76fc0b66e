#include "wal/log_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "obs/trace.h"
#include "obs/waitstate.h"
#include "testing/crash_point.h"
#include "util/coding.h"
#include "util/counters.h"
#include "util/crc32c.h"
#include "util/logging.h"

namespace oir {

namespace {

// Group-commit micro-batch window (file-backed logs): once a commit
// demands a flush, the sealer holds the seal open this long so commits
// arriving meanwhile join the same segment — k device rounds become one
// at the cost of one window of added ack latency.
constexpr std::chrono::microseconds kGroupWindow{100};

WalOptions SanitizeWalOptions(WalOptions w) {
  if (w.segment_bytes < 4096) w.segment_bytes = 4096;
  if (w.inflight_segments < 1) w.inflight_segments = 1;
  return w;
}

}  // namespace

LogManager::LogManager(const WalOptions& wal)
    : wal_opts_(SanitizeWalOptions(wal)),
      durable_lsn_(kHeaderSize),
      submitted_lsn_(kHeaderSize),
      durable_adv_seq_(1) {
  bytes_.Write(0, "OIRLOG01\0\0\0\0\0\0\0\0", kHeaderSize);
  tail_ = kHeaderSize;
}

LogManager::~LogManager() {
  {
    MutexLock l(mu_);
    stop_sealer_ = true;
  }
  flush_cv_.NotifyAll();
  flushed_cv_.NotifyAll();
  if (sealer_.joinable()) sealer_.join();
  // Let any submitted-but-incomplete segment finish before closing the fd;
  // completions still run OnSegmentComplete, which is safe (the object is
  // alive and the sealer is gone).
  if (writer_) {
    writer_->Drain();
    writer_.reset();
  }
  if (fd_ >= 0) ::close(fd_);
}

void LogManager::EnableGroupCommit() {
  MutexLock l(mu_);
  // The sealer is started on first enable so a purely synchronous log never
  // spawns one — and so Open's single-threaded recovery path runs before
  // any concurrent access.
  if (group_commit_) return;
  group_commit_ = true;
  sealer_ = std::thread([this] { PipelineLoop(); });
}

bool LogManager::group_commit() const {
  MutexLock l(mu_);
  return group_commit_;
}

const char* LogManager::backend_name() const {
  return writer_ ? "portable" : "mem";
}

const char* LogManager::sync_mode_name() const {
  if (writer_) return WalSyncModeName(writer_->sync_mode());
  return WalSyncModeName(WalSyncMode::kFdatasync);
}

// File layout: a 24-byte header [magic:8]["trim_base":8][reserved:8]
// followed by the log bytes from trim_base on. The in-memory buffer always
// mirrors the retained log, so reads never touch the file.
Status LogManager::Open(const std::string& path, bool truncate,
                        std::unique_ptr<LogManager>* out,
                        const WalOptions& wal) {
  WalOptions opts = SanitizeWalOptions(wal);
  // Environment override so CI and developers can A/B force disciplines
  // without a rebuild.
  if (const char* e = std::getenv("OIR_WAL_SYNC"); e != nullptr && *e) {
    ParseWalSyncMode(e, &opts.sync_mode);
  }

  auto log = std::unique_ptr<LogManager>(new LogManager(opts));
  int flags = O_RDWR | O_CREAT | (truncate ? O_TRUNC : 0);
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Status::IOError("open log " + path + ": " + std::strerror(errno));
  }
  log->fd_ = fd;
  log->path_ = path;

  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size > 24) {
    // Recover the retained log from the file.
    std::string header(24, '\0');
    if (::pread(fd, header.data(), 24, 0) != 24) {
      return Status::IOError("log header read failed");
    }
    if (std::memcmp(header.data(), "OIRLOGF1", 8) != 0) {
      return Status::Corruption("bad log file magic");
    }
    Lsn trim = DecodeFixed64(header.data() + 8);
    // Open is single-threaded (no sealer yet), but the guarded fields are
    // still touched under mu_ in bounded scopes: ReadRecord below takes the
    // (non-recursive) mutex itself.
    const Lsn trim_base = trim <= kHeaderSize ? 0 : trim;
    {
      MutexLock l(log->mu_);
      // For an untrimmed log the body includes the in-memory header
      // padding. The body is loaded one chunk's worth at a time.
      log->bytes_.DropBelow(trim_base);
      const uint64_t body = static_cast<uint64_t>(size) - kFileHeaderSize;
      std::unique_ptr<char[]> piece(new char[ChunkStore::kChunkBytes]);
      for (uint64_t done = 0; done < body;) {
        const size_t n = static_cast<size_t>(
            std::min<uint64_t>(body - done, ChunkStore::kChunkBytes));
        ssize_t r = ::pread(fd, piece.get(), n,
                            static_cast<off_t>(kFileHeaderSize + done));
        if (r < 0 || static_cast<size_t>(r) != n) {
          return Status::IOError("log body read failed");
        }
        log->bytes_.Write(trim_base + done, piece.get(), n);
        done += n;
      }
      log->trim_base_ = trim_base;
      log->tail_ = trim_base + body;
      log->file_header_ = header;
    }
    // A crash mid-write can leave a torn record at the tail; truncate the
    // log at the end of the valid prefix so future appends extend a clean
    // chain.
    Lsn valid_end =
        trim_base > kHeaderSize ? trim_base : static_cast<Lsn>(kHeaderSize);
    {
      Lsn cur = valid_end;
      LogRecord rec;
      Lsn next = cur;
      while (true) {
        Status rs = log->ReadRecord(cur, &rec, &next);
        if (!rs.ok()) break;
        valid_end = next;
        cur = next;
      }
    }
    {
      MutexLock l(log->mu_);
      log->tail_ = valid_end;
      log->bytes_.Truncate(valid_end);
      log->durable_lsn_ = valid_end;
      log->submitted_lsn_ = valid_end;
      // Drop the torn bytes from the file too: a later partial overwrite
      // must not splice them into a seemingly valid chain, and O_DIRECT
      // segment padding assumes nothing live beyond the logical tail.
      const off_t valid_size =
          static_cast<off_t>(log->FileOffsetLocked(valid_end));
      if (size > valid_size) {
        if (::ftruncate(fd, valid_size) != 0) {
          return Status::IOError("log truncate failed");
        }
      }
    }
  } else {
    // Fresh file: write the header for an untrimmed log.
    std::string header("OIRLOGF1", 8);
    PutFixed64(&header, 0);
    PutFixed64(&header, 0);
    if (::pwrite(fd, header.data(), header.size(), 0) !=
        static_cast<ssize_t>(header.size())) {
      return Status::IOError("log header write failed");
    }
    MutexLock l(log->mu_);
    log->file_header_ = header;
  }

  // Master checkpoint sidecar.
  std::string mpath = path + ".master";
  int mfd = ::open(mpath.c_str(), O_RDONLY);
  if (mfd >= 0 && !truncate) {
    char mbuf[12];
    if (::pread(mfd, mbuf, 12, 0) == 12) {
      Lsn master = DecodeFixed64(mbuf);
      uint32_t crc = DecodeFixed32(mbuf + 8);
      if (crc == crc32c::Value(mbuf, 8)) {
        MutexLock l(log->mu_);
        log->master_ckpt_ = master == 0 ? kInvalidLsn : master;
        log->durable_master_ckpt_ = log->master_ckpt_;
      }
    }
  }
  if (mfd >= 0) ::close(mfd);
  if (truncate) ::unlink(mpath.c_str());

  // Async writer for the pipelined durable path (it probes O_DIRECT and
  // falls back to buffered fdatasync internally).
  LogManager* raw = log.get();
  log->writer_ = std::make_unique<AsyncLogWriter>(
      opts.sync_mode, opts.inflight_segments,
      [raw](uint64_t seq, Status s, uint64_t io_ns) {
        raw->OnSegmentComplete(seq, std::move(s), io_ns);
      });
  OIR_RETURN_IF_ERROR(log->writer_->Open(path));

  // File-backed logs always group-commit: there is a real fsync whose cost
  // is worth amortizing across concurrent committers.
  log->EnableGroupCommit();

  *out = std::move(log);
  return Status::OK();
}

Status LogManager::PersistMasterLocked() {
  if (fd_ < 0) return Status::OK();
  std::string mpath = path_ + ".master";
  std::string tmp = mpath + ".tmp";
  char mbuf[12];
  EncodeFixed64(mbuf, master_ckpt_ == kInvalidLsn ? 0 : master_ckpt_);
  EncodeFixed32(mbuf + 8, crc32c::Value(mbuf, 8));
  int mfd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (mfd < 0) return Status::IOError("open master tmp failed");
  bool ok = ::pwrite(mfd, mbuf, 12, 0) == 12 && ::fdatasync(mfd) == 0;
  ::close(mfd);
  if (!ok) return Status::IOError("master write failed");
  if (::rename(tmp.c_str(), mpath.c_str()) != 0) {
    return Status::IOError("master rename failed");
  }
  return Status::OK();
}

// The record payload does not encode its own LSN (only prev_lsn), so
// serialization and the CRC — the expensive parts of an append — happen
// outside mu_; the critical section is just the buffer append.
Lsn LogManager::AppendEncoded(LogRecord* rec, const std::string& payload) {
  OIR_CRASH_POINT("wal.append.pre");
  char frame[8];
  EncodeFixed32(frame, static_cast<uint32_t>(payload.size()));
  EncodeFixed32(frame + 4,
                crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
  auto& c = GlobalCounters::Get();
  c.log_records.fetch_add(1, std::memory_order_relaxed);
  c.log_bytes.fetch_add(sizeof(frame) + payload.size(),
                        std::memory_order_relaxed);
  // Hold mu_ at elevated priority: an appender preempted mid-hold blocks
  // the (real-time) sealer and completion threads behind a starved CFS
  // thread — a priority inversion whose cost is a whole scheduling epoch.
  std::optional<ScopedCommitPriorityBoost> boost;
  if (writer_ != nullptr) boost.emplace();
  MutexLock l(mu_);
  const Lsn lsn = tail_;
  rec->lsn = lsn;
  bytes_.Write(lsn, frame, sizeof(frame));
  bytes_.Write(lsn + sizeof(frame), payload.data(), payload.size());
  tail_ = lsn + sizeof(frame) + payload.size();
  return lsn;
}

Lsn LogManager::Append(LogRecord* rec, TxnContext* ctx) {
  // Lazy begin: the begin record is written just before the transaction's
  // first real record, so transactions that never log (pure reads) cost
  // nothing in the WAL.
  if (ctx->last_lsn == kInvalidLsn && rec->type != LogType::kBeginTxn) {
    LogRecord begin;
    begin.type = LogType::kBeginTxn;
    begin.txn_id = ctx->txn_id;
    begin.prev_lsn = kInvalidLsn;
    std::string bp;
    begin.EncodeTo(&bp);
    const Lsn begin_lsn = AppendEncoded(&begin, bp);
    StoreLsn(&ctx->last_lsn, begin_lsn);
    StoreLsn(&ctx->begin_lsn, begin_lsn);
  }
  rec->txn_id = ctx->txn_id;
  rec->prev_lsn = ctx->last_lsn;
  std::string payload;
  rec->EncodeTo(&payload);
  Lsn lsn = AppendEncoded(rec, payload);
  StoreLsn(&ctx->last_lsn, lsn);
  if (ctx->begin_lsn == kInvalidLsn) StoreLsn(&ctx->begin_lsn, lsn);
  OIR_CRASH_POINT("wal.append.post");
  return lsn;
}

Lsn LogManager::AppendSystem(LogRecord* rec) {
  rec->txn_id = kInvalidTxnId;
  rec->prev_lsn = kInvalidLsn;
  std::string payload;
  rec->EncodeTo(&payload);
  return AppendEncoded(rec, payload);
}

void LogManager::AckLocked() {
  auto& c = GlobalCounters::Get();
  c.log_commits_acked.fetch_add(1, std::memory_order_relaxed);
  // All acks issued under one durable-advance seq rode the same flush:
  // count the group once, on its first ack.
  if (last_group_seq_ != durable_adv_seq_) {
    last_group_seq_ = durable_adv_seq_;
    c.log_groups_acked.fetch_add(1, std::memory_order_relaxed);
  }
}

// Flushing "to" an LSN must make the record AT that lsn durable; the
// boundary is advanced to the end of the log so one flush covers every
// record appended so far.
Status LogManager::FlushToLocked(Lsn lsn) {
  GlobalCounters::Get().log_flush_calls.fetch_add(1,
                                                  std::memory_order_relaxed);
  OIR_CRASH_POINT("wal.flush.pre");
  if (lsn < durable_lsn_) {
    if (group_commit_) AckLocked();
    return Status::OK();
  }
  // Fault injection: the log device is gone — nothing new becomes durable.
  if (fail_flushes_.load(std::memory_order_relaxed)) {
    return Status::IOError("fault injection: log flush failed");
  }
  if (!group_commit_) {
    // Synchronous in-memory path: durability is simulated, so the boundary
    // moves inline on the calling thread.
    OIR_CRASH_POINT("wal.flush.sync");
    durable_lsn_ = tail_;
    ++durable_adv_seq_;
    if (master_ckpt_ != kInvalidLsn && master_ckpt_ < durable_lsn_) {
      durable_master_ckpt_ = master_ckpt_;
    }
    return Status::OK();
  }
  // Group commit: publish the target, wake the sealer, and wait until the
  // durability boundary covers our record. The wake-up comes from a segment
  // *completion* (the sealer never blocks on the device).
  for (;;) {
    if (lsn < durable_lsn_) {
      AckLocked();
      return Status::OK();
    }
    if (fail_flushes_.load(std::memory_order_relaxed)) {
      return Status::IOError("fault injection: log flush failed");
    }
    OIR_CRASH_POINT("wal.flush.group_wait");
    const Lsn target = tail_;
    if (requested_lsn_ < target) {
      // Wake the sealer only on an idle→demand transition: while demand
      // is already pending the sealer is either working or deliberately
      // holding the micro-batch window open, and a preempting notify per
      // commit costs two context switches that buy nothing.
      const bool had_demand = requested_lsn_ > submitted_lsn_;
      requested_lsn_ = target;
      if (!had_demand) flush_cv_.NotifyOne();
    }
    const uint64_t my_err = flush_err_seq_;
    {
      obs::WaitScope ws(obs::WaitState::kWalCommitWait);
      while (
          !(lsn < durable_lsn_ || flush_err_seq_ != my_err || stop_sealer_)) {
        flushed_cv_.Wait(mu_);
      }
    }
    if (lsn < durable_lsn_) {
      AckLocked();
      return Status::OK();
    }
    if (flush_err_seq_ != my_err) return last_flush_error_;
    if (stop_sealer_) return Status::IOError("log manager shutting down");
  }
}

Status LogManager::FlushTo(Lsn lsn) {
  // File log: boost this thread for the duration of the wait so the
  // durable-completion wake-up preempts runnable OLTP threads instead of
  // queueing behind them (writer_ is fixed after Open, so reading it
  // unlocked here is safe).
  std::optional<ScopedCommitPriorityBoost> boost;
  if (writer_ != nullptr) boost.emplace();
  MutexLock lk(mu_);
  return FlushToLocked(lsn);
}

Status LogManager::FlushAll() {
  std::optional<ScopedCommitPriorityBoost> boost;
  if (writer_ != nullptr) boost.emplace();
  MutexLock lk(mu_);
  if (tail_ <= kHeaderSize) return Status::OK();
  // The record at tail-1 durable <=> durable_lsn_ >= tail.
  return FlushToLocked(tail_ - 1);
}

void LogManager::BuildSegmentLocked(Lsn begin, Lsn end, uint64_t* offset,
                                    std::string* data) const {
  const uint64_t raw_b = FileOffsetLocked(begin);
  const uint64_t raw_e = FileOffsetLocked(end);
  if (!writer_ || writer_->sync_mode() != WalSyncMode::kODirect) {
    *offset = raw_b;
    data->resize(end - begin);
    bytes_.Read(begin, data->data(), end - begin);
    return;
  }
  // O_DIRECT: sector-align the range. Leading bytes are re-materialized
  // from the file image (24-byte header mirror, then the log — file offset
  // f >= 24 holds the byte at LSN trim_base_ + f - 24); the tail is
  // zero-padded. A zero frame never parses (Unmask(0) != crc32c of an
  // empty payload), so padding can never extend the valid prefix past the
  // logical tail.
  const uint64_t a = raw_b / kWalSectorSize * kWalSectorSize;
  const uint64_t b =
      (raw_e + kWalSectorSize - 1) / kWalSectorSize * kWalSectorSize;
  *offset = a;
  data->assign(b - a, '\0');
  const uint64_t hdr_end = std::min<uint64_t>(raw_e, kFileHeaderSize);
  for (uint64_t f = a; f < hdr_end; ++f) {
    (*data)[f - a] = file_header_[f];
  }
  const uint64_t body_begin = std::max<uint64_t>(a, kFileHeaderSize);
  if (body_begin < raw_e) {
    bytes_.Read(trim_base_ + (body_begin - kFileHeaderSize),
                data->data() + (body_begin - a), raw_e - body_begin);
  }
}

void LogManager::OnSegmentComplete(uint64_t seq, Status s, uint64_t io_ns) {
  MutexLock l(mu_);
  segment_io_ns_.Add(io_ns);
  for (auto& seg : inflight_) {
    if (seg.seq == seq) {
      seg.done = true;
      seg.status = std::move(s);
      break;
    }
  }
  // A seq not found is a stale completion from before an error rewind
  // cleared the queue; the retry re-covers its range.
  CompleteSegmentsLocked();
}

void LogManager::CompleteSegmentsLocked() {
  bool advanced = false;
  bool failed = false;
  auto& c = GlobalCounters::Get();
  while (!inflight_.empty() && inflight_.front().done) {
    Segment seg = inflight_.front();
    inflight_.pop_front();
    OIR_CRASH_POINT("wal.pipeline.complete");
    c.wal_inflight_bytes.fetch_sub(seg.end - seg.begin,
                                   std::memory_order_relaxed);
    const bool power_cut = fail_flushes_.load(std::memory_order_relaxed);
    if (seg.status.ok() && !power_cut) {
      durable_lsn_ = seg.end;
      ++durable_adv_seq_;
      c.log_fsyncs.fetch_add(1, std::memory_order_relaxed);
      c.wal_segments_completed.fetch_add(1, std::memory_order_relaxed);
      OIR_TRACE(obs::TraceEventType::kWalSegComplete, seg.end,
                seg.end - seg.begin);
      if (master_ckpt_ != kInvalidLsn && master_ckpt_ < durable_lsn_) {
        durable_master_ckpt_ = master_ckpt_;
      }
      advanced = true;
    } else {
      // Once the fault-injection power cut is armed, no completion may
      // advance durability — the bytes may be on the platter, but the ack
      // never happened, so recovery must not see the commit.
      failed = true;
      last_flush_error_ = power_cut || seg.status.ok()
                              ? Status::IOError(
                                    "fault injection: log flush failed")
                              : seg.status;
      break;
    }
  }
  if (failed) {
    // A segment failed: even if later in-flight segments succeed
    // physically, durability cannot advance past the hole. Drop all
    // in-flight bookkeeping and rewind the submission boundary so the
    // sealer re-covers [durable_lsn_, tail) on the next request. Stale
    // completions for dropped segments miss the seq lookup and are
    // ignored; re-submitted ranges rewrite identical bytes (the buffer is
    // append-only between quiesces), so overlapping in-flight writes are
    // harmless.
    for (const Segment& seg : inflight_) {
      c.wal_inflight_bytes.fetch_sub(seg.end - seg.begin,
                                     std::memory_order_relaxed);
    }
    inflight_.clear();
    submitted_lsn_ = durable_lsn_;
    padded_end_off_ = 0;
    ++flush_err_seq_;
    requested_lsn_ = durable_lsn_;
  }
  if (advanced || failed) {
    flushed_cv_.NotifyAll();
    // Also wake the sealer: an in-flight slot freed up (or the rewind
    // needs re-sealing).
    flush_cv_.NotifyAll();
  }
}

void LogManager::PipelineLoop() {
  TryElevateLogThreadPriority();
  MutexLock lk(mu_);
  auto& c = GlobalCounters::Get();
  while (!stop_sealer_) {
    CompleteSegmentsLocked();
    if (quiescing_) {
      flush_cv_.Wait(mu_);  // wait-state: sealer parked while quiescing
      continue;
    }
    const Lsn tail = tail_;
    const bool demand = requested_lsn_ > submitted_lsn_;
    const bool size_due =
        writer_ != nullptr && tail - submitted_lsn_ >= wal_opts_.segment_bytes;
    if (!demand && !size_due) {
      if (writer_ != nullptr && tail > submitted_lsn_) {
        // Unsubmitted bytes nobody is waiting for: give committers a
        // moment to batch, then seal anyway so fire-and-forget appends
        // reach the device in bounded time. (In-memory logs skip this:
        // durability there is simulated, and advancing it without a flush
        // request would change SimulateCrash semantics.)
        // wait-state: sealer batching window, not an operation wait
        flush_cv_.WaitFor(mu_, std::chrono::milliseconds(5));
        if (stop_sealer_ || quiescing_) continue;
        if (requested_lsn_ > submitted_lsn_ || tail_ != tail) {
          continue;  // demand or growth arrived; re-evaluate from the top
        }
        // Timed out with a stable idle tail: fall through and seal it.
      } else {
        flush_cv_.Wait(mu_);  // wait-state: sealer idle, no demand
        continue;
      }
    }
    if (inflight_.size() >= wal_opts_.inflight_segments) {
      // wait-state: sealer backpressure; a completion frees a slot and
      // notifies
      flush_cv_.Wait(mu_);
      continue;
    }
    if (demand && !size_due && writer_ != nullptr) {
      // Micro-batch window (kGroupWindow). Deadline-based — waiter
      // notifications land on flush_cv_ and must not cut the window short.
      const auto deadline = std::chrono::steady_clock::now() + kGroupWindow;
      while (!stop_sealer_ && !quiescing_ &&
             !fail_flushes_.load(std::memory_order_relaxed) &&
             tail_ - submitted_lsn_ < wal_opts_.segment_bytes) {
        // wait-state: sealer micro-batch window, not an operation wait
        if (flush_cv_.WaitUntil(mu_, deadline) == std::cv_status::timeout) {
          break;
        }
      }
      if (stop_sealer_ || quiescing_) continue;
    }
    OIR_CRASH_POINT("wal.pipeline.seal");
    if (fail_flushes_.load(std::memory_order_relaxed)) {
      // The log device is gone. Publish one failed round for any waiter
      // currently blocked, drop the request, and sleep — the flag is
      // cleared before recovery resumes, and the next FlushTo re-raises
      // the request.
      if (requested_lsn_ > durable_lsn_) {
        last_flush_error_ =
            Status::IOError("fault injection: log flush failed");
        ++flush_err_seq_;
        requested_lsn_ = durable_lsn_;
        flushed_cv_.NotifyAll();
      }
      flush_cv_.Wait(mu_);  // wait-state: log device failed, parked
      continue;
    }
    const Lsn begin = submitted_lsn_;
    const Lsn end = std::min<Lsn>(tail_, begin + wal_opts_.segment_bytes);
    if (end <= begin) continue;
    if (writer_ != nullptr &&
        writer_->sync_mode() == WalSyncMode::kODirect && !inflight_.empty()) {
      // O_DIRECT hazard: this segment's first sector is the previous
      // segment's zero-padded last sector. Two in-flight writes to one
      // sector can land in either order, so wait for the overlapping
      // predecessor to complete before sealing. Sector-disjoint segments
      // (the common case for the buffered modes) pipeline fully.
      const uint64_t first_sector =
          FileOffsetLocked(begin) / kWalSectorSize * kWalSectorSize;
      if (first_sector < padded_end_off_) {
        flush_cv_.Wait(mu_);  // wait-state: sealer O_DIRECT sector hazard
        continue;
      }
    }
    Segment seg;
    seg.seq = next_seg_seq_++;
    seg.begin = begin;
    seg.end = end;
    uint64_t offset = 0;
    std::string data;
    if (writer_ != nullptr) BuildSegmentLocked(begin, end, &offset, &data);
    submitted_lsn_ = end;
    inflight_.push_back(seg);
    c.wal_segments_sealed.fetch_add(1, std::memory_order_relaxed);
    c.wal_inflight_bytes.fetch_add(end - begin, std::memory_order_relaxed);
    OIR_TRACE(obs::TraceEventType::kWalSegSeal, end, end - begin);
    OIR_CRASH_POINT("wal.pipeline.submit");
    if (writer_ != nullptr) {
      padded_end_off_ = offset + data.size();
      OIR_TRACE(obs::TraceEventType::kWalSegSubmit, end, data.size());
      // Submit never blocks on the device and never invokes the completion
      // callback on this thread, so holding mu_ here is safe — and keeps
      // the seal→submit transition atomic with respect to quiesce.
      writer_->Submit(seg.seq, offset, std::move(data));
    } else {
      // In-memory log: durability is simulated, so the segment completes
      // inline — still exercising the full seal/submit/complete protocol
      // (and its crash points) without a writer thread.
      OIR_TRACE(obs::TraceEventType::kWalSegSubmit, end, end - begin);
      inflight_.back().done = true;
      inflight_.back().status = Status::OK();
      CompleteSegmentsLocked();
    }
  }
  flushed_cv_.NotifyAll();
}

void LogManager::QuiescePipeline() {
  {
    MutexLock l(mu_);
    quiescing_ = true;
    if (!group_commit_) {
      // No sealer running (an in-memory log that never enabled group
      // commit): nothing can be in flight.
      return;
    }
  }
  // The sealer holds mu_ from its quiescing_ check through Submit, so once
  // the flag is set (we held mu_ above) no new segment can be submitted;
  // Drain() then covers everything submitted before.
  flush_cv_.NotifyAll();
  if (writer_) writer_->Drain();
  MutexLock l(mu_);
  CompleteSegmentsLocked();
  auto& c = GlobalCounters::Get();
  for (const Segment& seg : inflight_) {
    c.wal_inflight_bytes.fetch_sub(seg.end - seg.begin,
                                   std::memory_order_relaxed);
  }
  inflight_.clear();
  submitted_lsn_ = durable_lsn_;
  padded_end_off_ = 0;
  // quiescing_ stays set; the caller finishes its critical work (truncate,
  // trim) and clears it.
}

void LogManager::SetMasterCheckpoint(Lsn lsn) {
  OIR_CRASH_POINT("wal.master.set");
  MutexLock l(mu_);
  master_ckpt_ = lsn;
  if (lsn < durable_lsn_) durable_master_ckpt_ = lsn;
  Status s = PersistMasterLocked();
  OIR_CHECK(s.ok());
}

Lsn LogManager::master_checkpoint() const {
  MutexLock l(mu_);
  return master_ckpt_;
}

void LogManager::DiscardPrefix(Lsn lsn) {
  OIR_CRASH_POINT("wal.discard_prefix");
  // Every LSN's file offset changes across a trim, so nothing may be in
  // flight while the file is rewritten.
  QuiescePipeline();
  {
    MutexLock l(mu_);
    if (lsn > trim_base_ + kHeaderSize) {
      if (lsn > tail_) lsn = tail_;
      bytes_.DropBelow(lsn);
      trim_base_ = lsn;
      if (fd_ >= 0) {
        // Rewrite the file: new header with the trim base, then the
        // retained bytes, one chunk at a time. Log truncation is rare
        // (checkpoint-driven), so a full rewrite is acceptable.
        std::string header("OIRLOGF1", 8);
        PutFixed64(&header, trim_base_);
        PutFixed64(&header, 0);
        OIR_CHECK(::pwrite(fd_, header.data(), header.size(), 0) ==
                  static_cast<ssize_t>(header.size()));
        off_t off = kFileHeaderSize;
        bytes_.ForEachPiece(trim_base_, tail_ - trim_base_,
                            [this, &off](const char* p, size_t n) {
                              OIR_CHECK(p != nullptr);
                              OIR_CHECK(::pwrite(fd_, p, n, off) ==
                                        static_cast<ssize_t>(n));
                              off += static_cast<off_t>(n);
                            });
        OIR_CHECK(::ftruncate(fd_, off) == 0);
        OIR_CHECK(::fdatasync(fd_) == 0);
        file_header_ = header;
      }
      if (submitted_lsn_ < trim_base_) submitted_lsn_ = trim_base_;
    }
    quiescing_ = false;
  }
  flush_cv_.NotifyAll();
}

Lsn LogManager::trim_lsn() const {
  MutexLock l(mu_);
  return trim_base_ > kHeaderSize ? trim_base_ : kHeaderSize;
}

Lsn LogManager::durable_lsn() const {
  MutexLock l(mu_);
  return durable_lsn_;
}

Lsn LogManager::tail_lsn() const {
  MutexLock l(mu_);
  return tail_;
}

Status LogManager::ReadRecord(Lsn lsn, LogRecord* rec, Lsn* next_lsn) const {
  MutexLock l(mu_);
  if (lsn < kHeaderSize || lsn < trim_base_ || lsn + 8 > tail_) {
    return Status::InvalidArgument("lsn out of range");
  }
  char frame[8];
  bytes_.Read(lsn, frame, sizeof(frame));
  uint32_t len = DecodeFixed32(frame);
  uint32_t stored_crc = crc32c::Unmask(DecodeFixed32(frame + 4));
  if (lsn + 8 + len > tail_) {
    return Status::Corruption("truncated log record");
  }
  // A payload that straddles two chunks is decoded from a scratch copy.
  std::string scratch;
  const char* payload = bytes_.Contiguous(lsn + 8, len);
  if (payload == nullptr) {
    scratch.resize(len);
    bytes_.Read(lsn + 8, scratch.data(), len);
    payload = scratch.data();
  }
  if (crc32c::Value(payload, len) != stored_crc) {
    return Status::Corruption("log record crc mismatch");
  }
  OIR_RETURN_IF_ERROR(LogRecord::DecodeFrom(Slice(payload, len), rec));
  rec->lsn = lsn;
  if (next_lsn != nullptr) *next_lsn = lsn + 8 + len;
  return Status::OK();
}

LogManager::Iterator::Iterator(const LogManager* log, Lsn start, Lsn limit)
    : log_(log), lsn_(start), next_lsn_(start), limit_(limit), valid_(false) {
  ReadCurrent();
}

void LogManager::Iterator::ReadCurrent() {
  valid_ = false;
  if (lsn_ >= limit_) return;
  Status s = log_->ReadRecord(lsn_, &rec_, &next_lsn_);
  if (!s.ok()) return;  // torn tail or corruption: stop
  valid_ = true;
}

void LogManager::Iterator::Next() {
  OIR_DCHECK(valid_);
  lsn_ = next_lsn_;
  ReadCurrent();
}

LogManager::Iterator LogManager::Scan(Lsn start, Lsn limit) const {
  Lsn lim = limit;
  if (lim == kInvalidLsn) lim = tail_lsn();
  if (start < kHeaderSize) start = kHeaderSize;
  return Iterator(this, start, lim);
}

void LogManager::SimulateCrash() {
  // Drain the pipeline first: a physically in-flight segment either
  // completes before the "power-off" line below (advancing durability —
  // legitimately, its fsync finished) or, when the fault-injection flag is
  // set, completes without effect. Either way nothing can land after the
  // truncate.
  QuiescePipeline();
  {
    MutexLock l(mu_);
    if (durable_lsn_ > trim_base_) {
      tail_ = durable_lsn_;
      bytes_.Truncate(tail_);
    }
    // No in-flight flush can complete past the crash point.
    if (requested_lsn_ > durable_lsn_) requested_lsn_ = durable_lsn_;
    // Only a checkpoint whose record was durable survives the crash.
    master_ckpt_ = durable_master_ckpt_;
    if (fd_ >= 0 && durable_lsn_ >= trim_base_) {
      // Cut the file at the durability boundary: written-but-unacked
      // segment bytes (including O_DIRECT sector padding) must not be
      // resurrected by a reopen.
      const off_t len = static_cast<off_t>(FileOffsetLocked(durable_lsn_));
      OIR_CHECK(::ftruncate(fd_, len) == 0);
      OIR_CHECK(::fdatasync(fd_) == 0);
    }
    quiescing_ = false;
  }
  flush_cv_.NotifyAll();
}

uint64_t LogManager::TotalBytesAppended() const {
  MutexLock l(mu_);
  return tail_ - kHeaderSize;
}

}  // namespace oir
