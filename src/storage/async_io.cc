#include "storage/async_io.h"

#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#if defined(__linux__)
#include <linux/falloc.h>
#include <sys/syscall.h>
#endif

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <utility>

#include "obs/waitstate.h"
#include "sync/mutex.h"
#include "util/clock.h"
#include "util/logging.h"

namespace oir {

void TryElevateLogThreadPriority() {
  // SCHED_FIFO priority 1: the thread preempts every CFS task the moment
  // it is woken, which is exactly the property a commit ack needs. Safe
  // here because these threads always block between short bursts.
  sched_param sp{};
  sp.sched_priority = 1;
  if (pthread_setschedparam(pthread_self(), SCHED_FIFO, &sp) == 0) return;
#if defined(__linux__)
  // Unprivileged fallback: nice applies per-thread on Linux.
  ::setpriority(PRIO_PROCESS, static_cast<id_t>(::syscall(SYS_gettid)), -10);
#endif
}

namespace {
// Set after the first pthread_setschedparam failure so unprivileged
// processes pay one probe, not two syscalls per logged commit.
std::atomic<bool> g_commit_boost_unavailable{false};
}  // namespace

ScopedCommitPriorityBoost::ScopedCommitPriorityBoost() {
  if (g_commit_boost_unavailable.load(std::memory_order_relaxed)) return;
  sched_param old{};
  if (pthread_getschedparam(pthread_self(), &old_policy_, &old) != 0) {
    g_commit_boost_unavailable.store(true, std::memory_order_relaxed);
    return;
  }
  old_priority_ = old.sched_priority;
  sched_param sp{};
  sp.sched_priority = 1;
  if (pthread_setschedparam(pthread_self(), SCHED_FIFO, &sp) != 0) {
    g_commit_boost_unavailable.store(true, std::memory_order_relaxed);
    return;
  }
  boosted_ = true;
}

ScopedCommitPriorityBoost::~ScopedCommitPriorityBoost() {
  if (!boosted_) return;
  sched_param sp{};
  sp.sched_priority = old_priority_;
  pthread_setschedparam(pthread_self(), old_policy_, &sp);
}

const char* WalSyncModeName(WalSyncMode m) {
  switch (m) {
    case WalSyncMode::kFdatasync: return "fdatasync";
    case WalSyncMode::kFsync: return "fsync";
    case WalSyncMode::kODirect: return "odirect";
  }
  return "unknown";
}

bool ParseWalSyncMode(const std::string& s, WalSyncMode* out) {
  if (s == "fdatasync") *out = WalSyncMode::kFdatasync;
  else if (s == "fsync") *out = WalSyncMode::kFsync;
  else if (s == "odirect") *out = WalSyncMode::kODirect;
  else return false;
  return true;
}

namespace {

// Opens the writer's own descriptor on the log file, degrading kODirect to
// kFdatasync when the filesystem refuses O_DIRECT. The effective mode is
// written back to *mode.
Status OpenWriterFd(const std::string& path, WalSyncMode* mode, int* out_fd) {
  if (*mode == WalSyncMode::kODirect) {
    int fd = ::open(path.c_str(), O_RDWR | O_DIRECT, 0644);
    if (fd >= 0) {
      *out_fd = fd;
      return Status::OK();
    }
    *mode = WalSyncMode::kFdatasync;  // e.g. tmpfs: no O_DIRECT
  }
  int fd = ::open(path.c_str(), O_RDWR, 0644);
  if (fd < 0) {
    return Status::IOError("open wal writer fd " + path + ": " +
                           std::strerror(errno));
  }
  *out_fd = fd;
  return Status::OK();
}

// Keeps the file's block allocation ahead of the append frontier so every
// segment write lands on already-allocated blocks. With allocation done,
// fdatasync has no block-mapping metadata to journal — which both trims the
// common case and removes a multi-millisecond tail where the log's sync
// waits on a filesystem journal commit shared with concurrent data-page
// write-back. KEEP_SIZE leaves i_size untouched, so recovery's torn-tail
// scan still sees exactly the bytes that were written. Best-effort: on
// filesystems without fallocate the log simply keeps paying for allocation
// inside the sync, as before.
constexpr uint64_t kWalPreallocChunk = 64ull << 20;

void PreallocateAhead(int fd, uint64_t end_offset,
                      std::atomic<uint64_t>* allocated) {
#if defined(__linux__) && defined(FALLOC_FL_KEEP_SIZE)
  uint64_t cur = allocated->load(std::memory_order_relaxed);
  if (end_offset <= cur) return;
  uint64_t target = (end_offset / kWalPreallocChunk + 1) * kWalPreallocChunk;
  // Concurrent callers may both extend; fallocate over an already-allocated
  // range is an idempotent no-op, so the race is harmless.
  if (::syscall(SYS_fallocate, fd, FALLOC_FL_KEEP_SIZE,
                static_cast<off_t>(cur),
                static_cast<off_t>(target - cur)) != 0) {
    return;
  }
  allocated->store(target, std::memory_order_relaxed);
#else
  (void)fd;
  (void)end_offset;
  (void)allocated;
#endif
}

Status SyncFd(int fd, WalSyncMode mode) {
  // O_DIRECT writes bypass the page cache but the device write cache and
  // inode size still need the barrier, so every mode ends in a sync call.
  int rc = mode == WalSyncMode::kFsync ? ::fsync(fd) : ::fdatasync(fd);
  if (rc != 0) {
    return Status::IOError(std::string("wal sync: ") + std::strerror(errno));
  }
  return Status::OK();
}

struct FreeDeleter {
  void operator()(char* p) const { std::free(p); }
};

Status PwriteAll(int fd, const char* data, size_t len, uint64_t off) {
  size_t done = 0;
  while (done < len) {
    ssize_t w = ::pwrite(fd, data + done, len - done,
                         static_cast<off_t>(off + done));
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("wal pwrite: ") +
                             std::strerror(errno));
    }
    done += static_cast<size_t>(w);
  }
  return Status::OK();
}

}  // namespace

AsyncLogWriter::AsyncLogWriter(WalSyncMode mode, uint32_t inflight,
                               CompletionFn cb)
    : mode_(mode),
      workers_wanted_(inflight < 1 ? 1 : (inflight > 8 ? 8 : inflight)),
      cb_(std::move(cb)) {}

AsyncLogWriter::~AsyncLogWriter() {
  {
    MutexLock l(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (auto& w : workers_) w.join();
  if (fd_ >= 0) ::close(fd_);
}

Status AsyncLogWriter::Open(const std::string& path) {
  OIR_RETURN_IF_ERROR(OpenWriterFd(path, &mode_, &fd_));
  workers_.reserve(workers_wanted_);
  for (uint32_t i = 0; i < workers_wanted_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void AsyncLogWriter::Submit(uint64_t seq, uint64_t offset, std::string data) {
  {
    MutexLock l(mu_);
    queue_.push_back(Request{seq, offset, std::move(data)});
    ++outstanding_;
  }
  cv_.NotifyOne();
}

void AsyncLogWriter::Drain() {
  MutexLock l(mu_);
  obs::WaitScope ws(obs::WaitState::kIoWait);
  while (outstanding_ != 0) cv_.Wait(mu_);
}

Status AsyncLogWriter::WriteDurable(const Request& req) {
  PreallocateAhead(fd_, req.offset + req.data.size(), &allocated_);
  const char* src = req.data.data();
  std::unique_ptr<char, FreeDeleter> aligned;
  if (mode_ == WalSyncMode::kODirect) {
    // O_DIRECT needs a sector-aligned source buffer, which std::string
    // does not guarantee; one memcpy per segment is noise next to the
    // device write.
    void* p = nullptr;
    OIR_CHECK(posix_memalign(&p, kWalSectorSize, req.data.size()) == 0);
    std::memcpy(p, req.data.data(), req.data.size());
    aligned.reset(static_cast<char*>(p));
    src = aligned.get();
  }
  OIR_RETURN_IF_ERROR(PwriteAll(fd_, src, req.data.size(), req.offset));
  return SyncFd(fd_, mode_);
}

void AsyncLogWriter::WorkerLoop() {
  TryElevateLogThreadPriority();
  mu_.Lock();
  for (;;) {
    // wait-state: WAL segment writer idle
    while (queue_.empty() && !stop_) cv_.Wait(mu_);
    if (queue_.empty() && stop_) break;
    Request req = std::move(queue_.front());
    queue_.pop_front();
    mu_.Unlock();
    // Write+sync span: the device's share of commit latency.
    const uint64_t io_start = NowNanos();
    Status s = WriteDurable(req);
    const uint64_t io_ns = NowNanos() - io_start;
    // No locks held across the callback (the contract the WAL's
    // completion path relies on).
    cb_(req.seq, s, io_ns);
    mu_.Lock();
    --outstanding_;
    cv_.NotifyAll();  // wake Drain() and idle workers alike
  }
  mu_.Unlock();
}

}  // namespace oir
