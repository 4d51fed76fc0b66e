#include "obs/flight_recorder.h"

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/json.h"
#include "obs/trace.h"
#include "obs/waitstate.h"
#include "util/clock.h"
#include "util/counters.h"

namespace oir::obs {

namespace {

std::string BundleDir() {
  const char* dir = std::getenv("OIR_FLIGHT_DIR");
  if (dir != nullptr && dir[0] != '\0') return dir;
  dir = std::getenv("TMPDIR");
  if (dir != nullptr && dir[0] != '\0') return dir;
  return "/tmp";
}

// Write-then-rename so a concurrent reader never sees a torn bundle.
bool WriteFileAtomic(const std::string& path, const std::string& body) {
  std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  size_t n = std::fwrite(body.data(), 1, body.size(), f);
  bool ok = (n == body.size()) && (std::fclose(f) == 0);
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

// Guards against a crash inside the signal handler re-entering it.
std::atomic<bool> g_in_fatal_handler{false};
std::atomic<bool> g_crash_handler_installed{false};

void FatalSignalHandler(int signo) {
  if (!g_in_fatal_handler.exchange(true)) {
    // Deliberately not async-signal-safe: this is a diagnostic of last
    // resort and the process is dying anyway.
    std::string reason = std::string("fatal_signal:") + strsignal(signo);
    std::string path;
    if (FlightRecorder::Get().DumpNow(reason, &path)) {
      std::fprintf(stderr, "[oir] fatal signal %d; flight record: %s\n",
                   signo, path.c_str());
    }
  }
  std::signal(signo, SIG_DFL);
  std::raise(signo);
}

}  // namespace

FlightRecorder& FlightRecorder::Get() {
  static FlightRecorder* instance = new FlightRecorder();
  return *instance;
}

uint64_t FlightRecorder::RegisterProvider(const std::string& name,
                                          std::function<std::string()> fn) {
  MutexLock l(providers_mu_);
  uint64_t token = next_token_++;
  providers_[name] = Provider{token, std::move(fn)};
  return token;
}

void FlightRecorder::UnregisterProvider(const std::string& name,
                                        uint64_t token) {
  MutexLock l(providers_mu_);
  auto it = providers_.find(name);
  if (it != providers_.end() && it->second.token == token) {
    providers_.erase(it);
  }
}

void FlightRecorder::NoteSnapshot(std::string stats_json) {
  MutexLock l(ring_mu_);
  recent_stats_.push_back(std::move(stats_json));
  while (recent_stats_.size() > kMaxRecentStats) recent_stats_.pop_front();
}

void FlightRecorder::Trigger(const std::string& reason) {
  MutexLock l(trigger_mu_);
  for (const std::string& p : pending_) {
    if (p == reason) return;  // coalesce
  }
  pending_.push_back(reason);
  EnsureWorkerLocked();
  trigger_cv_.NotifyOne();
}

void FlightRecorder::EnsureWorkerLocked() {
  if (worker_started_) return;
  worker_started_ = true;
  worker_ = std::thread([this] { WorkerLoop(); });
  // The singleton is leaked; the worker runs for the process lifetime.
  worker_.detach();
}

void FlightRecorder::WorkerLoop() {
  for (;;) {
    std::string reason;
    {
      MutexLock l(trigger_mu_);
      while (pending_.empty()) {
        trigger_cv_.Wait(trigger_mu_);  // wait-state: recorder idle
      }
      reason = pending_.front();
      pending_.pop_front();
    }
    DumpNow(reason, nullptr);
  }
}

std::string FlightRecorder::BuildBundleJson(const std::string& reason) {
  JsonWriter w;
  w.BeginObject();
  w.Key("reason").Value(reason);
  w.Key("seq").Value(seq_.load(std::memory_order_relaxed));
  w.Key("ts_ns").Value(NowNanos());
  w.Key("pid").Value(static_cast<uint64_t>(::getpid()));
  w.Key("wait_profile").RawValue(WaitProfiler::ToJson());
  w.Key("counters").BeginObject();
  GlobalCounters::Get().Snapshot().ForEach(
      [&w](const char* name, uint64_t v) { w.Key(name).Value(v); });
  w.EndObject();
  w.Key("trace").RawValue(TraceBuffer::Get().DumpJson(kMaxTraceEvents));
  {
    MutexLock l(ring_mu_);
    w.Key("recent_stats").BeginArray();
    for (const std::string& s : recent_stats_) w.RawValue(s);
    w.EndArray();
  }
  {
    // Providers run under providers_mu_ so unregistration (Db teardown)
    // cannot race a dump that is about to call into Db state.
    MutexLock l(providers_mu_);
    for (const auto& [name, p] : providers_) {
      std::string doc = p.fn();
      w.Key(name).RawValue(JsonIsValid(doc) ? doc : std::string("null"));
    }
  }
  w.EndObject();
  return w.str();
}

bool FlightRecorder::DumpNow(const std::string& reason, std::string* path) {
  uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  std::string body = BuildBundleJson(reason);
  char name[64];
  std::snprintf(name, sizeof(name), "/oir_flight_%d_%llu.json",
                static_cast<int>(::getpid()),
                static_cast<unsigned long long>(seq));
  std::string file = BundleDir() + name;
  if (!WriteFileAtomic(file, body)) return false;
  GlobalCounters::Get().flight_records_dumped.fetch_add(
      1, std::memory_order_relaxed);
  {
    MutexLock l(path_mu_);
    last_dump_path_ = file;
    if (path == nullptr) {
      triggered_.push_back(file);
      if (triggered_.size() > kMaxTriggeredBundles) {
        std::remove(triggered_.front().c_str());
        triggered_.pop_front();
      }
    }
    dumps_completed_.fetch_add(1, std::memory_order_release);
    dumped_cv_.NotifyAll();
  }
  if (path != nullptr) *path = file;
  return true;
}

std::string FlightRecorder::last_dump_path() const {
  MutexLock l(path_mu_);
  return last_dump_path_;
}

bool FlightRecorder::WaitForDumps(uint64_t n, int64_t timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  MutexLock l(path_mu_);
  while (dumps_completed_.load(std::memory_order_acquire) < n) {
    if (dumped_cv_.WaitUntil(path_mu_, deadline) ==  // wait-state: test hook
        std::cv_status::timeout) {
      return dumps_completed_.load(std::memory_order_acquire) >= n;
    }
  }
  return true;
}

void FlightRecorder::InstallCrashHandler() {
  if (g_crash_handler_installed.exchange(true)) return;
  std::signal(SIGSEGV, FatalSignalHandler);
  std::signal(SIGBUS, FatalSignalHandler);
  std::signal(SIGABRT, FatalSignalHandler);
  std::signal(SIGFPE, FatalSignalHandler);
}

}  // namespace oir::obs
