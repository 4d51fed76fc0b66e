#include "sync/lock_manager.h"

#include <cstdio>

#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "obs/waitstate.h"
#include "util/counters.h"
#include "util/logging.h"

namespace oir {

namespace {

const char* SpaceName(LockSpace s) {
  return s == LockSpace::kAddress ? "page" : "row";
}

const char* ModeName(LockMode m) { return m == LockMode::kX ? "X" : "S"; }

}  // namespace

LockManager::LockManager()
    : shards_(new Shard[kNumShards]),
      wait_timeout_(std::chrono::milliseconds(10000)) {}

LockManager::~LockManager() { delete[] shards_; }

LockManager::Shard& LockManager::ShardFor(const LockKey& key) const {
  return shards_[LockKeyHash()(key) % kNumShards];
}

bool LockManager::Grantable(const Entry& e, TxnId owner, LockMode mode) {
  for (const auto& [holder, h] : e.granted) {
    if (holder == owner) continue;
    if (mode == LockMode::kX || h.mode == LockMode::kX) return false;
  }
  return true;
}

void LockManager::WatchdogFire(const Shard& shard, const LockKey& key,
                               TxnId owner, LockMode mode,
                               std::chrono::milliseconds waited) {
  shard.mu.AssertHeld();
  auto it = shard.table.find(key);
  if (it == shard.table.end()) return;
  const Entry& e = it->second;
  GlobalCounters::Get().lock_watchdog_fires.fetch_add(
      1, std::memory_order_relaxed);
  TxnId holder_id = 0;
  LockMode holder_mode = LockMode::kS;
  uint32_t holder_count = 0;
  for (const auto& [h, hold] : e.granted) {
    if (h == owner) continue;
    holder_id = h;
    holder_mode = hold.mode;
    holder_count = hold.count;
    break;
  }
  OIR_TRACE(obs::TraceEventType::kLockWatchdog, key.id, holder_id);
  std::fprintf(stderr,
               "[oir] lock watchdog: txn %llu has waited %lld ms for %s lock "
               "on %s %llu; current holder: txn %llu (%s, count %u)\n",
               static_cast<unsigned long long>(owner),
               static_cast<long long>(waited.count()), ModeName(mode),
               SpaceName(key.space), static_cast<unsigned long long>(key.id),
               static_cast<unsigned long long>(holder_id),
               ModeName(holder_mode), holder_count);
  // Async only: this thread holds shard.mu, and the flight-record dump
  // calls back into DumpJson (which takes every shard mutex). Trigger only
  // touches the recorder's leaf mutex.
  obs::FlightRecorder::Get().Trigger("lock_watchdog");
}

Status LockManager::Lock(TxnId owner, LockKey key, LockMode mode,
                         bool conditional) {
  auto& c = GlobalCounters::Get();
  c.lock_requests.fetch_add(1, std::memory_order_relaxed);
  Shard& shard = ShardFor(key);
  MutexLock lk(shard.mu);
  Entry& e = shard.table[key];

  auto self = e.granted.find(owner);
  if (self != e.granted.end() && self->second.mode >= mode) {
    // Already held at sufficient strength.
    ++self->second.count;
    return Status::OK();
  }

  if (!Grantable(e, owner, mode)) {
    if (conditional) {
      if (e.granted.empty()) shard.table.erase(key);
      c.cond_lock_failures.fetch_add(1, std::memory_order_relaxed);
      OIR_TRACE(obs::TraceEventType::kCondLockFail, key.id, owner);
      return Status::Busy("lock not available");
    }
    c.lock_waits.fetch_add(1, std::memory_order_relaxed);
    OIR_TRACE(obs::TraceEventType::kLockWaitBegin, key.id, owner);
    obs::WaitScope ws(obs::WaitState::kLockWait);
    const auto start = std::chrono::steady_clock::now();
    const auto deadline = start + wait_timeout_;
    const int64_t wd_ms = long_wait_ms_.load(std::memory_order_relaxed);
    const auto watchdog_at = start + std::chrono::milliseconds(wd_ms);
    bool watchdog_fired = wd_ms <= 0;  // 0 disables
    while (!Grantable(shard.table[key], owner, mode)) {
      auto wake = deadline;
      if (!watchdog_fired && watchdog_at < wake) wake = watchdog_at;
      if (shard.cv.WaitUntil(shard.mu, wake) == std::cv_status::timeout) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) {
          OIR_TRACE(obs::TraceEventType::kLockWaitEnd, key.id, owner);
          Entry& e2 = shard.table[key];
          if (e2.granted.empty()) shard.table.erase(key);
          return Status::Aborted("lock wait timeout (possible deadlock)");
        }
        if (!watchdog_fired && now >= watchdog_at) {
          watchdog_fired = true;
          WatchdogFire(shard, key, owner, mode,
                       std::chrono::duration_cast<std::chrono::milliseconds>(
                           now - start));
        }
      }
    }
    OIR_TRACE(obs::TraceEventType::kLockWaitEnd, key.id, owner);
  }

  Entry& e3 = shard.table[key];
  auto it = e3.granted.find(owner);
  if (it == e3.granted.end()) {
    e3.granted[owner] = Holder{mode, 1};
  } else {
    // Upgrade (S -> X). Count carries over plus this acquisition.
    it->second.mode = mode;
    ++it->second.count;
  }
  return Status::OK();
}

Status LockManager::LockInstant(TxnId owner, LockKey key, LockMode mode,
                                bool conditional) {
  auto& c = GlobalCounters::Get();
  c.lock_requests.fetch_add(1, std::memory_order_relaxed);
  Shard& shard = ShardFor(key);
  MutexLock lk(shard.mu);
  auto it = shard.table.find(key);
  if (it == shard.table.end() || Grantable(it->second, owner, mode)) {
    return Status::OK();
  }
  if (conditional) {
    c.cond_lock_failures.fetch_add(1, std::memory_order_relaxed);
    OIR_TRACE(obs::TraceEventType::kCondLockFail, key.id, owner);
    return Status::Busy("lock not available");
  }
  c.lock_waits.fetch_add(1, std::memory_order_relaxed);
  OIR_TRACE(obs::TraceEventType::kLockWaitBegin, key.id, owner);
  obs::WaitScope ws(obs::WaitState::kLockWait);
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + wait_timeout_;
  const int64_t wd_ms = long_wait_ms_.load(std::memory_order_relaxed);
  const auto watchdog_at = start + std::chrono::milliseconds(wd_ms);
  bool watchdog_fired = wd_ms <= 0;
  for (;;) {
    auto it2 = shard.table.find(key);
    if (it2 == shard.table.end() || Grantable(it2->second, owner, mode)) {
      OIR_TRACE(obs::TraceEventType::kLockWaitEnd, key.id, owner);
      return Status::OK();
    }
    auto wake = deadline;
    if (!watchdog_fired && watchdog_at < wake) wake = watchdog_at;
    if (shard.cv.WaitUntil(shard.mu, wake) == std::cv_status::timeout) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        OIR_TRACE(obs::TraceEventType::kLockWaitEnd, key.id, owner);
        return Status::Aborted("lock wait timeout (possible deadlock)");
      }
      if (!watchdog_fired && now >= watchdog_at) {
        watchdog_fired = true;
        WatchdogFire(shard, key, owner, mode,
                     std::chrono::duration_cast<std::chrono::milliseconds>(
                         now - start));
      }
    }
  }
}

void LockManager::Unlock(TxnId owner, LockKey key) {
  Shard& shard = ShardFor(key);
  bool wake = false;
  {
    MutexLock lk(shard.mu);
    auto it = shard.table.find(key);
    if (it == shard.table.end()) return;
    auto self = it->second.granted.find(owner);
    if (self == it->second.granted.end()) return;
    if (--self->second.count == 0) {
      it->second.granted.erase(self);
      wake = true;
      if (it->second.granted.empty()) shard.table.erase(it);
    }
  }
  if (wake) shard.cv.NotifyAll();
}

void LockManager::Reset() {
  for (size_t i = 0; i < kNumShards; ++i) {
    MutexLock lk(shards_[i].mu);
    shards_[i].table.clear();
  }
}

bool LockManager::IsHeld(TxnId owner, LockKey key, LockMode mode) const {
  Shard& shard = ShardFor(key);
  MutexLock lk(shard.mu);
  auto it = shard.table.find(key);
  if (it == shard.table.end()) return false;
  auto self = it->second.granted.find(owner);
  if (self == it->second.granted.end()) return false;
  return self->second.mode >= mode;
}

size_t LockManager::NumLockedKeys() const {
  size_t n = 0;
  for (size_t i = 0; i < kNumShards; ++i) {
    MutexLock lk(shards_[i].mu);
    n += shards_[i].table.size();
  }
  return n;
}

std::string LockManager::DumpJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("keys").BeginArray();
  // Shard-at-a-time: the view is consistent per shard, not globally, which
  // is fine for a diagnostic dump.
  for (size_t i = 0; i < kNumShards; ++i) {
    MutexLock lk(shards_[i].mu);
    for (const auto& [key, entry] : shards_[i].table) {
      w.BeginObject();
      w.Key("space").Value(SpaceName(key.space));
      w.Key("id").Value(key.id);
      w.Key("holders").BeginArray();
      for (const auto& [txn, h] : entry.granted) {
        w.BeginObject();
        w.Key("txn").Value(static_cast<uint64_t>(txn));
        w.Key("mode").Value(ModeName(h.mode));
        w.Key("count").Value(static_cast<uint64_t>(h.count));
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
    }
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace oir
