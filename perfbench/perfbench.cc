// perfbench: the repository's benchmark program. Runs one named workload
// through the public Db / Index / Cursor API as a sequence of fixed-work
// rounds (a fresh database each), checks every operation and the end state
// against the clients' shadow models, and prints one JSON report as the
// last line of stdout. run.py builds this program and formats its report.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --dir DIR
//             [--scale full|small] [--fault drop-shadow-key]
//   perfbench --workload NAME --seed N --op-hash COUNT [--scale ...]
//
// Rounds repeat until --seconds have passed (at least kMinRounds). Each
// round's work is fixed: a client runs a fixed number of transactions and a
// rebuild phase is a fixed number of rebuilds, so counts, log volume and
// memory do not depend on speed. Timed metrics are medians over rounds or
// percentiles over the pooled samples of all rounds.
//
// With --trace 1 the rounds alternate untraced and traced. Traced rounds
// enable the engine's wait profiler and record spans (1 in
// kTraceSampleEvery transactions, every rebuild) around the benchmark's own
// calls into each layer; the per-layer metrics come from those rounds and
// trace.overhead_pct.<metric> compares them with the untraced ones.
//
// After the measured rounds every run ends with one untimed durable round
// (DurableSpec): a file WAL on the default durable path, then
// CrashAndRecover and the durability check. It feeds only the durable WAL
// ratios and recovery.ms, and its correctness counts like any round's.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/db.h"
#include "core/index.h"
#include "obs/waitstate.h"
#include "spans.h"
#include "util/counters.h"

namespace oir::perfbench {
namespace {

constexpr uint32_t kScanRows = 50;
constexpr uint64_t kTraceSampleEvery = 32;
constexpr size_t kMaxSpansWritten = 100000;  // spans.json stays ~12 MB
constexpr int kMinRounds = 3;
constexpr int kMinTracedRounds = 2;  // per kind (traced / untraced)
constexpr uint32_t kMaxRounds = 1000;  // bounds tiny runs (--scale small)

// ---------------------------------------------------------------- workloads

enum class Shape {
  kForegroundThenRebuild,  // closed-loop clients, then quiescent rebuilds
  kColdRebuildThenReads,   // cold rebuilds, then cold single-client ops
};

struct Spec {
  std::string name;
  Shape shape = Shape::kForegroundThenRebuild;
  uint64_t live_keys = 0;  // loaded at ~50% leaf utilization
  int key_size = 12;       // >= 12: a 12-digit id, padded with 'p'
  size_t pool_pages = 0;
  uint32_t clients = 1;
  uint64_t warmup_txns = 0;  // per client, part of set-up
  uint64_t txns = 0;         // per client, measured
  uint32_t read_pct = 75;
  uint32_t scan_pct = 10;         // the rest are update transactions
  uint32_t abort_per_mille = 0;   // updates rolled back on purpose
  uint32_t rebuilds = 0;          // back-to-back RebuildOnline per round
  // A file WAL on the default durable path instead of the in-memory one,
  // and CrashAndRecover + the durability check at the end of the round.
  bool durable = false;
};

// Full-size workloads. Sizes are constants chosen on the 4-core development
// box (see NOTES.md); they never adapt to speed.
std::vector<Spec> FullSpecs() {
  return {
      // One client: with 2 or 3 busy threads the VM host's steal time (10-35 %
      // of busy CPU on the 4-core development box) made ops_per_s swing by up
      // to 30 % between runs.
      {.name = "oltp_cached",
       .live_keys = 300000,
       .pool_pages = 32768,
       .warmup_txns = 20000,
       .txns = 300000,
       .rebuilds = 12},
      {.name = "rebuild_cold",
       .shape = Shape::kColdRebuildThenReads,
       .live_keys = 200000,
       .key_size = 40,
       .pool_pages = 1300,
       .txns = 60000,
       .rebuilds = 16},
  };
}

// The durable round that ends every run. Its timings are the shared disk's
// and do not repeat (NOTES.md), so nothing in it is timed for an end-to-end
// metric; it is small so that it adds 2-3 s to a run.
Spec DurableSpec() {
  return {.name = "durable",
          .live_keys = 20000,
          .pool_pages = 4096,
          .clients = 3,
          .warmup_txns = 100,
          .txns = 1500,
          .read_pct = 20,
          .scan_pct = 10,
          .abort_per_mille = 20,
          .rebuilds = 2,
          .durable = true};
}

// Same shapes at a size that runs in well under a second (self-tests).
Spec Small(Spec s) {
  s.live_keys = 6000;
  s.pool_pages = s.shape == Shape::kColdRebuildThenReads ? 64 : 1024;
  s.warmup_txns = std::min<uint64_t>(s.warmup_txns, 100);
  s.txns = std::min<uint64_t>(s.txns, 600);
  s.rebuilds = std::min<uint32_t>(s.rebuilds, 3);
  return s;
}

// ---------------------------------------------------------------- keys, rng

using bench::BenchKey;  // key_size >= 12: the 12-digit id, padded with 'p'

bool IdOf(const Slice& key, uint64_t* id) {
  if (key.size() < 12) return false;
  uint64_t v = 0;
  for (size_t i = 0; i < 12; ++i) {
    const char c = key.data()[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *id = v;
  return true;
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(SplitMix(seed)) {}
  uint64_t Next() {
    s_ += 0x9e3779b97f4a7c15ull;
    return SplitMix(s_);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t s_;
};

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Ids come in pairs (2p, 2p+1): the load inserts both and deletes the odd
// one, and an update deletes a pair's live key and inserts the other, so
// every pair always holds exactly one live key, in one leaf, and updates do
// not split pages. Client c owns the pairs with p % clients == c, which
// spreads every client over the whole key range.
struct KeySpace {
  uint64_t universe;  // ids are [0, universe)
  uint32_t clients;
  bool Owns(uint64_t id, uint32_t c) const { return (id / 2) % clients == c; }
  uint64_t RandomOwnedPair(Rng* rng, uint32_t c) const {
    return rng->Below(universe / 2 / clients) * clients + c;
  }
};

// ---------------------------------------------------------------- op stream

enum class OpKind : uint8_t { kRead, kScan, kWrite };

struct Op {
  OpKind kind = OpKind::kRead;
  uint64_t a = 0;  // read / delete key, or scan start
  uint64_t b = 0;  // inserted key
  bool abort = false;
};

// A client's operation sequence: a pure function of (seed, round, client).
// It tracks its own copy of the client's key set, assuming every op takes
// effect, so the sequence never depends on timing.
class OpStream {
 public:
  OpStream(const Spec& spec, const KeySpace& ks, uint64_t seed,
           uint32_t round, uint32_t client)
      : spec_(spec),
        ks_(ks),
        client_(client),
        rng_(Fnv(Fnv(Fnv(0xcbf29ce484222325ull, seed), round), client)),
        live_(ks.universe, 0) {
    for (uint64_t id = 0; id < ks.universe; id += 2) live_[id] = 1;
  }

  Op Next() {
    Op op;
    const uint64_t r = rng_.Below(100);
    if (r < spec_.read_pct) {
      op.kind = OpKind::kRead;
      op.a = RandomLive();
    } else if (r < spec_.read_pct + spec_.scan_pct) {
      op.kind = OpKind::kScan;
      op.a = rng_.Below(ks_.universe);
    } else {
      op.kind = OpKind::kWrite;
      op.a = RandomLive();
      op.b = op.a ^ 1;
      op.abort = rng_.Below(1000) < spec_.abort_per_mille;
      if (!op.abort) {
        live_[op.a] = 0;
        live_[op.b] = 1;
      }
    }
    hash_ = Fnv(Fnv(Fnv(Fnv(hash_, static_cast<uint64_t>(op.kind)), op.a),
                    op.b),
                op.abort);
    return op;
  }

  uint64_t hash() const { return hash_; }

 private:
  uint64_t RandomLive() {
    const uint64_t id = 2 * ks_.RandomOwnedPair(&rng_, client_);
    return live_[id] != 0 ? id : id + 1;
  }

  const Spec& spec_;
  const KeySpace ks_;
  const uint32_t client_;
  Rng rng_;
  std::vector<uint8_t> live_;
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

// ---------------------------------------------------------------- stats

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

struct ProcUsage {
  double cpu_us = 0;
  double invol_csw = 0;
  static ProcUsage Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    ProcUsage u;
    u.cpu_us = ru.ru_utime.tv_sec * 1e6 + ru.ru_utime.tv_usec +
               ru.ru_stime.tv_sec * 1e6 + ru.ru_stime.tv_usec;
    u.invol_csw = static_cast<double>(ru.ru_nivcsw);
    return u;
  }
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

// ---------------------------------------------------------------- clients

// Latency samples (microseconds) of one kind of round.
struct Samples {
  std::vector<double> read_us, scan_us, write_us;
  void Append(const Samples& o) {
    read_us.insert(read_us.end(), o.read_us.begin(), o.read_us.end());
    scan_us.insert(scan_us.end(), o.scan_us.begin(), o.scan_us.end());
    write_us.insert(write_us.end(), o.write_us.begin(), o.write_us.end());
  }
};

struct Failures {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // the first few
  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
  void Append(const Failures& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (const std::string& e : o.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
  }
};

class Client {
 public:
  Client(Db* db, const Spec& spec, const KeySpace& ks, uint64_t seed,
         uint32_t round, uint32_t id, std::vector<uint8_t>* shadow,
         SpanLog* spans)
      : db_(db),
        spec_(spec),
        ks_(ks),
        round_(round),
        id_(id),
        stream_(spec, ks, seed, round, id),
        shadow_(shadow),
        spans_(spans) {}

  Samples samples;
  Failures failures;
  uint64_t ops = 0;     // measured transactions completed
  uint64_t aborts = 0;  // of which update transactions rolled back on purpose
  uint64_t scans = 0;
  uint64_t scan_leaves = 0;

  // Closed loop: `n` transactions back to back.
  void Run(uint64_t n, bool measure) {
    for (uint64_t i = 0; i < n; ++i) RunOne(stream_.Next(), measure);
  }

 private:
  // Spans of the current sampled transaction, or nothing.
  struct Tracer {
    SpanLog* log = nullptr;
    uint64_t trace_id = 0;
    uint32_t root = kNoParent;
    template <typename F>
    auto operator()(SpanName name, F&& f) {
      if (log == nullptr) return f();
      const uint32_t idx = log->Open(name, trace_id, root);
      auto r = f();
      log->Close(idx);
      return r;
    }
  };

  void RunOne(const Op& op, bool measure) {
    const int64_t t0 = NowNs();
    ++failures.attempted;
    Tracer tr;
    if (spans_ != nullptr && measure && seq_ % kTraceSampleEvery == 0) {
      tr.log = spans_;
      tr.trace_id = (uint64_t{round_} << 48) |
                    (static_cast<uint64_t>(id_ + 1) << 40) | seq_;
      const SpanName root = op.kind == OpKind::kRead   ? SpanName::kTxnRead
                            : op.kind == OpKind::kScan ? SpanName::kTxnScan
                                                       : SpanName::kTxnWrite;
      tr.root = spans_->Open(root, tr.trace_id, kNoParent);
    }
    ++seq_;
    std::string err;
    switch (op.kind) {
      case OpKind::kRead:
        err = Read(op, tr);
        break;
      case OpKind::kScan:
        err = Scan(op, tr);
        break;
      case OpKind::kWrite:
        err = Write(op, tr);
        break;
    }
    const double us = (NowNs() - t0) / 1e3;
    if (tr.log != nullptr) tr.log->Close(tr.root);
    if (err.empty() && op.kind == OpKind::kScan) err = VerifyScan(op);
    if (!err.empty()) {
      failures.Fail(err);
      return;
    }
    if (!measure) return;
    ++ops;
    if (op.abort) {
      ++aborts;
      return;
    }
    (op.kind == OpKind::kRead   ? samples.read_us
     : op.kind == OpKind::kScan ? samples.scan_us
                                : samples.write_us)
        .push_back(us);
  }

  std::string Finish(std::unique_ptr<Transaction> txn, const Status& s,
                     bool logged, Tracer& tr) {
    if (!s.ok()) {
      (void)tr(SpanName::kAbort, [&] { return db_->Abort(txn.get()); });
      return s.ToString();
    }
    const Status c =
        tr(logged ? SpanName::kCommit : SpanName::kCommitRead,
           [&] { return db_->Commit(txn.get()); });
    return c.ok() ? std::string() : "commit: " + c.ToString();
  }

  std::string Read(const Op& op, Tracer& tr) {
    auto txn = tr(SpanName::kBeginTxn, [&] { return db_->BeginTxn(); });
    bool found = false;
    const std::string key = BenchKey(op.a, spec_.key_size);
    Status s = tr(SpanName::kLookup, [&] {
      return db_->index()->Lookup(txn.get(), key, op.a, &found);
    });
    if (s.ok() && !found) s = Status::NotFound("live key " + key + " missing");
    return Finish(std::move(txn), s, false, tr);
  }

  std::string Scan(const Op& op, Tracer& tr) {
    auto txn = tr(SpanName::kBeginTxn, [&] { return db_->BeginTxn(); });
    scan_ids_.clear();
    Status s;
    {
      auto cur = db_->index()->NewCursor(txn.get());
      const std::string start = BenchKey(op.a, spec_.key_size);
      s = tr(SpanName::kSeek, [&] { return cur->Seek(start); });
      while (s.ok() && cur->Valid() && scan_ids_.size() < kScanRows) {
        uint64_t id = 0;
        if (!IdOf(cur->user_key(), &id) || cur->rid() != id) {
          s = Status::Corruption("scan returned a malformed row");
          break;
        }
        scan_ids_.push_back(id);
        s = tr(SpanName::kNext, [&] { return cur->Next(); });
      }
      scan_end_ = s.ok() && !cur->Valid();
      ++scans;
      scan_leaves += cur->pages_visited();
    }
    return Finish(std::move(txn), s, false, tr);
  }

  std::string Write(const Op& op, Tracer& tr) {
    auto txn = tr(SpanName::kBeginTxn, [&] { return db_->BeginTxn(); });
    const std::string old_key = BenchKey(op.a, spec_.key_size);
    const std::string new_key = BenchKey(op.b, spec_.key_size);
    Status s = tr(SpanName::kDelete, [&] {
      return db_->index()->Delete(txn.get(), old_key, op.a);
    });
    if (s.ok()) {
      s = tr(SpanName::kInsert, [&] {
        return db_->index()->Insert(txn.get(), new_key, op.b);
      });
    }
    if (s.ok() && op.abort) {
      const Status a =
          tr(SpanName::kAbort, [&] { return db_->Abort(txn.get()); });
      return a.ok() ? std::string() : "abort: " + a.ToString();
    }
    std::string err = Finish(std::move(txn), s, true, tr);
    if (err.empty()) {
      (*shadow_)[op.a] = 0;
      (*shadow_)[op.b] = 1;
    }
    return err;
  }

  // Rows come back strictly ascending, and no live key of this client in
  // the scanned range is skipped or reported when it is not live. Other
  // clients' keys change concurrently and are not judged.
  std::string VerifyScan(const Op& op) const {
    const std::vector<uint8_t>& live = *shadow_;
    uint64_t next = op.a;
    for (uint64_t id : scan_ids_) {
      if (id < next || id >= ks_.universe) {
        return "scan out of order at id " + std::to_string(id);
      }
      for (uint64_t x = next; x < id; ++x) {
        if (ks_.Owns(x, id_) && live[x] != 0) {
          return "scan skipped live key " + std::to_string(x);
        }
      }
      if (ks_.Owns(id, id_) && live[id] == 0) {
        return "scan returned deleted key " + std::to_string(id);
      }
      next = id + 1;
    }
    for (uint64_t x = next; scan_end_ && x < ks_.universe; ++x) {
      if (ks_.Owns(x, id_) && live[x] != 0) {
        return "scan ended before live key " + std::to_string(x);
      }
    }
    return "";
  }

  Db* const db_;
  const Spec& spec_;
  const KeySpace ks_;
  const uint32_t round_;
  const uint32_t id_;
  OpStream stream_;
  std::vector<uint8_t>* const shadow_;  // each client writes only its ids
  SpanLog* const spans_;
  uint64_t seq_ = 0;
  std::vector<uint64_t> scan_ids_;
  bool scan_end_ = false;  // the last scan ran off the end of the index
};

// ---------------------------------------------------------------- rebuilds

struct RebuildTotals {
  uint64_t count = 0;
  uint64_t old_leaves = 0;
  uint64_t new_leaves = 0;
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
  uint64_t log_bytes = 0;
  uint64_t log_records = 0;
  uint64_t level1_visits = 0;
  uint64_t io_ops = 0;
  uint64_t top_actions = 0;
  uint64_t throttle_pauses = 0;
  void Merge(const RebuildTotals& o) {
    count += o.count;
    old_leaves += o.old_leaves;
    new_leaves += o.new_leaves;
    wall_ns += o.wall_ns;
    cpu_ns += o.cpu_ns;
    log_bytes += o.log_bytes;
    log_records += o.log_records;
    level1_visits += o.level1_visits;
    io_ops += o.io_ops;
    top_actions += o.top_actions;
    throttle_pauses += o.throttle_pauses;
  }
  void Add(const RebuildResult& r) {
    ++count;
    old_leaves += r.old_leaf_pages;
    new_leaves += r.new_leaf_pages;
    wall_ns += r.wall_ns;
    cpu_ns += r.cpu_ns;
    log_bytes += r.log_bytes;
    log_records += r.log_records;
    level1_visits += r.level1_visits;
    io_ops += r.io_ops;
    top_actions += r.top_actions;
    throttle_pauses += r.throttle_pauses;
  }
};

// One RebuildOnline with the paper's defaults (ntasize 32, xactsize 256,
// fillfactor 100, io_pages 8, no throttle). Traced runs add a span for the
// call and one per top action / transaction from on_progress timestamps.
Status RunRebuild(Db* db, SpanLog* spans, uint64_t trace_id,
                  RebuildTotals* totals) {
  RebuildOptions o;
  uint32_t root = kNoParent;
  int64_t last_cb = 0, last_txn = 0;
  uint64_t top_actions = 0, txns = 0;
  uint32_t txn_first_span = 0;  // first top-action span of the open txn
  if (spans != nullptr) {
    o.on_progress = [&](const obs::RebuildProgress& p) {
      const int64_t now = NowNs();
      if (p.top_actions > top_actions) {
        spans->Add(SpanName::kTopAction, trace_id, root, last_cb, now);
      }
      if (p.transactions > txns) {
        // The transaction's span becomes the parent of its top actions.
        const uint32_t t =
            spans->Add(SpanName::kRebuildTxn, trace_id, root, last_txn, now);
        for (uint32_t i = txn_first_span; i < t; ++i) spans->SetParent(i, t);
        txn_first_span = t + 1;
        last_txn = now;
      }
      top_actions = p.top_actions;
      txns = p.transactions;
      last_cb = now;
    };
    root = spans->Open(SpanName::kRebuild, trace_id, kNoParent);
    last_cb = last_txn = spans->spans()[root].start_ns;
    txn_first_span = root + 1;
  }
  RebuildResult r;
  const Status s = db->index()->RebuildOnline(o, &r);
  if (spans != nullptr) spans->Close(root);
  if (s.ok()) totals->Add(r);
  return s;
}

// ---------------------------------------------------------------- a round

struct RoundResult {
  bool traced = false;
  double setup_s = 0;
  double fg_wall_s = 0;
  uint64_t fg_ops = 0;
  uint64_t fg_write_commits = 0;  // update transactions in the window
  uint64_t fg_aborts = 0;         // rolled back on purpose (not in the above)
  RebuildTotals rb;
  CounterSnapshot fg;  // counter deltas over the foreground window
  CounterSnapshot rbc;  // counter deltas over the rebuild phase
  ProcUsage fg_proc;    // process CPU / context switches, same window
  TreeStats tree;       // at the end of the round
  uint64_t pages_allocated = 0;
  uint64_t live_keys = 0;
  uint64_t scans = 0, scan_leaves = 0;
  uint64_t watchdog_fires = 0;
  std::vector<obs::WaitProfiler::OpBreakdown> waits;  // traced rounds
  double recovery_ms = 0;
  uint64_t recovery_redone = 0;
  Samples samples;
  Failures failures;
  bool state_ok = true;
  std::string state_error;
  std::string engine_config;  // JSON object, from Db::GetStats
};

CounterSnapshot Plus(const CounterSnapshot& a, const CounterSnapshot& b) {
  CounterSnapshot r;
#define PERFBENCH_ADD(name) r.name = a.name + b.name;
  OIR_COUNTER_FIELDS(PERFBENCH_ADD)
#undef PERFBENCH_ADD
  return r;
}

ProcUsage operator-(const ProcUsage& a, const ProcUsage& b) {
  return ProcUsage{a.cpu_us - b.cpu_us, a.invol_csw - b.invol_csw};
}

// Validates the tree and compares its full key set with the shadow.
std::string CheckState(Db* db, const std::vector<uint8_t>& live,
                       TreeStats* stats) {
  Status s = db->tree()->Validate(stats);
  if (!s.ok()) return "Validate: " + s.ToString();
  auto txn = db->BeginTxn();
  uint64_t seen = 0;
  uint64_t next = 0;  // every live id below it has been seen
  std::string err;
  auto missing_below = [&](uint64_t end) {
    for (; next < end; ++next) {
      if (live[next] != 0) {
        err = "final scan: key " + std::to_string(next) + " missing";
        return true;
      }
    }
    return false;
  };
  {
    auto cur = db->index()->NewCursor(txn.get());
    s = cur->SeekToFirst();
    for (; s.ok() && cur->Valid(); s = cur->Next()) {
      uint64_t id = 0;
      if (!IdOf(cur->user_key(), &id) || id >= live.size() ||
          cur->rid() != id) {
        err = "final scan: malformed row";
        break;
      }
      if (id < next) {
        err = "final scan: keys out of order at " + std::to_string(id);
        break;
      }
      if (missing_below(id)) break;
      if (live[id] == 0) {
        err = "final scan: key " + std::to_string(id) + " not in shadow";
        break;
      }
      next = id + 1;
      ++seen;
    }
  }
  if (err.empty() && !s.ok()) err = "final scan: " + s.ToString();
  (void)db->Commit(txn.get());  // read-only: nothing to make durable
  if (err.empty()) missing_below(live.size());
  if (err.empty() && stats->num_keys != seen) {
    err = "Validate counted " + std::to_string(stats->num_keys) +
          " keys, the scan " + std::to_string(seen);
  }
  return err;
}

struct RunConfig {
  Spec spec;
  uint64_t seed = 0;
  std::string dir;  // scratch directory for the WAL file and spans
  bool drop_shadow_key = false;
};

std::string EngineConfigJson(Db* db) {
  StatsReport st;
  if (!db->GetStats(&st).ok()) return "{}";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"wal_backend\":\"%s\",\"wal_sync_mode\":\"%s\","
                "\"wal_pipeline\":%s,\"wal_group_commit\":%s,"
                "\"pool_frames\":%" PRIu64 ",\"pool_shards\":%" PRIu64
                ",\"page_size\":%u}",
                st.wal_backend.c_str(), st.wal_sync_mode.c_str(),
                st.wal_pipeline ? "true" : "false",
                st.wal_group_commit ? "true" : "false", st.pool_frames,
                st.pool_shards, db->options().page_size);
  return buf;
}

RoundResult RunRound(const RunConfig& cfg, uint32_t round, bool traced,
                     std::vector<std::unique_ptr<SpanLog>>* span_logs) {
  const Spec& spec = cfg.spec;
  RoundResult rr;
  rr.traced = traced;
  const KeySpace ks{spec.live_keys * 2, spec.clients};
  auto fail_state = [&rr](const std::string& e) {
    if (rr.state_ok) rr.state_error = e;
    rr.state_ok = false;
  };

  const int64_t t_setup = NowNs();
  DbOptions opts;
  opts.buffer_pool_pages = spec.pool_pages;
  if (spec.durable) opts.log_path = cfg.dir + "/wal.log";
  std::unique_ptr<Db> db;
  Status s = Db::Open(opts, &db);
  if (!s.ok()) {
    fail_state("Db::Open: " + s.ToString());
    return rr;
  }
  rr.engine_config = EngineConfigJson(db.get());
  // Table 1's load: ids 0 .. universe-1 in order, then every odd id deleted,
  // which leaves leaves about half full. A failed operation aborts the
  // process, so the run ends without a report.
  bench::BuildHalfUtilizedIndex(db.get(), spec.live_keys, spec.key_size);
  std::vector<uint8_t> shadow(ks.universe, 0);
  for (uint64_t id = 0; id < ks.universe; id += 2) shadow[id] = 1;
  TreeStats ts;
  s = db->tree()->Validate(&ts);
  if (!s.ok() || ts.num_keys != spec.live_keys) {
    fail_state("Validate after load: " + s.ToString() + ", " +
               std::to_string(ts.num_keys) + " keys");
    return rr;
  }
  s = db->CheckpointAndTruncate();
  if (!s.ok()) {
    fail_state("checkpoint: " + s.ToString());
    return rr;
  }

  obs::WaitProfiler::Reset();
  obs::WaitProfiler::SetEnabled(traced);
  auto new_log = [&](uint32_t tid) -> SpanLog* {
    if (!traced) return nullptr;
    span_logs->push_back(std::make_unique<SpanLog>(tid));
    return span_logs->back().get();
  };
  std::vector<std::unique_ptr<Client>> clients;
  for (uint32_t c = 0; c < spec.clients; ++c) {
    clients.push_back(std::make_unique<Client>(
        db.get(), spec, ks, cfg.seed, round, c, &shadow,
        new_log(round * 16 + c)));
  }
  SpanLog* rebuild_spans = new_log(round * 16 + 15);
  auto parallel = [&](const std::function<void(Client&)>& fn) {
    std::vector<std::thread> threads;
    for (auto& c : clients) threads.emplace_back([&fn, &c] { fn(*c); });
    for (auto& t : threads) t.join();
  };
  // Warm-up: caches, allocators and the lock table, before any clock.
  if (spec.warmup_txns > 0) {
    parallel([&](Client& c) { c.Run(spec.warmup_txns, false); });
  }
  rr.setup_s = (NowNs() - t_setup) / 1e9;
  auto& gc = GlobalCounters::Get();
  const uint64_t watchdog0 = gc.Snapshot().lock_watchdog_fires;

  Failures rebuild_failures;
  auto rebuild_once = [&](uint32_t i) {
    ++rebuild_failures.attempted;
    const uint64_t trace_id = (uint64_t{round} << 32) | (i + 1);
    Status rs = RunRebuild(db.get(), rebuild_spans, trace_id, &rr.rb);
    if (!rs.ok()) rebuild_failures.Fail("RebuildOnline: " + rs.ToString());
  };
  auto validate = [&](const char* when) {
    TreeStats vs;
    Status vst = db->tree()->Validate(&vs);
    if (!vst.ok()) fail_state(std::string(when) + ": " + vst.ToString());
  };
  auto foreground = [&](const std::function<void()>& body) {
    const CounterSnapshot c0 = gc.Snapshot();
    const ProcUsage p0 = ProcUsage::Now();
    const int64_t t0 = NowNs();
    body();
    rr.fg_wall_s = (NowNs() - t0) / 1e9;
    rr.fg_proc = ProcUsage::Now() - p0;
    rr.fg = gc.Snapshot() - c0;
  };
  auto quiescent_rebuilds = [&](bool cold) {
    CounterSnapshot total;
    for (uint32_t i = 0; i < spec.rebuilds; ++i) {
      if (cold) bench::ColdCache(db.get());
      const CounterSnapshot c0 = gc.Snapshot();
      rebuild_once(i);
      total = Plus(total, gc.Snapshot() - c0);
      validate("Validate after rebuild");
    }
    rr.rbc = total;
  };

  switch (spec.shape) {
    case Shape::kForegroundThenRebuild:
      foreground([&] {
        parallel([&](Client& c) { c.Run(spec.txns, true); });
      });
      quiescent_rebuilds(false);
      break;
    case Shape::kColdRebuildThenReads:
      quiescent_rebuilds(true);
      bench::ColdCache(db.get());
      foreground([&] {
        parallel([&](Client& c) { c.Run(spec.txns, true); });
      });
      break;
  }
  if (traced) rr.waits = obs::WaitProfiler::TakeSnapshot();
  obs::WaitProfiler::SetEnabled(false);
  rr.watchdog_fires = gc.Snapshot().lock_watchdog_fires - watchdog0;

  for (auto& c : clients) {
    rr.fg_ops += c->ops;
    rr.fg_aborts += c->aborts;
    rr.samples.Append(c->samples);
    rr.failures.Append(c->failures);
    rr.scans += c->scans;
    rr.scan_leaves += c->scan_leaves;
  }
  rr.fg_write_commits = rr.samples.write_us.size();
  rr.failures.Append(rebuild_failures);

  if (spec.durable) {
    // Durability: a crash keeps only what the log made durable. Every
    // acknowledged commit must survive and every rolled-back update must
    // stay absent; the exact key-set comparison below checks both.
    RecoveryStats rs;
    const int64_t t0 = NowNs();
    s = db->CrashAndRecover(&rs);
    rr.recovery_ms = (NowNs() - t0) / 1e6;
    rr.recovery_redone = rs.records_redone;
    if (!s.ok()) fail_state("CrashAndRecover: " + s.ToString());
  }
  if (cfg.drop_shadow_key) {
    for (uint64_t id = 0; id < shadow.size(); ++id) {
      if (shadow[id] != 0) {
        shadow[id] = 0;
        break;
      }
    }
  }
  if (rr.state_ok) {
    if (std::string e = CheckState(db.get(), shadow, &rr.tree); !e.empty()) {
      fail_state(std::string(spec.durable ? "after recovery: " : "") + e);
    }
  }
  StatsReport st;
  if (db->GetStats(&st).ok()) rr.pages_allocated = st.pages_allocated;
  for (uint8_t b : shadow) rr.live_keys += b;
  return rr;
}


// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples;  // observations the value summarizes
};

using Rounds = std::vector<const RoundResult*>;

std::vector<Metric> EndToEnd(const Rounds& rs, double peak_rss_mb,
                             const Failures& f) {
  Samples pool;
  std::vector<double> setup, ops, lps, cpu, logb, stored;
  for (const RoundResult* r : rs) {
    pool.Append(r->samples);
    setup.push_back(r->setup_s);
    ops.push_back(Ratio(r->fg_ops, r->fg_wall_s));
    lps.push_back(Ratio(r->rb.old_leaves, r->rb.wall_ns / 1e9));
    cpu.push_back(Ratio(r->rb.cpu_ns / 1e3, r->rb.old_leaves));
    logb.push_back(Ratio(r->rb.log_bytes, r->rb.old_leaves));
    stored.push_back(Ratio(
        static_cast<double>(r->pages_allocated) * kDefaultPageSize,
        r->live_keys));
  }
  const uint64_t n = rs.size();
  RebuildTotals rt;
  for (const RoundResult* r : rs) rt.Merge(r->rb);
  const uint64_t rebuilds = rt.count;
  return {
      {"setup_s", Median(setup), "s", n},
      {"ops_per_s", Median(ops), "1/s", n},
      {"read_us_p50", Percentile(pool.read_us, 0.5), "us",
       pool.read_us.size()},
      {"read_us_p99", Percentile(pool.read_us, 0.99), "us",
       pool.read_us.size()},
      {"scan_us_p50", Percentile(pool.scan_us, 0.5), "us",
       pool.scan_us.size()},
      {"write_us_p50", Percentile(pool.write_us, 0.5), "us",
       pool.write_us.size()},
      {"write_us_p99", Percentile(pool.write_us, 0.99), "us",
       pool.write_us.size()},
      {"rebuild_leaves_per_s", Median(lps), "1/s", rebuilds},
      {"rebuild_cpu_us_per_leaf", Median(cpu), "us", rebuilds},
      {"rebuild_log_bytes_per_leaf", Median(logb), "B", rebuilds},
      {"stored_bytes_per_key", Median(stored), "B", n},
      {"peak_rss_mb", peak_rss_mb, "MB", 1},
      {"ok_ops_frac", Ratio(f.attempted - f.failed, f.attempted), "ratio",
       f.attempted},
  };
}

// `durable` is the run's durable round: the only one whose WAL is a file, so
// the group-commit, fsync and segment ratios and recovery.ms come from it.
std::vector<Metric> PerLayer(const Rounds& traced, const Rounds& untraced,
                             const RoundResult& durable,
                             const std::vector<std::unique_ptr<SpanLog>>& logs,
                             double peak_rss_mb, const Failures& f) {
  std::vector<double> span_us[static_cast<size_t>(SpanName::kCount)];
  for (const auto& log : logs) {
    for (const Span& s : log->spans()) {
      span_us[static_cast<size_t>(s.name)].push_back(
          (s.end_ns - s.start_ns) / 1e3);
    }
  }
  auto span = [&](SpanName n) -> const std::vector<double>& {
    return span_us[static_cast<size_t>(n)];
  };

  CounterSnapshot fg, rb;
  RebuildTotals rt;
  double ops = 0, cpu_us = 0, csw = 0, scans = 0, scan_leaves = 0;
  uint64_t watchdog = 0;
  std::vector<double> util, seq_runs, alloc_per_leaf;
  double height = 0;
  uint64_t wait_ns[obs::kNumOpTypes][obs::kNumWaitStates] = {};
  uint64_t wait_wall[obs::kNumOpTypes] = {};
  for (const RoundResult* r : traced) {
    fg = Plus(fg, r->fg);
    rb = Plus(rb, r->rbc);
    rt.Merge(r->rb);
    ops += r->fg_ops;
    cpu_us += r->fg_proc.cpu_us;
    csw += r->fg_proc.invol_csw;
    scans += r->scans;
    scan_leaves += r->scan_leaves;
    watchdog += r->watchdog_fires;
    util.push_back(100.0 * r->tree.LeafUtilization());
    seq_runs.push_back(
        1000.0 * Ratio(r->tree.leaf_seq_runs, r->tree.num_leaf_pages));
    alloc_per_leaf.push_back(
        Ratio(r->pages_allocated, r->tree.num_leaf_pages));
    height = r->tree.height;
    for (const auto& b : r->waits) {
      const size_t t = static_cast<size_t>(b.type);
      wait_wall[t] += b.wall_ns;
      for (size_t i = 0; i < obs::kNumWaitStates; ++i) {
        wait_ns[t][i] += b.state_ns[i];
      }
    }
  }
  const double leaves = static_cast<double>(rt.old_leaves);
  const double kops = ops / 1000.0;
  const double fetches = static_cast<double>(fg.pool_hits + fg.pool_misses);
  const uint64_t n = traced.size();
  const uint64_t nrb = rt.count;
  const CounterSnapshot& dur = durable.fg;
  const uint64_t ndur = durable.fg_write_commits;
  std::vector<Metric> m = {
      {"index.lookup_us_p50", Percentile(span(SpanName::kLookup), 0.5), "us",
       span(SpanName::kLookup).size()},
      {"txn.begin_ns_p50", 1e3 * Percentile(span(SpanName::kBeginTxn), 0.5),
       "ns", span(SpanName::kBeginTxn).size()},
      {"index.insert_us_p50", Percentile(span(SpanName::kInsert), 0.5), "us",
       span(SpanName::kInsert).size()},
      {"index.delete_us_p50", Percentile(span(SpanName::kDelete), 0.5), "us",
       span(SpanName::kDelete).size()},
      {"cursor.seek_us_p50", Percentile(span(SpanName::kSeek), 0.5), "us",
       span(SpanName::kSeek).size()},
      {"cursor.next_ns_p50", 1e3 * Percentile(span(SpanName::kNext), 0.5),
       "ns", span(SpanName::kNext).size()},
      {"txn.commit_us_p50", Percentile(span(SpanName::kCommit), 0.5), "us",
       span(SpanName::kCommit).size()},
      {"txn.commit_us_p99", Percentile(span(SpanName::kCommit), 0.99), "us",
       span(SpanName::kCommit).size()},
      {"wal.commits_per_group",
       Ratio(dur.log_commits_acked, dur.log_groups_acked), "1/group", ndur},
      {"wal.fsyncs_per_commit", Ratio(dur.log_fsyncs, ndur), "1/commit",
       ndur},
      {"wal.segments_sealed_per_kop",
       Ratio(dur.wal_segments_sealed, durable.fg_ops / 1000.0), "1/kop",
       durable.fg_ops},
      {"wal.bytes_per_op", Ratio(fg.log_bytes, ops), "B/op", n},
      {"wal.records_per_op", Ratio(fg.log_records, ops), "1/op", n},
      {"latch.acquires_per_op", Ratio(fg.latch_acquires, ops), "1/op", n},
      {"latch.waits_per_kop", Ratio(fg.latch_waits, kops), "1/kop", n},
      {"lock.requests_per_op", Ratio(fg.lock_requests, ops), "1/op", n},
      {"lock.waits_per_kop", Ratio(fg.lock_waits, kops), "1/kop", n},
      {"btree.restarts_per_kop", Ratio(fg.traversal_restarts, kops), "1/kop",
       n},
      {"btree.blocked_per_kop", Ratio(fg.blocked_traversals, kops), "1/kop",
       n},
      {"pool.fetches_per_op", Ratio(fetches, ops), "1/op", n},
      {"pool.hit_pct", 100.0 * Ratio(fg.pool_hits, fetches), "%", n},
      {"pool.misses_per_leaf", Ratio(rb.pool_misses, leaves), "1/leaf", nrb},
      {"pool.evictions_per_leaf", Ratio(rb.pool_evictions, leaves), "1/leaf",
       nrb},
      {"pool.writebacks_per_leaf", Ratio(rb.pool_writebacks, leaves),
       "1/leaf", nrb},
      {"pool.prefetched_per_leaf", Ratio(rb.pool_prefetched, leaves),
       "1/leaf", nrb},
      {"disk.read_ops_per_leaf", Ratio(rb.io_read_ops, leaves), "1/leaf",
       nrb},
      {"disk.write_ops_per_leaf", Ratio(rb.io_write_ops, leaves), "1/leaf",
       nrb},
      {"disk.pages_per_write_op", Ratio(rb.pages_written, rb.io_write_ops),
       "pages/op", nrb},
      {"rebuild.top_action_us_p50", Percentile(span(SpanName::kTopAction), 0.5),
       "us", span(SpanName::kTopAction).size()},
      {"rebuild.txn_ms_p50",
       Percentile(span(SpanName::kRebuildTxn), 0.5) / 1e3, "ms",
       span(SpanName::kRebuildTxn).size()},
      {"lock.cond_failures_per_top_action",
       Ratio(rb.cond_lock_failures, rt.top_actions), "1/top_action", nrb},
      {"btree.level1_visits_per_leaf", Ratio(rt.level1_visits, leaves),
       "1/leaf", nrb},
      {"rebuild.io_ops_per_leaf", Ratio(rt.io_ops, leaves), "1/leaf", nrb},
      {"rebuild.log_records_per_leaf", Ratio(rt.log_records, leaves),
       "1/leaf", nrb},
      {"btree.height", height, "levels", n},
      {"btree.leaf_util_pct", Median(util), "%", n},
      {"btree.seq_runs_per_kleaf", Median(seq_runs), "1/kleaf", n},
      {"btree.leaves_per_scan", Ratio(scan_leaves, scans), "leaves/scan",
       static_cast<uint64_t>(scans)},
      {"rebuild.new_per_old_leaf", Ratio(rt.new_leaves, leaves), "ratio",
       nrb},
      {"space.pages_allocated_per_leaf", Median(alloc_per_leaf), "pages/leaf",
       n},
  };
  const obs::OpType wait_ops[] = {obs::OpType::kRead, obs::OpType::kWrite,
                                  obs::OpType::kCommit, obs::OpType::kRebuild};
  for (obs::OpType t : wait_ops) {
    const size_t ti = static_cast<size_t>(t);
    for (size_t i = 0; i < obs::kNumWaitStates; ++i) {
      m.push_back({std::string("wait.") + obs::OpTypeName(t) + "." +
                       obs::WaitStateName(static_cast<obs::WaitState>(i)) +
                       "_pct",
                   100.0 * Ratio(wait_ns[ti][i], wait_wall[ti]), "%", n});
    }
  }
  m.push_back({"recovery.ms", durable.recovery_ms, "ms", 1});
  m.push_back({"lock.watchdog_fires", static_cast<double>(watchdog), "count",
               n});
  m.push_back({"rebuild.throttle_pauses",
               static_cast<double>(rt.throttle_pauses), "count", nrb});
  m.push_back({"proc.cpu_us_per_op", Ratio(cpu_us, ops), "us", n});
  m.push_back({"proc.invol_csw_per_kop", Ratio(csw, kops), "1/kop", n});
  // How far tracing moved each end-to-end metric. Peak RSS is the
  // process's and a failure withholds every metric, so those two are left
  // out: they would read 0 whatever tracing did.
  const std::vector<Metric> on = EndToEnd(traced, peak_rss_mb, f);
  const std::vector<Metric> off = EndToEnd(untraced, peak_rss_mb, f);
  for (size_t i = 0; i < on.size(); ++i) {
    if (on[i].name == "peak_rss_mb" || on[i].name == "ok_ops_frac") continue;
    m.push_back({"trace.overhead_pct." + on[i].name,
                 100.0 * Ratio(on[i].value - off[i].value, off[i].value), "%",
                 on[i].samples + off[i].samples});
  }
  return m;
}

// ---------------------------------------------------------------- report

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// Self time (span minus children) per span name, median in microseconds.
std::string SelfTimesJson(const std::vector<std::unique_ptr<SpanLog>>& logs) {
  std::vector<double> self[static_cast<size_t>(SpanName::kCount)];
  for (const auto& log : logs) {
    const std::vector<int64_t> st = log->SelfTimes();
    for (size_t i = 0; i < st.size(); ++i) {
      self[static_cast<size_t>(log->spans()[i].name)].push_back(st[i] / 1e3);
    }
  }
  std::string out = "{";
  for (size_t n = 0; n < static_cast<size_t>(SpanName::kCount); ++n) {
    if (self[n].empty()) continue;
    if (out.size() > 1) out += ",";
    out += JsonStr(SpanNameStr(static_cast<SpanName>(n))) + ":" +
           JsonNum(Median(self[n]));
  }
  return out + "}";
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir = ".";
  bool small = false;
  bool drop_shadow_key = false;
  uint64_t op_hash = 0;  // > 0: print the op-sequence hash and exit
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--dir") {
      a->dir = v;
    } else if (k == "--scale") {
      if (v != "full" && v != "small") return false;
      a->small = v == "small";
    } else if (k == "--fault") {
      if (v != "drop-shadow-key") return false;
      a->drop_shadow_key = true;
    } else if (k == "--op-hash") {
      a->op_hash = std::strtoull(v.c_str(), nullptr, 10);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --dir DIR [--scale full|small] "
                 "[--fault drop-shadow-key] [--op-hash COUNT]\n");
    return 2;
  }
  RunConfig cfg;
  bool found = false;
  for (const Spec& s : FullSpecs()) {
    if (s.name == args.workload) {
      cfg.spec = args.small ? Small(s) : s;
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  cfg.seed = args.seed;
  cfg.dir = args.dir;
  cfg.drop_shadow_key = args.drop_shadow_key;

  if (args.op_hash > 0) {
    // Hash of the first COUNT ops of every client in the first rounds.
    const KeySpace ks{cfg.spec.live_keys * 2, cfg.spec.clients};
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint32_t round = 0; round < 2; ++round) {
      for (uint32_t c = 0; c < cfg.spec.clients; ++c) {
        OpStream st(cfg.spec, ks, cfg.seed, round, c);
        for (uint64_t i = 0; i < args.op_hash; ++i) st.Next();
        h = Fnv(h, st.hash());
      }
    }
    std::printf("{\"op_hash\":\"%016" PRIx64 "\"}\n", h);
    return 0;
  }

  std::vector<std::unique_ptr<SpanLog>> span_logs;
  std::vector<RoundResult> rounds;
  const int min_rounds = args.trace ? 2 * kMinTracedRounds : kMinRounds;
  const int64_t t0 = NowNs();
  for (uint32_t r = 0; r < kMaxRounds; ++r) {
    const bool traced = args.trace && r % 2 == 1;
    rounds.push_back(RunRound(cfg, r, traced, &span_logs));
    const RoundResult& last = rounds.back();
    std::fprintf(stderr,
                 "round %u%s: setup %.3f s, fg %" PRIu64 " ops in %.3f s "
                 "(%.0f/s), %" PRIu64
                 " rebuilds (%" PRIu64 " leaves) in %.3f s\n",
                 r, traced ? " (traced)" : "", last.setup_s, last.fg_ops,
                 last.fg_wall_s, Ratio(last.fg_ops, last.fg_wall_s),
                 last.rb.count, last.rb.old_leaves,
                 last.rb.wall_ns / 1e9);
    if (!last.state_ok || last.failures.failed > 0) break;
    const double elapsed = (NowNs() - t0) / 1e9;
    if (static_cast<int>(rounds.size()) >= min_rounds &&
        elapsed + elapsed / rounds.size() > args.seconds) {
      break;
    }
  }
  // Read before the durable round, which is no part of the workload.
  const double rss = PeakRssMb();

  // It runs only after measured rounds that passed, like a further round.
  RoundResult durable;
  const bool durable_ran =
      rounds.back().state_ok && rounds.back().failures.failed == 0;
  if (durable_ran) {
    RunConfig dcfg = cfg;
    dcfg.spec = args.small ? Small(DurableSpec()) : DurableSpec();
    durable = RunRound(dcfg, static_cast<uint32_t>(rounds.size()), false,
                       &span_logs);
    std::fprintf(stderr,
                 "durable round: %" PRIu64 " ops in %.3f s, recovery %.1f ms\n",
                 durable.fg_ops, durable.fg_wall_s, durable.recovery_ms);
  }

  Failures failures;
  bool state_ok = true;
  std::string state_error;
  Rounds traced, untraced;
  for (const RoundResult& r : rounds) {
    failures.Append(r.failures);
    if (!r.state_ok && state_ok) {
      state_ok = false;
      state_error = r.state_error;
    }
    (r.traced ? traced : untraced).push_back(&r);
  }
  failures.Append(durable.failures);
  if (!durable.state_ok && state_ok) {
    state_ok = false;
    state_error = "durable round: " + durable.state_error;
  }
  const bool correct = state_ok && failures.failed == 0;

  std::string spans_file;
  int64_t spans_written = 0;
  uint64_t spans_recorded = 0;
  if (args.trace && !span_logs.empty()) {
    spans_file = cfg.dir + "/spans.json";
    std::vector<const SpanLog*> logs;
    for (const auto& l : span_logs) {
      logs.push_back(l.get());
      spans_recorded += l->spans().size();
    }
    spans_written = WriteChromeTrace(spans_file, logs, t0, kMaxSpansWritten);
    if (spans_written < 0) spans_file.clear();
  }

  std::string out = "{\"workload\":" + JsonStr(cfg.spec.name) +
                    ",\"seed\":" + std::to_string(cfg.seed) +
                    ",\"trace\":" + (args.trace ? "1" : "0") +
                    ",\"scale\":" + JsonStr(args.small ? "small" : "full") +
                    ",\"rounds\":" + std::to_string(rounds.size()) +
                    ",\"traced_rounds\":" + std::to_string(traced.size()) +
                    ",\"trace_sample_every\":" +
                    std::to_string(kTraceSampleEvery) +
                    ",\"correct\":" + (correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(failures.attempted) +
                    ",\"failed\":" + std::to_string(failures.failed) +
                    ",\"state_error\":" + JsonStr(state_error) +
                    ",\"errors\":[";
  for (size_t i = 0; i < failures.errors.size(); ++i) {
    out += (i ? "," : "") + JsonStr(failures.errors[i]);
  }
  auto config = [](const std::string& c) {
    return c.empty() ? std::string("{}") : c;
  };
  out += "],\"engine\":" + config(rounds[0].engine_config);
  if (durable_ran) {
    out += ",\"durability\":{\"engine\":" + config(durable.engine_config) +
           ",\"acked_update_commits\":" +
           std::to_string(durable.fg_write_commits) +
           ",\"rolled_back_updates\":" + std::to_string(durable.fg_aborts) +
           ",\"records_redone\":" + std::to_string(durable.recovery_redone) +
           ",\"passed\":" + (durable.state_ok ? "true" : "false") + "}";
  }
  if (args.trace) {
    out += ",\"spans_file\":" + JsonStr(spans_file) +
           ",\"spans_recorded\":" + std::to_string(spans_recorded) +
           ",\"spans_written\":" + std::to_string(spans_written) +
           ",\"span_self_us_p50\":" + SelfTimesJson(span_logs);
  }
  out += ",\"metrics\":{";
  if (correct) {
    const std::vector<Metric> ms =
        args.trace
            ? PerLayer(traced, untraced, durable, span_logs, rss, failures)
                   : EndToEnd(untraced, rss, failures);
    for (size_t i = 0; i < ms.size(); ++i) {
      out += (i ? "," : "") + JsonStr(ms[i].name) + ":{\"value\":" +
             JsonNum(ms[i].value) + ",\"unit\":" + JsonStr(ms[i].unit) +
             ",\"samples\":" + std::to_string(ms[i].samples) + "}";
    }
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace oir::perfbench

int main(int argc, char** argv) { return oir::perfbench::Main(argc, argv); }
