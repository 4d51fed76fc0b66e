// Durable-WAL pipeline matrix: OLTP throughput and commit-ack latency
// inside the online-rebuild window with a file-backed log, swept over
// {segment size} x {in-flight segments} x {sync discipline}. Results land
// in BENCH_durable_wal.json.
//
// The OLTP mix is read-heavy (default 5% insert+delete write
// transactions, 95% lookups — the YCSB-B ratio; --write-pct overrides);
// the commit latency histogram covers only logged commits — the ones
// that actually wait on the durable path. Each row also reports the
// writer's write+sync device span per segment (LogManager::segment_io_ns,
// over every segment the row's log wrote, load included), so a
// device-bound commit tail is distinguishable from a software one.

#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench/bench_common.h"
#include "core/rebuild.h"
#include "util/clock.h"
#include "util/counters.h"
#include "util/histogram.h"

namespace oir::bench {
namespace {

constexpr char kWalPath[] = "/tmp/oir_bench_durable_wal.log";

struct WalCfg {
  std::string name;
  uint32_t segment_bytes = 256 * 1024;
  uint32_t inflight = 4;
  WalSyncMode sync = WalSyncMode::kFdatasync;
};

struct RowResult {
  uint64_t window_ms = 0;
  uint64_t ops_in_window = 0;
  double commit_p50_ms = 0;  // logged commits only
  double commit_p99_ms = 0;
  double commit_max_ms = 0;
  double segment_io_p50_ms = 0;  // writer write+sync span
  double segment_io_p99_ms = 0;
  std::string backend;
  std::string sync;  // effective, after the O_DIRECT probe
  CounterSnapshot counters;

  double OpsPerSec() const {
    return window_ms == 0 ? 0.0 : ops_in_window * 1000.0 / window_ms;
  }
};

RowResult RunScenario(const WalCfg& cfg, uint64_t n, int oltp_threads,
                      int write_pct) {
  std::remove(kWalPath);
  std::remove((std::string(kWalPath) + ".master").c_str());

  DbOptions dopts;
  dopts.buffer_pool_pages = 1 << 15;
  dopts.log_path = kWalPath;
  dopts.wal_segment_bytes = cfg.segment_bytes;
  dopts.wal_inflight_segments = cfg.inflight;
  dopts.wal_sync_mode = cfg.sync;
  auto db = OpenDbOpts(dopts);
  BuildHalfUtilizedIndex(db.get(), n, 12);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ops{0};
  Histogram commit_latency;  // microseconds, logged commits only

  std::vector<std::thread> threads;
  for (int t = 0; t < oltp_threads; ++t) {
    threads.emplace_back([&, t] {
      Random rnd(t + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        auto txn = db->BeginTxn();
        if (static_cast<int>(rnd.Uniform(100)) >= write_pct) {
          uint64_t id = 2 * rnd.Uniform(n);
          bool found;
          OIR_CHECK(db->index()
                        ->Lookup(txn.get(), BenchKey(id, 12), id, &found)
                        .ok());
          OIR_CHECK(db->Commit(txn.get()).ok());  // read-only: no flush
        } else {
          uint64_t id = 1 + 2 * rnd.Uniform(n);
          Status s = db->index()->Insert(txn.get(), BenchKey(id, 12), id);
          if (s.ok()) {
            OIR_CHECK(
                db->index()->Delete(txn.get(), BenchKey(id, 12), id).ok());
          }
          uint64_t c0 = NowNanos();
          OIR_CHECK(db->Commit(txn.get()).ok());
          commit_latency.Add((NowNanos() - c0) / 1000);
        }
        ops.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  commit_latency.Clear();
  auto counters0 = GlobalCounters::Get().Snapshot();
  uint64_t ops0 = ops.load();
  uint64_t t0 = NowNanos();

  RebuildOptions ropts;
  RebuildResult rres;
  OIR_CHECK(db->index()->RebuildOnline(ropts, &rres).ok());

  RowResult r;
  r.window_ms = (NowNanos() - t0) / 1000000;
  r.ops_in_window = ops.load() - ops0;
  r.counters = GlobalCounters::Get().Snapshot() - counters0;
  r.commit_p50_ms = commit_latency.Percentile(50) / 1000.0;
  r.commit_p99_ms = commit_latency.Percentile(99) / 1000.0;
  r.commit_max_ms = commit_latency.Max() / 1000.0;
  r.backend = db->log_manager()->backend_name();
  r.sync = db->log_manager()->sync_mode_name();
  const Histogram& io = db->log_manager()->segment_io_ns();
  r.segment_io_p50_ms = io.Percentile(50) / 1e6;
  r.segment_io_p99_ms = io.Percentile(99) / 1e6;
  stop.store(true);
  for (auto& t : threads) t.join();

  db.reset();  // close the log fd before unlinking
  std::remove(kWalPath);
  std::remove((std::string(kWalPath) + ".master").c_str());
  return r;
}

void PrintRow(const WalCfg& cfg, const RowResult& r) {
  std::printf("%-22s %-9s %8lluK %8u %10llu %12.0f %10.3f %10.3f %10.1f\n",
              cfg.name.c_str(), r.sync.c_str(),
              (unsigned long long)(cfg.segment_bytes / 1024), cfg.inflight,
              (unsigned long long)r.ops_in_window, r.OpsPerSec(),
              r.commit_p50_ms, r.commit_p99_ms, MeanGroupSize(r.counters));
  std::printf("%-22s   device p50/p99 %.3f/%.3f ms\n", "",
              r.segment_io_p50_ms, r.segment_io_p99_ms);
}

void WriteJsonRow(std::FILE* f, const WalCfg& cfg, const RowResult& r,
                  bool last) {
  const CounterSnapshot& d = r.counters;
  std::fprintf(
      f,
      "    {\"name\": \"%s\", \"backend\": \"%s\", "
      "\"sync\": \"%s\", \"segment_bytes\": %u, \"inflight\": %u,\n"
      "     \"window_ms\": %llu, \"ops\": %llu, \"ops_per_sec\": %.0f, "
      "\"commit_p50_ms\": %.3f, \"commit_p99_ms\": %.3f, "
      "\"commit_max_ms\": %.3f,\n"
      "     \"device_io_p50_ms\": %.3f, \"device_io_p99_ms\": %.3f,\n"
      "     \"commits_acked\": %llu, \"groups_acked\": %llu, "
      "\"mean_group_size\": %.2f, \"log_fsyncs\": %llu, "
      "\"segments_sealed\": %llu}%s\n",
      cfg.name.c_str(), r.backend.c_str(),
      r.sync.c_str(), cfg.segment_bytes, cfg.inflight,
      (unsigned long long)r.window_ms, (unsigned long long)r.ops_in_window,
      r.OpsPerSec(), r.commit_p50_ms, r.commit_p99_ms, r.commit_max_ms,
      r.segment_io_p50_ms, r.segment_io_p99_ms,
      (unsigned long long)d.log_commits_acked,
      (unsigned long long)d.log_groups_acked, MeanGroupSize(d),
      (unsigned long long)d.log_fsyncs,
      (unsigned long long)d.wal_segments_sealed, last ? "" : ",");
}

int Main(int argc, char** argv) {
  uint64_t n = 400000;
  int threads = 10;
  int write_pct = 5;
  bool quick = false;
  std::string json_path = "BENCH_durable_wal.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    if (arg == "--keys" && i + 1 < argc) n = std::atoll(argv[i + 1]);
    if (arg == "--threads" && i + 1 < argc) threads = std::atoi(argv[i + 1]);
    if (arg == "--write-pct" && i + 1 < argc)
      write_pct = std::atoi(argv[i + 1]);
    if (arg == "--json" && i + 1 < argc) json_path = argv[i + 1];
  }

  std::vector<WalCfg> matrix;
  const std::vector<std::pair<const char*, WalSyncMode>> syncs = {
      {"fdatasync", WalSyncMode::kFdatasync},
      {"fsync", WalSyncMode::kFsync},
      {"odirect", WalSyncMode::kODirect}};
  std::vector<uint32_t> segments = {64 * 1024, 256 * 1024, 1024 * 1024};
  std::vector<uint32_t> inflights = {2, 4};
  if (quick) {
    segments = {256 * 1024};
    inflights = {4};
  }
  for (const auto& [sname, smode] : syncs) {
    for (uint32_t seg : segments) {
      for (uint32_t inf : inflights) {
        WalCfg c;
        c.name = std::string("pipe-") + sname + "-" +
                 std::to_string(seg / 1024) + "K-x" + std::to_string(inf);
        c.segment_bytes = seg;
        c.inflight = inf;
        c.sync = smode;
        matrix.push_back(c);
      }
    }
  }

  std::printf("Durable WAL pipeline matrix (OLTP inside the online-rebuild "
              "window, %d threads, %llu keys, %d%% writes, file WAL)\n\n",
              threads, (unsigned long long)n, write_pct);
  std::printf("%-22s %-9s %9s %8s %10s %12s %10s %10s %10s\n", "config",
              "sync", "segment", "inflight", "ops", "ops/sec", "p50-ms",
              "p99-ms", "mean-group");

  std::vector<RowResult> results;
  for (const WalCfg& cfg : matrix) {
    RowResult r = RunScenario(cfg, n, threads, write_pct);
    PrintRow(cfg, r);
    results.push_back(r);
  }

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"durable_wal\",\n");
  std::fprintf(f, "  \"oltp_threads\": %d,\n  \"keys\": %llu,\n", threads,
               (unsigned long long)n);
  std::fprintf(f, "  \"write_pct\": %d,\n", write_pct);
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    WriteJsonRow(f, matrix[i], results[i], i + 1 == results.size());
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace oir::bench

int main(int argc, char** argv) { return oir::bench::Main(argc, argv); }
