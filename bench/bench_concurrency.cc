// Section 6.2: the online rebuild restricts access only to the affected
// pages, so OLTP continues while it runs — unlike the drop-and-recreate
// baseline, which shuts every point operation out for its duration.
//
// Method: reader and writer threads run an OLTP mix continuously. For each
// scenario we measure throughput strictly INSIDE the rebuild window:
//   baseline  — a same-length window with no rebuild;
//   online    — while the paper's rebuild runs;
//   offline   — while the drop-and-recreate baseline runs.
// Also reported: per-operation p99 latency inside the window (the offline
// case shows rebuild-length stalls) and traversals blocked on SPLIT/SHRINK
// bits.
//
// The I/O-path sweep then re-runs the online scenario while varying one
// knob at a time — WAL group commit, rebuild read-ahead — and records every window in BENCH_io_path.json together
// with the pool and WAL counters captured inside it.

#include <atomic>
#include <cstdio>
#include <thread>

#include "bench/bench_common.h"
#include "core/rebuild.h"
#include "obs/waitstate.h"
#include "util/clock.h"
#include "util/counters.h"
#include "util/histogram.h"

namespace oir::bench {
namespace {

// One knob configuration for a scenario. The WAL is the bench default
// (in-memory, synchronous flush) unless file_wal or group_commit says
// otherwise.
struct Config {
  std::string name;
  bool prefetch = true;     // RebuildOptions::prefetch
  bool file_wal = false;    // back the WAL with a file (real fsyncs; file
                            // logs always group-commit)
  bool group_commit = false;  // in-memory WAL: force the sealer on

  const char* WalLabel() const {
    if (file_wal) return "file-group";
    return group_commit ? "mem-group" : "mem-sync";
  }

  // Whether commits ride the grouped ack protocol in this configuration;
  // mean_group_size is only meaningful (and only reported) when they do.
  bool GroupCommitOn() const { return file_wal || group_commit; }
};

struct WindowResult {
  uint64_t ops_in_window = 0;
  uint64_t window_ms = 0;
  uint64_t blocked = 0;
  double p99_ms = 0;
  double max_ms = 0;
  uint64_t shards = 0;  // effective shard count of the pool
  CounterSnapshot counters;  // delta inside the window

  double OpsPerSec() const {
    return window_ms == 0 ? 0.0 : ops_in_window * 1000.0 / window_ms;
  }
};

constexpr char kFileWalPath[] = "/tmp/oir_bench_concurrency_wal.log";

WindowResult RunScenario(const Config& cfg, uint64_t n, int oltp_threads,
                         int mode, uint64_t baseline_window_ms) {
  DbOptions dopts;
  dopts.buffer_pool_pages = 1 << 15;
  if (cfg.file_wal) dopts.log_path = kFileWalPath;
  auto db = OpenDbOpts(dopts);
  if (cfg.group_commit) db->log_manager()->EnableGroupCommit();
  BuildHalfUtilizedIndex(db.get(), n, 12);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ops{0};
  Histogram latency;

  std::vector<std::thread> threads;
  for (int t = 0; t < oltp_threads; ++t) {
    threads.emplace_back([&, t] {
      Random rnd(t + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        uint64_t t0 = NowNanos();
        auto txn = db->BeginTxn();
        if (rnd.OneIn(2)) {
          uint64_t id = 2 * rnd.Uniform(n);
          bool found;
          OIR_CHECK(db->index()
                        ->Lookup(txn.get(), BenchKey(id, 12), id, &found)
                        .ok());
        } else {
          uint64_t id = 1 + 2 * rnd.Uniform(n);
          Status s = db->index()->Insert(txn.get(), BenchKey(id, 12), id);
          if (s.ok()) {
            OIR_CHECK(
                db->index()->Delete(txn.get(), BenchKey(id, 12), id).ok());
          }
        }
        OIR_CHECK(db->Commit(txn.get()).ok());
        latency.Add((NowNanos() - t0) / 1000);  // microseconds
        ops.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Warm up the OLTP threads.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  latency.Clear();
  // Align the wait profile (--waitprof) with the measured window.
  if (obs::WaitProfiler::enabled()) obs::WaitProfiler::Reset();
  auto counters0 = GlobalCounters::Get().Snapshot();
  uint64_t ops0 = ops.load();
  uint64_t t0 = NowNanos();

  if (mode == 1) {
    RebuildOptions opts;
    opts.prefetch = cfg.prefetch;
    RebuildResult res;
    Status rs = db->index()->RebuildOnline(opts, &res);
    if (!rs.ok()) {
      std::fprintf(stderr, "online rebuild failed: %s\n",
                   rs.ToString().c_str());
    }
    OIR_CHECK(rs.ok());
  } else if (mode == 2) {
    RebuildResult res;
    Status rs = db->index()->RebuildOffline(&res);
    if (!rs.ok()) {
      std::fprintf(stderr, "offline rebuild failed: %s\n",
                   rs.ToString().c_str());
    }
    OIR_CHECK(rs.ok());
  } else {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(baseline_window_ms));
  }

  WindowResult r;
  r.window_ms = (NowNanos() - t0) / 1000000;
  r.ops_in_window = ops.load() - ops0;
  r.counters = GlobalCounters::Get().Snapshot() - counters0;
  r.blocked = r.counters.blocked_traversals;
  r.p99_ms = latency.Percentile(99) / 1000.0;
  r.max_ms = latency.Max() / 1000.0;
  r.shards = db->buffer_manager()->num_shards();
  stop.store(true);
  for (auto& t : threads) t.join();
  if (cfg.file_wal) {
    db.reset();  // close the log fd before unlinking
    std::remove(kFileWalPath);
    std::remove((std::string(kFileWalPath) + ".master").c_str());
  }
  return r;
}

// --waitprof: per-operation wait-state breakdown for the window that just
// ran. Coverage is the attributed share of op wall-clock — the paper-grade
// claim is >= 95% (the state machine closes every segment, so the residue
// is only clock-read granularity).
void PrintWaitProfile(const char* label) {
  auto snap = obs::WaitProfiler::TakeSnapshot();
  if (snap.empty()) return;
  std::printf("\nwait profile (%s):\n", label);
  std::printf("  %-8s %10s %10s %8s %7s %7s %7s %7s %7s %9s\n", "op",
              "count", "mean-us", "run%", "latch%", "lock%", "wal%", "io%",
              "thr%", "coverage%");
  for (const auto& b : snap) {
    auto pct = [&b](obs::WaitState s) {
      return b.wall_ns == 0
                 ? 0.0
                 : 100.0 * b.state_ns[static_cast<size_t>(s)] / b.wall_ns;
    };
    uint64_t attributed = 0;
    for (size_t i = 0; i < obs::kNumWaitStates; ++i) {
      attributed += b.state_ns[i];
    }
    std::printf(
        "  %-8s %10llu %10.1f %8.1f %7.1f %7.1f %7.1f %7.1f %7.1f %9.1f\n",
        obs::OpTypeName(b.type), (unsigned long long)b.count,
        b.count == 0 ? 0.0 : b.wall_ns / 1000.0 / b.count,
        pct(obs::WaitState::kRunning), pct(obs::WaitState::kLatchWait),
        pct(obs::WaitState::kLockWait), pct(obs::WaitState::kWalCommitWait),
        pct(obs::WaitState::kIoWait), pct(obs::WaitState::kThrottled),
        b.wall_ns == 0 ? 0.0 : 100.0 * attributed / b.wall_ns);
  }
}

void PrintRow(const char* name, const WindowResult& r) {
  std::printf("%-14s %10llu %10llu %12.0f %10.2f %10.2f %12llu\n", name,
              (unsigned long long)r.window_ms,
              (unsigned long long)r.ops_in_window, r.OpsPerSec(), r.p99_ms,
              r.max_ms, (unsigned long long)r.blocked);
}

void WriteJsonScenario(std::FILE* f, const char* scenario_mode,
                       const Config& cfg, const WindowResult& r,
                       bool last) {
  const CounterSnapshot& d = r.counters;
  std::fprintf(
      f,
      "    {\"name\": \"%s\", \"mode\": \"%s\", \"shards\": %llu, "
      "\"prefetch\": %s, \"wal\": \"%s\",\n"
      "     \"window_ms\": %llu, \"ops\": %llu, \"ops_per_sec\": %.0f, "
      "\"p99_ms\": %.2f, \"max_ms\": %.2f, \"blocked_traversals\": %llu,\n"
      "     \"pool_hits\": %llu, \"pool_misses\": %llu, "
      "\"pool_evictions\": %llu, \"pool_writebacks\": %llu, "
      "\"pool_prefetched\": %llu,\n"
      "     \"log_flush_calls\": %llu, \"log_fsyncs\": %llu",
      cfg.name.c_str(), scenario_mode, (unsigned long long)r.shards,
      cfg.prefetch ? "true" : "false", cfg.WalLabel(),
      (unsigned long long)r.window_ms, (unsigned long long)r.ops_in_window,
      r.OpsPerSec(), r.p99_ms, r.max_ms, (unsigned long long)r.blocked,
      (unsigned long long)d.pool_hits, (unsigned long long)d.pool_misses,
      (unsigned long long)d.pool_evictions,
      (unsigned long long)d.pool_writebacks,
      (unsigned long long)d.pool_prefetched,
      (unsigned long long)d.log_flush_calls,
      (unsigned long long)d.log_fsyncs);
  // mean_group_size only exists when commits actually rode the grouped
  // ack protocol (null otherwise, never a fabricated flushes/fsyncs guess).
  if (cfg.GroupCommitOn() && d.log_groups_acked > 0) {
    std::fprintf(f,
                 ", \"commits_acked\": %llu, \"groups_acked\": %llu, "
                 "\"mean_group_size\": %.2f",
                 (unsigned long long)d.log_commits_acked,
                 (unsigned long long)d.log_groups_acked, MeanGroupSize(d));
  } else {
    std::fprintf(f, ", \"mean_group_size\": null");
  }
  std::fprintf(f, "}%s\n", last ? "" : ",");
}

int Main(int argc, char** argv) {
  uint64_t n = 400000;
  int kThreads = 4;
  std::string json_path = "BENCH_io_path.json";
  bool sweep = true;
  bool waitprof = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") n = 100000;
    if (arg == "--no-sweep") sweep = false;
    if (arg == "--threads" && i + 1 < argc) kThreads = std::atoi(argv[i + 1]);
    if (arg == "--json" && i + 1 < argc) json_path = argv[i + 1];
    if (arg == "--waitprof") waitprof = true;
  }
  if (waitprof) obs::WaitProfiler::SetEnabled(true);
  std::printf("OLTP throughput inside the rebuild window (Section 6.2)\n");
  std::printf("(%d OLTP threads, %llu keys, ~50%% utilized index)\n\n",
              kThreads, (unsigned long long)n);
  std::printf("%-14s %10s %10s %12s %10s %10s %12s\n", "scenario",
              "window-ms", "ops", "ops/sec", "p99-ms", "max-ms",
              "blocked-trav");

  Config def;
  def.name = "default";

  // Run online first to learn the window length for the baseline.
  WindowResult online = RunScenario(def, n, kThreads, 1, 0);
  if (waitprof) PrintWaitProfile("online-rebuild window");
  WindowResult baseline = RunScenario(
      def, n, kThreads, 0, std::max<uint64_t>(online.window_ms, 50));
  if (waitprof) PrintWaitProfile("baseline window");
  WindowResult offline = RunScenario(def, n, kThreads, 2, 0);
  if (waitprof) PrintWaitProfile("offline-rebuild window");

  PrintRow("baseline", baseline);
  PrintRow("online", online);
  PrintRow("offline", offline);
  std::printf("\ncounters inside the online window:\n");
  PrintIoPathCounters(online.counters);

  double online_frac =
      baseline.ops_in_window == 0
          ? 0
          : online.OpsPerSec() / baseline.OpsPerSec();
  std::printf("\nonline rebuild sustains %.0f%% of baseline throughput; "
              "offline stalls every\noperation for the whole rebuild "
              "(max latency ~= rebuild duration).\n",
              online_frac * 100);

  std::vector<std::pair<Config, WindowResult>> sweep_results;
  if (sweep) {
    // One knob at a time, relative to the default (prefetch on, in-memory
    // WAL with synchronous flush). The file-WAL row pays real fsyncs
    // through the group-commit pipeline.
    std::vector<Config> configs;
    {
      Config c;
      c.name = "prefetch-off";
      c.prefetch = false;
      configs.push_back(c);
    }
    {
      Config c;
      c.name = "groupcommit-mem";
      c.group_commit = true;
      configs.push_back(c);
    }
    {
      Config c;
      c.name = "wal-file-group";
      c.file_wal = true;
      configs.push_back(c);
    }

    std::printf("\nI/O-path sweep (online rebuild window, one knob at a "
                "time):\n");
    std::printf("%-14s %10s %10s %12s %10s %10s %12s\n", "config",
                "window-ms", "ops", "ops/sec", "p99-ms", "max-ms",
                "mean-group");
    for (const Config& cfg : configs) {
      WindowResult r = RunScenario(cfg, n, kThreads, 1, 0);
      char group[32];
      if (cfg.GroupCommitOn() && r.counters.log_groups_acked > 0) {
        std::snprintf(group, sizeof(group), "%.1f",
                      MeanGroupSize(r.counters));
      } else {
        std::snprintf(group, sizeof(group), "-");
      }
      std::printf("%-14s %10llu %10llu %12.0f %10.2f %10.2f %12s\n",
                  cfg.name.c_str(), (unsigned long long)r.window_ms,
                  (unsigned long long)r.ops_in_window, r.OpsPerSec(),
                  r.p99_ms, r.max_ms, group);
      sweep_results.emplace_back(cfg, r);
    }
  }

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"io_path\",\n");
  std::fprintf(f, "  \"oltp_threads\": %d,\n  \"keys\": %llu,\n", kThreads,
               (unsigned long long)n);
  std::fprintf(f, "  \"online_ops_per_sec\": %.0f,\n", online.OpsPerSec());
  std::fprintf(f, "  \"baseline_ops_per_sec\": %.0f,\n",
               baseline.OpsPerSec());
  std::fprintf(f, "  \"scenarios\": [\n");
  Config base_cfg = def;
  base_cfg.name = "baseline";
  WriteJsonScenario(f, "no-rebuild", base_cfg, baseline, false);
  Config online_cfg = def;
  online_cfg.name = "online";
  WriteJsonScenario(f, "online-rebuild", online_cfg, online, false);
  Config offline_cfg = def;
  offline_cfg.name = "offline";
  WriteJsonScenario(f, "offline-rebuild", offline_cfg, offline,
                    sweep_results.empty());
  for (size_t i = 0; i < sweep_results.size(); ++i) {
    WriteJsonScenario(f, "online-rebuild", sweep_results[i].first,
                      sweep_results[i].second,
                      i + 1 == sweep_results.size());
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace oir::bench

int main(int argc, char** argv) { return oir::bench::Main(argc, argv); }
