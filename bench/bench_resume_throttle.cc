// Admission-controlled rebuild: the max_foreground_degradation_pct knob
// promises that foreground latency degrades by no more than the configured
// percentage while the rebuild still runs to completion.
//
// Method: one foreground thread runs point lookups continuously against a
// half-utilized index; per-operation latency lands in a histogram. Three
// windows, each on a fresh database:
//   baseline     — no rebuild; also yields the mean foreground latency the
//                  throttle is handed as its explicit baseline;
//   unthrottled  — the rebuild runs with the knob off (the damage case);
//   throttled    — the rebuild runs with the knob at --pct (default 10%).
// The headline figure is foreground p99 inside the throttled window versus
// the baseline window; the rebuild must complete in every case. Results go
// to BENCH_resume_throttle.json (--json overrides the path).

#include <atomic>
#include <cstring>
#include <thread>

#include "bench/bench_common.h"
#include "core/rebuild.h"
#include "util/clock.h"
#include "util/histogram.h"

namespace oir::bench {
namespace {

struct Window {
  uint64_t window_ms = 0;
  uint64_t ops = 0;
  double mean_us = 0;
  double p99_us = 0;
  double max_us = 0;
  // Rebuild windows only.
  bool rebuild_ran = false;
  bool rebuild_completed = false;
  uint64_t rebuild_ms = 0;
  uint64_t rebuild_transactions = 0;
  uint64_t progress_records = 0;
  uint64_t throttle_pauses = 0;
  uint64_t throttle_pause_ms = 0;

  double OpsPerSec() const {
    return window_ms == 0 ? 0.0 : ops * 1000.0 / window_ms;
  }
};

// mode 0: no rebuild (window_ms long); mode 1: rebuild with the given
// degradation knob (window is the rebuild's duration). `baseline_ns`, when
// non-zero, is handed to the throttle as the known-good foreground mean.
Window RunWindow(uint64_t n, int mode, uint32_t degradation_pct,
                 uint64_t baseline_ns, uint64_t window_ms) {
  auto db = OpenDb();
  BuildHalfUtilizedIndex(db.get(), n, 12);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> warm_ops{0};
  Histogram latency;
  std::thread fg([&] {
    Random rnd(42);
    // One long read transaction: Lookup takes no transaction-duration lock,
    // and per-op commits would put the group-commit wait — not the
    // rebuild's interference — at the top of every percentile.
    auto txn = db->BeginTxn();
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t id = 2 * rnd.Uniform(n);
      const uint64_t t0 = NowNanos();
      bool found = false;
      OIR_CHECK(db->index()
                    ->Lookup(txn.get(), BenchKey(id, 12), id, &found)
                    .ok());
      latency.Add((NowNanos() - t0) / 1000);  // microseconds
      warm_ops.fetch_add(1, std::memory_order_relaxed);
    }
    OIR_CHECK(db->Commit(txn.get()).ok());
  });

  // Warm-up: the foreground must be past thread start-up and cache warming
  // before the window opens (also how the throttled rebuild's first sample
  // interval is guaranteed to see real traffic).
  while (warm_ops.load(std::memory_order_relaxed) < 20000) {
    std::this_thread::yield();
  }
  latency.Clear();

  Window w;
  const uint64_t t0 = NowNanos();
  if (mode == 1) {
    RebuildOptions opts;
    opts.max_foreground_degradation_pct = degradation_pct;
    opts.throttle_baseline_ns = baseline_ns;
    RebuildResult res;
    Status rs = db->index()->RebuildOnline(opts, &res);
    w.rebuild_ran = true;
    w.rebuild_completed = rs.ok();
    w.rebuild_ms = (NowNanos() - t0) / 1000000;
    w.rebuild_transactions = res.transactions;
    w.progress_records = res.progress_records;
    w.throttle_pauses = res.throttle_pauses;
    w.throttle_pause_ms = res.throttle_pause_us / 1000;
    OIR_CHECK(rs.ok());
  } else {
    std::this_thread::sleep_for(std::chrono::milliseconds(window_ms));
  }
  w.window_ms = (NowNanos() - t0) / 1000000;
  w.ops = latency.Count();
  w.mean_us = latency.Mean();
  w.p99_us = latency.Percentile(99);
  w.max_us = static_cast<double>(latency.Max());

  stop.store(true, std::memory_order_relaxed);
  fg.join();
  return w;
}

void PrintWindow(const char* name, const Window& w) {
  std::printf("%-12s %6llu ms  %9llu ops  %10.0f ops/s  mean %6.1f us  "
              "p99 %7.1f us  max %9.1f us\n",
              name, (unsigned long long)w.window_ms,
              (unsigned long long)w.ops, w.OpsPerSec(), w.mean_us, w.p99_us,
              w.max_us);
  if (w.rebuild_ran) {
    std::printf("             rebuild %s in %llu ms: %llu txns, %llu "
                "progress records, %llu pauses (%llu ms paused)\n",
                w.rebuild_completed ? "completed" : "FAILED",
                (unsigned long long)w.rebuild_ms,
                (unsigned long long)w.rebuild_transactions,
                (unsigned long long)w.progress_records,
                (unsigned long long)w.throttle_pauses,
                (unsigned long long)w.throttle_pause_ms);
  }
}

void JsonWindow(std::FILE* f, const char* name, const Window& w,
                bool trailing_comma) {
  std::fprintf(f,
               "  \"%s\": {\n"
               "    \"window_ms\": %llu, \"ops\": %llu, "
               "\"ops_per_sec\": %.0f,\n"
               "    \"mean_us\": %.2f, \"p99_us\": %.2f, \"max_us\": %.2f",
               name, (unsigned long long)w.window_ms,
               (unsigned long long)w.ops, w.OpsPerSec(), w.mean_us, w.p99_us,
               w.max_us);
  if (w.rebuild_ran) {
    std::fprintf(f,
                 ",\n    \"rebuild_completed\": %s, \"rebuild_ms\": %llu, "
                 "\"rebuild_transactions\": %llu,\n"
                 "    \"progress_records\": %llu, \"throttle_pauses\": %llu, "
                 "\"throttle_pause_ms\": %llu",
                 w.rebuild_completed ? "true" : "false",
                 (unsigned long long)w.rebuild_ms,
                 (unsigned long long)w.rebuild_transactions,
                 (unsigned long long)w.progress_records,
                 (unsigned long long)w.throttle_pauses,
                 (unsigned long long)w.throttle_pause_ms);
  }
  std::fprintf(f, "\n  }%s\n", trailing_comma ? "," : "");
}

int Main(int argc, char** argv) {
  uint64_t n = 200000;
  uint32_t pct = 10;
  std::string json_path = "BENCH_resume_throttle.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--keys" && i + 1 < argc) n = std::strtoull(argv[++i], nullptr, 10);
    if (arg == "--pct" && i + 1 < argc) pct = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
  }

  std::printf("resume-throttle bench: %llu keys, degradation knob %u%%\n\n",
              (unsigned long long)n, pct);

  // Baseline first: its mean is the throttle's explicit baseline, and the
  // unthrottled rebuild's duration sizes the baseline window comparison.
  Window baseline = RunWindow(n, 0, 0, 0, 1000);
  PrintWindow("baseline", baseline);
  const uint64_t baseline_ns =
      static_cast<uint64_t>(baseline.mean_us * 1000.0);

  Window unthrottled = RunWindow(n, 1, 0, 0, 0);
  PrintWindow("unthrottled", unthrottled);

  Window throttled = RunWindow(n, 1, pct, baseline_ns, 0);
  PrintWindow("throttled", throttled);

  const double degradation_pct =
      baseline.p99_us == 0
          ? 0.0
          : 100.0 * (throttled.p99_us - baseline.p99_us) / baseline.p99_us;
  const bool within_budget = degradation_pct <= static_cast<double>(pct);
  std::printf("\nforeground p99: baseline %.1f us -> throttled %.1f us "
              "(%+.1f%%, budget %u%%) — %s\n",
              baseline.p99_us, throttled.p99_us, degradation_pct, pct,
              within_budget ? "WITHIN BUDGET" : "OVER BUDGET");

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"resume_throttle\", \"keys\": %llu, "
               "\"max_foreground_degradation_pct\": %u,\n"
               "  \"throttle_baseline_ns\": %llu,\n",
               (unsigned long long)n, pct,
               (unsigned long long)baseline_ns);
  JsonWindow(f, "baseline", baseline, true);
  JsonWindow(f, "rebuild_unthrottled", unthrottled, true);
  JsonWindow(f, "rebuild_throttled", throttled, true);
  std::fprintf(f,
               "  \"p99_degradation_pct\": %.2f,\n"
               "  \"within_budget\": %s\n}\n",
               degradation_pct, within_budget ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return within_budget && throttled.rebuild_completed ? 0 : 1;
}

}  // namespace
}  // namespace oir::bench

int main(int argc, char** argv) { return oir::bench::Main(argc, argv); }
