// Reproduction of Table 1 (Section 6.4): log space and CPU time of the
// online rebuild as a function of ntasize, for a small-key and a wide-key
// index.
//
//   Lratio = log space at ntasize 1 / log space at the given ntasize
//   Cratio = CPU time  at ntasize 1 / CPU time  at the given ntasize
//
// Paper (2 KB pages, ~50% utilized index, fillfactor 100, cold cache):
//   key 4 B  (avg non-leaf row 10 B): ntasize 32 -> L 7.3, C 2.4
//                                     ntasize 64 -> L 8.0, C 2.4
//   key 40 B (avg non-leaf row 20 B): ntasize 32 -> L 4.9, C 3.7
//                                     ntasize 64 -> L 5.4, C 4.0
//
// The absolute numbers depend on the host and the exact per-record log
// overhead; the shape to check is (a) large Lratios that are bigger for
// small keys, (b) Cratios well above 1 that flatten out past ~32.
//
// The --ablate flag additionally reports the log_full_keys ablation (key
// bytes logged instead of position-only keycopy records).

#include <cstring>

#include "bench/bench_common.h"

namespace oir::bench {
namespace {

int Main(int argc, char** argv) {
  bool ablate = false;
  uint64_t num_keys_small = 120000;  // ~2850 half-full 2 KB leaf pages
  uint64_t num_keys_wide = 60000;    // ~3150 half-full leaf pages (52 B rows)
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ablate") == 0) ablate = true;
    if (std::strcmp(argv[i], "--quick") == 0) {
      num_keys_small = kTable1QuickKeysSmall;
      num_keys_wide = kTable1QuickKeysWide;
    }
  }

  std::printf("Table 1 reproduction: Lratio / Cratio vs ntasize\n");
  std::printf("(2 KB pages, ~50%% utilized index, fillfactor 100, cold "
              "cache, 16 KB I/O)\n\n");
  std::printf("%-8s %-12s %-8s %12s %10s %8s %8s %8s\n", "keysz",
              "avg-nl-row", "ntasize", "log-bytes", "cpu-ms", "Lratio",
              "Cratio", "pages");

  const uint32_t kNtasizes[] = {1, 2, 4, 8, 16, 32, 64};
  for (int key_size : {4, 40}) {
    uint64_t num_keys = key_size == 4 ? num_keys_small : num_keys_wide;
    uint64_t base_log = 0;
    uint64_t base_cpu = 0;
    for (uint32_t nta : kNtasizes) {
      Table1Row r =
          RunTable1(key_size, num_keys, nta, /*log_full_keys=*/false);
      if (nta == 1) {
        base_log = r.log_bytes;
        base_cpu = r.cpu_ns;
      }
      std::printf("%-8d %-12.1f %-8u %12llu %10.1f %8.2f %8.2f %8llu\n",
                  key_size, r.nonleaf_row, nta,
                  (unsigned long long)r.log_bytes, r.cpu_ns / 1e6,
                  base_log == 0 ? 0.0
                                : static_cast<double>(base_log) / r.log_bytes,
                  base_cpu == 0 ? 0.0
                                : static_cast<double>(base_cpu) / r.cpu_ns,
                  (unsigned long long)r.old_pages);
    }
    std::printf("\n");
  }

  std::printf("Paper's Table 1 for comparison:\n");
  std::printf("  key  4, nta 32: Lratio 7.3, Cratio 2.4\n");
  std::printf("  key  4, nta 64: Lratio 8.0, Cratio 2.4\n");
  std::printf("  key 40, nta 32: Lratio 4.9, Cratio 3.7\n");
  std::printf("  key 40, nta 64: Lratio 5.4, Cratio 4.0\n\n");

  if (ablate) {
    std::printf("Ablation: minimal (position-only keycopy) logging vs "
                "logging full keys (Section 3 design choice)\n");
    std::printf("%-8s %-8s %16s %16s %8s\n", "keysz", "ntasize",
                "keycopy-bytes", "fullkey-bytes", "ratio");
    for (int key_size : {4, 40}) {
      uint64_t num_keys = (key_size == 4 ? num_keys_small : num_keys_wide);
      for (uint32_t nta : {1u, 32u}) {
        Table1Row a = RunTable1(key_size, num_keys, nta, false);
        Table1Row b = RunTable1(key_size, num_keys, nta, true);
        std::printf("%-8d %-8u %16llu %16llu %8.2f\n", key_size, nta,
                    (unsigned long long)a.log_bytes,
                    (unsigned long long)b.log_bytes,
                    static_cast<double>(b.log_bytes) / a.log_bytes);
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace oir::bench

int main(int argc, char** argv) { return oir::bench::Main(argc, argv); }
