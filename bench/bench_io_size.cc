// Section 6.3: the rebuild asks the buffer manager to use the largest
// buffers available; with 2 KB pages and 16 KB buffers, reads and writes
// move 8 pages per disk operation. We sweep the forced-write I/O size and
// report the disk operations the rebuild needed (the new pages are written
// in chunk order, so multi-page transfers group perfectly). Each transfer
// size runs twice — with and without the batch walk's read-ahead — to show
// the read side shrinking symmetrically with the forced writes.

#include "bench/bench_common.h"
#include "core/rebuild.h"
#include "util/counters.h"

namespace oir::bench {
namespace {

struct RunStats {
  CounterSnapshot delta;
  RebuildResult res;
};

RunStats RunOnce(uint64_t n, uint32_t io_pages, bool prefetch) {
  auto db = OpenDb();
  BuildHalfUtilizedIndex(db.get(), n, 12);
  ColdCache(db.get());

  RunStats out;
  auto before = GlobalCounters::Get().Snapshot();
  RebuildOptions opts;
  opts.io_pages = io_pages;
  opts.prefetch = prefetch;
  OIR_CHECK(db->index()->RebuildOnline(opts, &out.res).ok());
  out.delta = GlobalCounters::Get().Snapshot() - before;
  return out;
}

int Main(int argc, char** argv) {
  uint64_t n = 60000;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") n = 15000;
  }
  std::printf("Disk operations vs I/O transfer size (Section 6.3)\n");
  std::printf("(2 KB pages; 8 pages = the paper's 16 KB buffers; "
              "read-ops with and without read-ahead)\n\n");
  std::printf("%-10s %12s %12s %12s %14s %14s %12s\n", "io-pages",
              "io-bytes", "write-ops", "read-ops", "read-ops-nopf",
              "pages-written", "new-pages");

  for (uint32_t io_pages : {1u, 2u, 4u, 8u, 16u}) {
    RunStats pf = RunOnce(n, io_pages, /*prefetch=*/true);
    RunStats nopf = RunOnce(n, io_pages, /*prefetch=*/false);

    std::printf("%-10u %12u %12llu %12llu %14llu %14llu %12llu\n", io_pages,
                io_pages * kDefaultPageSize,
                (unsigned long long)pf.delta.io_write_ops,
                (unsigned long long)pf.delta.io_read_ops,
                (unsigned long long)nopf.delta.io_read_ops,
                (unsigned long long)pf.delta.pages_written,
                (unsigned long long)pf.res.new_leaf_pages);
  }
  std::printf("\nExpected shape: write-ops shrinks ~linearly with the "
              "transfer size while\npages-written stays constant; "
              "read-ops shrinks the same way only when the\nbatch walk's "
              "read-ahead is on (the forced-write/read-ahead symmetry).\n");
  return 0;
}

}  // namespace
}  // namespace oir::bench

int main(int argc, char** argv) { return oir::bench::Main(argc, argv); }
