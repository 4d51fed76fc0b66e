#ifndef OIR_BENCH_BENCH_COMMON_H_
#define OIR_BENCH_BENCH_COMMON_H_

// Shared workload builders for the benchmark harness.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/db.h"
#include "core/index.h"
#include "core/rebuild.h"
#include "util/counters.h"
#include "util/logging.h"
#include "util/random.h"

namespace oir::bench {

inline std::string NumKey(uint64_t n, int width) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%0*llu", width,
                static_cast<unsigned long long>(n));
  return std::string(buf);
}

// Key generator: exactly `key_size` bytes, lexicographically ascending in
// n. Small keys are big-endian binary counters; wide keys use a 12-digit
// decimal prefix plus padding, so suffix compression produces short
// separators (as ASE's did).
inline std::string BenchKey(uint64_t n, int key_size) {
  OIR_CHECK(key_size >= 1);
  if (key_size <= 8) {
    std::string out(key_size, '\0');
    for (int i = key_size - 1; i >= 0; --i) {
      out[i] = static_cast<char>(n & 0xff);
      n >>= 8;
    }
    OIR_CHECK(n == 0);  // the counter must fit the key width
    return out;
  }
  return NumKey(n, 12) + std::string(key_size - 12, 'p');
}

inline std::unique_ptr<Db> OpenDbOpts(const DbOptions& opts) {
  std::unique_ptr<Db> db;
  Status s = Db::Open(opts, &db);
  OIR_CHECK(s.ok());
  return db;
}

inline std::unique_ptr<Db> OpenDb(uint32_t page_size = kDefaultPageSize,
                                  size_t pool_pages = 1 << 15) {
  DbOptions opts;
  opts.page_size = page_size;
  opts.buffer_pool_pages = pool_pages;
  return OpenDbOpts(opts);
}

// Exact mean commit-group size: commits acknowledged per durable-advance
// group. Both counters are bumped on the ack path itself (not inferred
// from fsync counts, which the pipelined WAL also spends on segments no
// commit waited for), so the ratio is exact. Meaningful only when group
// commit is on — the synchronous flush path acks nothing; returns 0.0
// then so callers can suppress the figure.
inline double MeanGroupSize(const CounterSnapshot& d) {
  return d.log_groups_acked == 0
             ? 0.0
             : static_cast<double>(d.log_commits_acked) / d.log_groups_acked;
}

// Prints the I/O-path counters for a measured region: buffer-pool traffic
// and the WAL flush/fsync ratio.
inline void PrintIoPathCounters(const CounterSnapshot& d) {
  const uint64_t lookups = d.pool_hits + d.pool_misses;
  std::printf("  pool: %llu hits / %llu misses (%.1f%% hit), "
              "%llu evictions, %llu write-backs, %llu prefetched\n",
              (unsigned long long)d.pool_hits,
              (unsigned long long)d.pool_misses,
              lookups == 0 ? 0.0 : 100.0 * d.pool_hits / lookups,
              (unsigned long long)d.pool_evictions,
              (unsigned long long)d.pool_writebacks,
              (unsigned long long)d.pool_prefetched);
  if (d.log_groups_acked > 0) {
    std::printf("  wal:  %llu flush calls, %llu fsyncs, %llu commits in "
                "%llu groups (mean group %.1f)\n",
                (unsigned long long)d.log_flush_calls,
                (unsigned long long)d.log_fsyncs,
                (unsigned long long)d.log_commits_acked,
                (unsigned long long)d.log_groups_acked, MeanGroupSize(d));
  } else {
    std::printf("  wal:  %llu flush calls, %llu fsyncs "
                "(group commit off)\n",
                (unsigned long long)d.log_flush_calls,
                (unsigned long long)d.log_fsyncs);
  }
}

// Builds the paper's Table 1 workload: an index at ~50% space utilization
// (sequential load then deletion of every other key). Keys are `key_size`
// bytes. Returns the surviving ids.
inline std::vector<uint64_t> BuildHalfUtilizedIndex(Db* db, uint64_t num_keys,
                                                    int key_size) {
  const uint64_t total = num_keys * 2;
  {
    auto txn = db->BeginTxn();
    for (uint64_t i = 0; i < total; ++i) {
      Status s = db->index()->Insert(txn.get(), BenchKey(i, key_size), i);
      OIR_CHECK(s.ok());
      if (i % 4096 == 4095) {
        OIR_CHECK(db->Commit(txn.get()).ok());
        txn = db->BeginTxn();
      }
    }
    OIR_CHECK(db->Commit(txn.get()).ok());
  }
  {
    auto txn = db->BeginTxn();
    for (uint64_t i = 1; i < total; i += 2) {
      Status s = db->index()->Delete(txn.get(), BenchKey(i, key_size), i);
      OIR_CHECK(s.ok());
      if (i % 8192 == 8191) {
        OIR_CHECK(db->Commit(txn.get()).ok());
        txn = db->BeginTxn();
      }
    }
    OIR_CHECK(db->Commit(txn.get()).ok());
  }
  std::vector<uint64_t> survivors;
  survivors.reserve(num_keys);
  for (uint64_t i = 0; i < total; i += 2) survivors.push_back(i);
  return survivors;
}

// Cold cache (Section 6.4: "the cache is cold"): everything to disk, then
// drop the pool.
inline void ColdCache(Db* db) {
  OIR_CHECK(db->buffer_manager()->FlushAll().ok());
  db->buffer_manager()->DropAll();
}

// One Table 1 cell (Section 6.4): a half-utilized index of `num_keys` keys
// of `key_size` bytes on 2 KB pages, rebuilt online from a cold cache at
// fillfactor 100 with 16 KB I/O. `bench_table1` prints these; the
// table1_exact test pins their log bytes and page counts.
struct Table1Row {
  int key_size = 0;
  uint32_t ntasize = 0;
  uint64_t log_bytes = 0;
  uint64_t cpu_ns = 0;
  uint64_t old_pages = 0;
  uint64_t new_pages = 0;
  double nonleaf_row = 0;
};

// `bench_table1 --quick` index sizes: ~480 and ~810 half-full leaves.
constexpr uint64_t kTable1QuickKeysSmall = 30000;
constexpr uint64_t kTable1QuickKeysWide = 15000;

inline Table1Row RunTable1(int key_size, uint64_t num_keys, uint32_t ntasize,
                           bool log_full_keys) {
  auto db = OpenDb();
  BuildHalfUtilizedIndex(db.get(), num_keys, key_size);
  TreeStats before;
  OIR_CHECK(db->tree()->Validate(&before).ok());
  ColdCache(db.get());

  RebuildOptions opts;
  opts.ntasize = ntasize;
  opts.xactsize = std::max<uint32_t>(256, ntasize);
  opts.fillfactor = 100;
  opts.io_pages = 8;  // 16 KB buffers over 2 KB pages (Section 6.4 setup)
  opts.log_full_keys = log_full_keys;
  RebuildResult res;
  OIR_CHECK(db->index()->RebuildOnline(opts, &res).ok());

  TreeStats after;
  OIR_CHECK(db->tree()->Validate(&after).ok());
  OIR_CHECK(after.num_keys == before.num_keys);

  Table1Row row;
  row.key_size = key_size;
  row.ntasize = ntasize;
  row.log_bytes = res.log_bytes;
  row.cpu_ns = res.cpu_ns;
  row.old_pages = res.old_leaf_pages;
  row.new_pages = res.new_leaf_pages;
  row.nonleaf_row = after.AvgNonLeafRowBytes();
  return row;
}

}  // namespace oir::bench

#endif  // OIR_BENCH_BENCH_COMMON_H_
