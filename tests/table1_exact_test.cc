// Exact counts of the Table 1 reproduction (Section 6.4). The rebuild is
// deterministic on a quiet index: the same index, options and code give
// the same log records and the same pages, byte for byte. These tests pin
// the numbers `bench_table1 --quick --ablate` prints, plus an expansion
// rebuild (fillfactor 60 over a packed index) that drives the parent-split
// and root-split paths of propagation, so a refactor of the rebuild that
// changes what it logs or how it lays out pages fails here.

#include <gtest/gtest.h>

#include "bench/bench_common.h"

namespace oir::bench {
namespace {

struct Expected {
  int key_size;
  uint32_t ntasize;
  uint64_t log_bytes;
  uint64_t old_pages;
};

uint64_t QuickKeys(int key_size) {
  return key_size == 4 ? kTable1QuickKeysSmall : kTable1QuickKeysWide;
}

TEST(Table1ExactTest, LogBytesAndPagesPerNtasize) {
  const Expected kRows[] = {
      {4, 1, 276776, 480},   {4, 2, 169801, 480},  {4, 4, 104638, 480},
      {4, 8, 72058, 480},    {4, 16, 55407, 480},  {4, 32, 46992, 480},
      {4, 64, 42551, 480},   {40, 1, 479888, 811}, {40, 2, 297294, 811},
      {40, 4, 187351, 811},  {40, 8, 131696, 811}, {40, 16, 103462, 811},
      {40, 32, 88309, 811},  {40, 64, 77188, 811},
  };
  for (const Expected& e : kRows) {
    SCOPED_TRACE(::testing::Message() << "key " << e.key_size << " B, ntasize "
                                      << e.ntasize);
    const Table1Row r = RunTable1(e.key_size, QuickKeys(e.key_size),
                                  e.ntasize, /*log_full_keys=*/false);
    EXPECT_EQ(r.log_bytes, e.log_bytes);
    EXPECT_EQ(r.old_pages, e.old_pages);
  }
}

TEST(Table1ExactTest, FullKeyAblationBytes) {
  const Expected kRows[] = {
      {4, 1, 664951, 480},
      {4, 32, 433460, 480},
      {40, 1, 1211107, 811},
      {40, 32, 817408, 811},
  };
  for (const Expected& e : kRows) {
    SCOPED_TRACE(::testing::Message() << "key " << e.key_size << " B, ntasize "
                                      << e.ntasize);
    const Table1Row r = RunTable1(e.key_size, QuickKeys(e.key_size),
                                  e.ntasize, /*log_full_keys=*/true);
    EXPECT_EQ(r.log_bytes, e.log_bytes);
    EXPECT_EQ(r.old_pages, e.old_pages);
  }
}

// Packs a half-utilized index at fillfactor 100, then rebuilds it cold at
// fillfactor 60: every leaf turns into ~1.7 leaves, so level-1 pages split
// (and, for the small index, the level-1 root itself).
struct Expansion {
  uint64_t log_bytes;
  uint64_t old_pages;
  uint64_t new_pages;
  uint32_t height_before;
  uint32_t height_after;
  uint64_t nonleaf_after;
};

Expansion RunExpansion(int key_size, uint64_t num_keys, bool reorganize) {
  auto db = OpenDb();
  BuildHalfUtilizedIndex(db.get(), num_keys, key_size);
  RebuildOptions opts;
  opts.ntasize = 32;
  opts.xactsize = 256;
  opts.io_pages = 8;
  RebuildResult packed;
  OIR_CHECK(db->index()->RebuildOnline(opts, &packed).ok());
  TreeStats before;
  OIR_CHECK(db->tree()->Validate(&before).ok());
  ColdCache(db.get());

  opts.fillfactor = 60;
  opts.reorganize_level1 = reorganize;
  RebuildResult res;
  OIR_CHECK(db->index()->RebuildOnline(opts, &res).ok());
  TreeStats after;
  OIR_CHECK(db->tree()->Validate(&after).ok());
  OIR_CHECK(after.num_keys == before.num_keys);
  return Expansion{res.log_bytes,   res.old_leaf_pages,
                   res.new_leaf_pages, before.height,
                   after.height,    after.num_nonleaf_pages};
}

void ExpectExpansion(const Expansion& got, const Expansion& want) {
  EXPECT_EQ(got.log_bytes, want.log_bytes);
  EXPECT_EQ(got.old_pages, want.old_pages);
  EXPECT_EQ(got.new_pages, want.new_pages);
  EXPECT_EQ(got.height_before, want.height_before);
  EXPECT_EQ(got.height_after, want.height_after);
  EXPECT_EQ(got.nonleaf_after, want.nonleaf_after);
}

TEST(Table1ExactTest, ExpansionSplitsTheLevel1Root) {
  // 120 packed leaves under a level-1 root grow to 200: the root splits.
  for (bool reorganize : {true, false}) {
    SCOPED_TRACE(::testing::Message() << "reorganize_level1 " << reorganize);
    ExpectExpansion(RunExpansion(4, 15000, reorganize),
                    Expansion{30144, 120, 200, 2, 3, 4});
  }
}

TEST(Table1ExactTest, ExpansionSplitsLevel1Pages) {
  // The §5.5 moves into the open left page change how level 1 fills.
  for (bool reorganize : {true, false}) {
    SCOPED_TRACE(::testing::Message() << "reorganize_level1 " << reorganize);
    ExpectExpansion(RunExpansion(40, 15000, reorganize),
                    reorganize ? Expansion{102718, 395, 653, 3, 3, 9}
                               : Expansion{115792, 395, 653, 3, 3, 15});
  }
}

}  // namespace
}  // namespace oir::bench
