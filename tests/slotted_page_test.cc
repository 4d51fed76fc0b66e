// Unit and property tests for the slotted page layer.

#include "storage/slotted_page.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "tests/test_util.h"
#include "util/random.h"

namespace oir {
namespace {

class SlottedPageTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kPageSize = 2048;
  SlottedPageTest() : buf_(kPageSize, 0), page_(buf_.data(), kPageSize) {
    page_.Init(7, kLeafLevel);
  }
  std::vector<char> buf_;
  SlottedPage page_;
};

TEST_F(SlottedPageTest, InitSetsHeader) {
  EXPECT_EQ(page_.header()->page_id, 7u);
  EXPECT_EQ(page_.header()->level, kLeafLevel);
  EXPECT_EQ(page_.nslots(), 0u);
  EXPECT_EQ(page_.header()->free_ptr, kPageHeaderSize);
  EXPECT_EQ(page_.FreeSpace(), kPageSize - kPageHeaderSize);
  EXPECT_TRUE(page_.Validate());
}

TEST_F(SlottedPageTest, InsertAndGet) {
  ASSERT_TRUE(page_.InsertAt(0, Slice("bbb")));
  ASSERT_TRUE(page_.InsertAt(0, Slice("aaa")));
  ASSERT_TRUE(page_.InsertAt(2, Slice("ccc")));
  EXPECT_EQ(page_.nslots(), 3u);
  EXPECT_EQ(page_.Get(0).ToString(), "aaa");
  EXPECT_EQ(page_.Get(1).ToString(), "bbb");
  EXPECT_EQ(page_.Get(2).ToString(), "ccc");
  EXPECT_TRUE(page_.Validate());
}

TEST_F(SlottedPageTest, InsertShiftsSlots) {
  ASSERT_TRUE(page_.InsertAt(0, Slice("a")));
  ASSERT_TRUE(page_.InsertAt(1, Slice("c")));
  ASSERT_TRUE(page_.InsertAt(1, Slice("b")));
  EXPECT_EQ(page_.Get(0).ToString(), "a");
  EXPECT_EQ(page_.Get(1).ToString(), "b");
  EXPECT_EQ(page_.Get(2).ToString(), "c");
}

TEST_F(SlottedPageTest, DeleteShiftsSlots) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(page_.InsertAt(i, Slice(std::string(1, 'a' + i))));
  }
  page_.DeleteAt(1);  // remove 'b'
  EXPECT_EQ(page_.nslots(), 4u);
  EXPECT_EQ(page_.Get(0).ToString(), "a");
  EXPECT_EQ(page_.Get(1).ToString(), "c");
  EXPECT_EQ(page_.Get(3).ToString(), "e");
  EXPECT_TRUE(page_.Validate());
}

TEST_F(SlottedPageTest, DeleteLastRowReclaimsDirectly) {
  ASSERT_TRUE(page_.InsertAt(0, Slice("hello")));
  uint32_t before = page_.FreeSpace();
  page_.DeleteAt(0);
  EXPECT_EQ(page_.header()->garbage, 0u);
  EXPECT_EQ(page_.FreeSpace(), before + 5 + kSlotSize);
}

TEST_F(SlottedPageTest, DeleteInteriorCreatesGarbage) {
  ASSERT_TRUE(page_.InsertAt(0, Slice("first")));
  ASSERT_TRUE(page_.InsertAt(1, Slice("second")));
  page_.DeleteAt(0);
  EXPECT_EQ(page_.header()->garbage, 5u);
  EXPECT_TRUE(page_.Validate());
  page_.Compact();
  EXPECT_EQ(page_.header()->garbage, 0u);
  EXPECT_EQ(page_.Get(0).ToString(), "second");
}

TEST_F(SlottedPageTest, InsertFailsWhenFull) {
  std::string row(100, 'x');
  int inserted = 0;
  while (page_.InsertAt(0, Slice(row))) ++inserted;
  // 2016 usable bytes / 104 per row = 19 rows.
  EXPECT_EQ(inserted, 19);
  EXPECT_FALSE(page_.HasRoomFor(100));
  EXPECT_TRUE(page_.HasRoomFor(30));
  EXPECT_TRUE(page_.Validate());
}

TEST_F(SlottedPageTest, InsertTriggersCompaction) {
  std::string row(100, 'x');
  while (page_.InsertAt(0, Slice(row))) {
  }
  // Delete an interior row: space is only reclaimable via compaction.
  page_.DeleteAt(3);
  EXPECT_GT(page_.header()->garbage, 0u);
  ASSERT_TRUE(page_.InsertAt(0, Slice(row)));  // forces Compact()
  EXPECT_TRUE(page_.Validate());
}

TEST_F(SlottedPageTest, ReplaceSameOrSmallerInPlace) {
  ASSERT_TRUE(page_.InsertAt(0, Slice("abcdef")));
  ASSERT_TRUE(page_.ReplaceAt(0, Slice("xyz")));
  EXPECT_EQ(page_.Get(0).ToString(), "xyz");
  EXPECT_EQ(page_.header()->garbage, 3u);
  EXPECT_TRUE(page_.Validate());
}

TEST_F(SlottedPageTest, ReplaceLargerReinserts) {
  ASSERT_TRUE(page_.InsertAt(0, Slice("ab")));
  ASSERT_TRUE(page_.InsertAt(1, Slice("cd")));
  ASSERT_TRUE(page_.ReplaceAt(0, Slice("longer-row")));
  EXPECT_EQ(page_.Get(0).ToString(), "longer-row");
  EXPECT_EQ(page_.Get(1).ToString(), "cd");
  EXPECT_TRUE(page_.Validate());
}

TEST_F(SlottedPageTest, ReplaceLargerFailsWhenFullKeepsOriginal) {
  std::string row(100, 'x');
  while (page_.InsertAt(0, Slice(row))) {
  }
  std::string bigger(400, 'y');
  EXPECT_FALSE(page_.ReplaceAt(0, Slice(bigger)));
  EXPECT_EQ(page_.Get(0).ToString(), row);
  EXPECT_TRUE(page_.Validate());
}

TEST_F(SlottedPageTest, EmptyRowsSupported) {
  ASSERT_TRUE(page_.InsertAt(0, Slice("")));
  EXPECT_EQ(page_.nslots(), 1u);
  EXPECT_TRUE(page_.Get(0).empty());
  page_.DeleteAt(0);
  EXPECT_EQ(page_.nslots(), 0u);
}

TEST_F(SlottedPageTest, UsedSpaceAccounting) {
  ASSERT_TRUE(page_.InsertAt(0, Slice("12345")));
  EXPECT_EQ(page_.UsedSpace(), 5 + kSlotSize);
  ASSERT_TRUE(page_.InsertAt(1, Slice("678")));
  EXPECT_EQ(page_.UsedSpace(), 8 + 2 * kSlotSize);
}

// Property test: random inserts/deletes/replacements against a reference
// vector, checking content and Validate() at every step.
TEST(SlottedPagePropertyTest, RandomOpsMatchReference) {
  const uint64_t base_seed = oir::test::TestSeed(1);
  for (uint64_t seed = base_seed; seed < base_seed + 8; ++seed) {
    OIR_SCOPED_SEED_TRACE(seed);
    Random rnd(seed);
    std::vector<char> buf(1024, 0);
    SlottedPage page(buf.data(), 1024);
    page.Init(1, 2);
    std::vector<std::string> ref;
    for (int step = 0; step < 2000; ++step) {
      int op = static_cast<int>(rnd.Uniform(4));
      if (op == 0 || ref.empty()) {
        std::string row = rnd.Bytes(rnd.Range(0, 40));
        SlotId pos = static_cast<SlotId>(rnd.Uniform(ref.size() + 1));
        bool ok = page.InsertAt(pos, Slice(row));
        bool expect_ok =
            page.nslots() <= ref.size() &&  // insert failed -> unchanged
            true;
        (void)expect_ok;
        if (ok) ref.insert(ref.begin() + pos, row);
      } else if (op == 1) {
        SlotId pos = static_cast<SlotId>(rnd.Uniform(ref.size()));
        page.DeleteAt(pos);
        ref.erase(ref.begin() + pos);
      } else if (op == 2) {
        SlotId pos = static_cast<SlotId>(rnd.Uniform(ref.size()));
        std::string row = rnd.Bytes(rnd.Range(0, 40));
        if (page.ReplaceAt(pos, Slice(row))) ref[pos] = row;
      } else {
        page.Compact();
      }
      ASSERT_TRUE(page.Validate()) << "seed " << seed << " step " << step;
      ASSERT_EQ(page.nslots(), ref.size());
      for (size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(page.Get(static_cast<SlotId>(i)).ToString(), ref[i])
            << "seed " << seed << " step " << step << " slot " << i;
      }
    }
  }
}

// Compaction oracle: seeded random InsertAt/DeleteAt/ReplaceAt runs with a
// Compact after every few operations, on several page sizes, with one row
// in four zero-length (they share boundary offsets). After each step the
// rows must match a std::vector<std::string> model and Validate() must
// hold; after each Compact the garbage must be gone, all free space must be
// contiguous and the live bytes must be unchanged.
TEST(SlottedPagePropertyTest, CompactMatchesReference) {
  const uint64_t base_seed = oir::test::TestSeed(1);
  for (uint32_t page_size : {512u, 2048u, 8192u}) {
    for (uint64_t seed = base_seed; seed < base_seed + 4; ++seed) {
      OIR_SCOPED_SEED_TRACE(seed);
      SCOPED_TRACE(::testing::Message() << "page_size " << page_size);
      Random rnd(seed);
      std::vector<char> buf(page_size, 0);
      SlottedPage page(buf.data(), page_size);
      page.Init(1, kLeafLevel);
      std::vector<std::string> ref;
      auto random_row = [&] {
        return rnd.OneIn(4) ? std::string() : rnd.Bytes(rnd.Range(1, 60));
      };
      for (int step = 0; step < 3000; ++step) {
        const int op = static_cast<int>(rnd.Uniform(10));
        if (op < 4 || ref.empty()) {
          std::string row = random_row();
          SlotId pos = static_cast<SlotId>(rnd.Uniform(ref.size() + 1));
          if (page.InsertAt(pos, Slice(row))) {
            ref.insert(ref.begin() + pos, row);
          }
        } else if (op < 7) {
          SlotId pos = static_cast<SlotId>(rnd.Uniform(ref.size()));
          page.DeleteAt(pos);
          ref.erase(ref.begin() + pos);
        } else if (op < 9) {
          SlotId pos = static_cast<SlotId>(rnd.Uniform(ref.size()));
          std::string row = random_row();
          if (page.ReplaceAt(pos, Slice(row))) ref[pos] = row;
        } else {
          const uint32_t used = page.UsedSpace();
          const uint32_t free = page.FreeSpace();
          page.Compact();
          ASSERT_EQ(page.header()->garbage, 0u) << "step " << step;
          ASSERT_EQ(page.ContiguousFreeSpace(), free) << "step " << step;
          ASSERT_EQ(page.UsedSpace(), used) << "step " << step;
        }
        ASSERT_TRUE(page.Validate()) << "step " << step;
        ASSERT_EQ(page.nslots(), ref.size()) << "step " << step;
        for (size_t i = 0; i < ref.size(); ++i) {
          ASSERT_EQ(page.Get(static_cast<SlotId>(i)).ToString(), ref[i])
              << "step " << step << " slot " << i;
        }
      }
    }
  }
}

// InsertRowsFrom (the keycopy row mover) against a model: random runs of a
// source page's rows land at random positions of a target page that has
// garbage, or are refused with the target left unchanged.
TEST(SlottedPagePropertyTest, InsertRowsFromMatchesReference) {
  const uint64_t seed = oir::test::TestSeed(1);
  OIR_SCOPED_SEED_TRACE(seed);
  Random rnd(seed);
  constexpr uint32_t kSize = 1024;
  std::vector<char> sbuf(kSize, 0);
  std::vector<char> tbuf(kSize, 0);
  SlottedPage src(sbuf.data(), kSize);
  SlottedPage tgt(tbuf.data(), kSize);
  src.Init(1, kLeafLevel);
  std::vector<std::string> src_rows;
  while (true) {
    std::string row = rnd.OneIn(5) ? std::string() : rnd.Bytes(rnd.Range(1, 30));
    if (!src.InsertAt(src.nslots(), Slice(row))) break;
    src_rows.push_back(row);
  }
  for (int round = 0; round < 200; ++round) {
    tgt.Init(2, kLeafLevel);
    std::vector<std::string> ref;
    // Leave garbage behind so a copy may need a compaction.
    for (int i = 0; i < 12; ++i) {
      std::string row = rnd.Bytes(rnd.Range(0, 40));
      ASSERT_TRUE(tgt.InsertAt(tgt.nslots(), Slice(row)));
      ref.push_back(row);
    }
    for (int i = 0; i < 6; ++i) {
      SlotId pos = static_cast<SlotId>(rnd.Uniform(ref.size()));
      tgt.DeleteAt(pos);
      ref.erase(ref.begin() + pos);
    }
    for (int copy = 0; copy < 4; ++copy) {
      const SlotId first = static_cast<SlotId>(rnd.Uniform(src_rows.size()));
      const SlotId last = static_cast<SlotId>(
          first + rnd.Uniform(src_rows.size() - first));
      const SlotId pos = static_cast<SlotId>(rnd.Uniform(ref.size() + 1));
      const std::vector<char> before = tbuf;
      if (tgt.InsertRowsFrom(pos, src, first, last)) {
        ref.insert(ref.begin() + pos, src_rows.begin() + first,
                   src_rows.begin() + last + 1);
      } else {
        ASSERT_EQ(tbuf, before) << "round " << round << " copy " << copy;
      }
      ASSERT_TRUE(tgt.Validate()) << "round " << round << " copy " << copy;
      ASSERT_EQ(tgt.nslots(), ref.size());
      for (size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(tgt.Get(static_cast<SlotId>(i)).ToString(), ref[i])
            << "round " << round << " copy " << copy << " slot " << i;
      }
    }
  }
}

}  // namespace
}  // namespace oir
