// B+-tree tests: key codec, node searches, single-threaded tree behaviour
// (inserts, deletes, splits, shrinks, lookups, validation).

#include "btree/btree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "btree/cursor.h"
#include "tests/test_util.h"

namespace oir {
namespace {

using test::MakeDb;
using test::NumKey;

// ------------------------------------------------------------- key codec

TEST(KeyTest, CompositeRoundTrip) {
  std::string k = MakeIndexKey(Slice("user-key"), 0x1122334455667788ull);
  EXPECT_EQ(UserKeyOf(Slice(k)).ToString(), "user-key");
  EXPECT_EQ(RowIdOf(Slice(k)), 0x1122334455667788ull);
}

TEST(KeyTest, RowIdBreaksTiesInOrder) {
  std::string a = MakeIndexKey(Slice("same"), 1);
  std::string b = MakeIndexKey(Slice("same"), 2);
  std::string c = MakeIndexKey(Slice("same"), 256);
  EXPECT_LT(Slice(a).compare(Slice(b)), 0);
  EXPECT_LT(Slice(b).compare(Slice(c)), 0);
}

TEST(KeyTest, SeparatorIsShortestAndOrdered) {
  // Differ at first byte: one-byte separator.
  std::string s = MakeSeparator(Slice("apple"), Slice("banana")).ToString();
  EXPECT_EQ(s, "b");
  // Shared prefix.
  s = MakeSeparator(Slice("abcX"), Slice("abcZ")).ToString();
  EXPECT_EQ(s, "abcZ");  // prefix through the differing byte
  // left is a proper prefix of right.
  s = MakeSeparator(Slice("abc"), Slice("abcdef")).ToString();
  EXPECT_EQ(s, "abcd");
  // Invariants: left < s <= right.
  EXPECT_LT(Slice("abc").compare(Slice(s)), 0);
  EXPECT_LE(Slice(s).compare(Slice("abcdef")), 0);
}

TEST(KeyTest, SeparatorShortensWideKeys) {
  // This is the suffix-compression effect Table 1 depends on: 40-byte keys
  // with diverging early bytes yield very short separators.
  std::string left = "customer-000123" + std::string(25, 'x');
  std::string right = "customer-000124" + std::string(25, 'x');
  Slice s = MakeSeparator(Slice(left), Slice(right));
  EXPECT_LE(s.size(), 16u);
}

// ------------------------------------------------------------ node codec

TEST(NodeTest, NonLeafRowRoundTrip) {
  std::string row = node::MakeNonLeafRow(42, Slice("sep"));
  EXPECT_EQ(node::ChildOf(Slice(row)), 42u);
  EXPECT_EQ(node::SeparatorOf(Slice(row)).ToString(), "sep");
  std::string first = node::MakeNonLeafRow(7, Slice());
  EXPECT_EQ(node::ChildOf(Slice(first)), 7u);
  EXPECT_TRUE(node::SeparatorOf(Slice(first)).empty());
}

class NodeSearchTest : public ::testing::Test {
 protected:
  NodeSearchTest() : buf_(2048, 0), page_(buf_.data(), 2048) {
    page_.Init(1, 1);
    // Children: C0 (-inf), [d->C1], [m->C2], [t->C3].
    page_.InsertAt(0, Slice(node::MakeNonLeafRow(10, Slice())));
    page_.InsertAt(1, Slice(node::MakeNonLeafRow(11, Slice("d"))));
    page_.InsertAt(2, Slice(node::MakeNonLeafRow(12, Slice("m"))));
    page_.InsertAt(3, Slice(node::MakeNonLeafRow(13, Slice("t"))));
  }
  std::vector<char> buf_;
  SlottedPage page_;
};

TEST_F(NodeSearchTest, FindChildIdx) {
  EXPECT_EQ(node::FindChildIdx(page_, Slice("a")), 0);
  EXPECT_EQ(node::FindChildIdx(page_, Slice("c")), 0);
  EXPECT_EQ(node::FindChildIdx(page_, Slice("d")), 1);  // inclusive low bound
  EXPECT_EQ(node::FindChildIdx(page_, Slice("k")), 1);
  EXPECT_EQ(node::FindChildIdx(page_, Slice("m")), 2);
  EXPECT_EQ(node::FindChildIdx(page_, Slice("s")), 2);
  EXPECT_EQ(node::FindChildIdx(page_, Slice("z")), 3);
}

TEST_F(NodeSearchTest, FindEntryInsertPos) {
  EXPECT_EQ(node::FindEntryInsertPos(page_, Slice("b")), 1);
  EXPECT_EQ(node::FindEntryInsertPos(page_, Slice("d")), 2);  // after equal
  EXPECT_EQ(node::FindEntryInsertPos(page_, Slice("p")), 3);
  EXPECT_EQ(node::FindEntryInsertPos(page_, Slice("z")), 4);
}

TEST_F(NodeSearchTest, FindChildPos) {
  EXPECT_EQ(node::FindChildPos(page_, 10), 0);
  EXPECT_EQ(node::FindChildPos(page_, 13), 3);
  EXPECT_EQ(node::FindChildPos(page_, 99), -1);
}

TEST(NodeLeafSearchTest, LowerBoundAndFind) {
  std::vector<char> buf(2048, 0);
  SlottedPage page(buf.data(), 2048);
  page.Init(1, kLeafLevel);
  page.InsertAt(0, Slice("bb"));
  page.InsertAt(1, Slice("dd"));
  page.InsertAt(2, Slice("ff"));
  EXPECT_EQ(node::LeafLowerBound(page, Slice("aa")), 0);
  EXPECT_EQ(node::LeafLowerBound(page, Slice("bb")), 0);
  EXPECT_EQ(node::LeafLowerBound(page, Slice("cc")), 1);
  EXPECT_EQ(node::LeafLowerBound(page, Slice("zz")), 3);
  SlotId pos;
  EXPECT_TRUE(node::LeafFind(page, Slice("dd"), &pos));
  EXPECT_EQ(pos, 1);
  EXPECT_FALSE(node::LeafFind(page, Slice("cc"), &pos));
}

// ------------------------------------------------------------- tree ops

TEST(BTreeTest, EmptyTreeLookupAndScan) {
  auto db = MakeDb();
  auto txn = db->BeginTxn();
  bool found = true;
  ASSERT_OK(db->index()->Lookup(txn.get(), "nope", 1, &found));
  EXPECT_FALSE(found);
  auto cur = db->index()->NewCursor(txn.get());
  ASSERT_OK(cur->SeekToFirst());
  EXPECT_FALSE(cur->Valid());
  ASSERT_OK(db->Commit(txn.get()));
  TreeStats stats;
  ASSERT_OK(db->tree()->Validate(&stats));
  EXPECT_EQ(stats.height, 1u);
  EXPECT_EQ(stats.num_keys, 0u);
}

TEST(BTreeTest, SingleInsertLookup) {
  auto db = MakeDb();
  auto txn = db->BeginTxn();
  ASSERT_OK(db->index()->Insert(txn.get(), "hello", 42));
  bool found = false;
  ASSERT_OK(db->index()->Lookup(txn.get(), "hello", 42, &found));
  EXPECT_TRUE(found);
  ASSERT_OK(db->index()->Lookup(txn.get(), "hello", 43, &found));
  EXPECT_FALSE(found);  // composite key includes the ROWID
  ASSERT_OK(db->Commit(txn.get()));
}

TEST(BTreeTest, DuplicateCompositeRejected) {
  auto db = MakeDb();
  auto txn = db->BeginTxn();
  ASSERT_OK(db->index()->Insert(txn.get(), "k", 1));
  Status s = db->index()->Insert(txn.get(), "k", 1);
  EXPECT_TRUE(s.IsInvalidArgument());
  // Same key, different rid is fine (secondary index duplicates).
  ASSERT_OK(db->index()->Insert(txn.get(), "k", 2));
  ASSERT_OK(db->Commit(txn.get()));
}

TEST(BTreeTest, DeleteMissingKeyIsNotFound) {
  auto db = MakeDb();
  auto txn = db->BeginTxn();
  Status s = db->index()->Delete(txn.get(), "missing", 1);
  EXPECT_TRUE(s.IsNotFound());
  ASSERT_OK(db->Commit(txn.get()));
}

TEST(BTreeTest, KeyTooLongRejected) {
  auto db = MakeDb();
  auto txn = db->BeginTxn();
  std::string big(kMaxUserKeyLen + 1, 'x');
  EXPECT_TRUE(db->index()->Insert(txn.get(), big, 1).IsInvalidArgument());
  ASSERT_OK(db->Commit(txn.get()));
}

TEST(BTreeTest, SequentialInsertsSplitToMultipleLevels) {
  auto db = MakeDb();
  std::vector<uint64_t> ids(2000);
  for (uint64_t i = 0; i < ids.size(); ++i) ids[i] = i;
  test::InsertMany(db.get(), ids);
  TreeStats stats;
  ASSERT_OK(db->tree()->Validate(&stats));
  EXPECT_EQ(stats.num_keys, 2000u);
  EXPECT_GE(stats.height, 2u);
  EXPECT_GT(stats.num_leaf_pages, 10u);
  test::ExpectTreeContains(db.get(), std::set<uint64_t>(ids.begin(),
                                                        ids.end()));
}

TEST(BTreeTest, ReverseOrderInserts) {
  auto db = MakeDb();
  std::vector<uint64_t> ids;
  for (uint64_t i = 1500; i-- > 0;) ids.push_back(i);
  test::InsertMany(db.get(), ids);
  test::ExpectTreeContains(db.get(),
                           std::set<uint64_t>(ids.begin(), ids.end()));
}

TEST(BTreeTest, RandomOrderInserts) {
  auto db = MakeDb();
  const uint64_t seed = test::TestSeed(99);
  OIR_SCOPED_SEED_TRACE(seed);
  Random rnd(seed);
  std::set<uint64_t> ids;
  while (ids.size() < 1500) ids.insert(rnd.Uniform(1000000));
  std::vector<uint64_t> shuffled(ids.begin(), ids.end());
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rnd.Uniform(i)]);
  }
  test::InsertMany(db.get(), shuffled);
  test::ExpectTreeContains(db.get(), ids);
}

TEST(BTreeTest, DeleteEverythingShrinksTree) {
  auto db = MakeDb();
  std::vector<uint64_t> ids(1200);
  for (uint64_t i = 0; i < ids.size(); ++i) ids[i] = i;
  test::InsertMany(db.get(), ids);
  TreeStats stats;
  ASSERT_OK(db->tree()->Validate(&stats));
  EXPECT_GT(stats.num_leaf_pages, 5u);
  test::DeleteMany(db.get(), ids);
  ASSERT_OK(db->tree()->Validate(&stats));
  EXPECT_EQ(stats.num_keys, 0u);
  // Shrink removed emptied pages; the tree should be small again.
  EXPECT_LE(stats.num_leaf_pages, 2u);
  test::ExpectTreeContains(db.get(), {});
}

TEST(BTreeTest, DeleteFrontToBack) {
  auto db = MakeDb();
  std::vector<uint64_t> ids(800);
  for (uint64_t i = 0; i < ids.size(); ++i) ids[i] = i;
  test::InsertMany(db.get(), ids);
  test::DeleteMany(db.get(), ids);  // ascending: exercises first-child path
  test::ExpectTreeContains(db.get(), {});
}

TEST(BTreeTest, DeleteBackToFront) {
  auto db = MakeDb();
  std::vector<uint64_t> ids(800);
  for (uint64_t i = 0; i < ids.size(); ++i) ids[i] = i;
  test::InsertMany(db.get(), ids);
  std::vector<uint64_t> rev(ids.rbegin(), ids.rend());
  test::DeleteMany(db.get(), rev);
  test::ExpectTreeContains(db.get(), {});
}

TEST(BTreeTest, InterleavedInsertDelete) {
  auto db = MakeDb();
  const uint64_t seed = test::TestSeed(3);
  OIR_SCOPED_SEED_TRACE(seed);
  Random rnd(seed);
  std::set<uint64_t> live;
  auto txn = db->BeginTxn();
  for (int step = 0; step < 5000; ++step) {
    if (live.empty() || rnd.Uniform(3) != 0) {
      uint64_t id = rnd.Uniform(4000);
      if (live.insert(id).second) {
        ASSERT_OK(db->index()->Insert(txn.get(), NumKey(id), id));
      }
    } else {
      uint64_t pick = *std::next(live.begin(),
                                 rnd.Uniform(live.size()));
      ASSERT_OK(db->index()->Delete(txn.get(), NumKey(pick), pick));
      live.erase(pick);
    }
  }
  ASSERT_OK(db->Commit(txn.get()));
  test::ExpectTreeContains(db.get(), live);
}

TEST(BTreeTest, DuplicateUserKeysAcrossManyPages) {
  // Many rows share one user key; only the ROWID distinguishes them. This
  // stresses separator generation on near-identical keys.
  auto db = MakeDb();
  auto txn = db->BeginTxn();
  for (uint64_t rid = 0; rid < 2000; ++rid) {
    ASSERT_OK(db->index()->Insert(txn.get(), "dup", rid));
  }
  ASSERT_OK(db->Commit(txn.get()));
  TreeStats stats;
  ASSERT_OK(db->tree()->Validate(&stats));
  EXPECT_EQ(stats.num_keys, 2000u);
  bool found = false;
  auto t2 = db->BeginTxn();
  ASSERT_OK(db->index()->Lookup(t2.get(), "dup", 1234, &found));
  EXPECT_TRUE(found);
  ASSERT_OK(db->Commit(t2.get()));
}

TEST(BTreeTest, VariableLengthKeys) {
  auto db = MakeDb();
  const uint64_t seed = test::TestSeed(17);
  OIR_SCOPED_SEED_TRACE(seed);
  Random rnd(seed);
  std::set<std::pair<std::string, uint64_t>> rows;
  auto txn = db->BeginTxn();
  for (int i = 0; i < 1500; ++i) {
    std::string key = rnd.Bytes(rnd.Range(1, kMaxUserKeyLen));
    uint64_t rid = i;
    if (rows.emplace(key, rid).second) {
      ASSERT_OK(db->index()->Insert(txn.get(), key, rid));
    }
  }
  ASSERT_OK(db->Commit(txn.get()));
  TreeStats stats;
  ASSERT_OK(db->tree()->Validate(&stats));
  EXPECT_EQ(stats.num_keys, rows.size());
}

TEST(BTreeTest, SmallPagesDeepTree) {
  auto db = MakeDb(/*page_size=*/512);
  std::vector<uint64_t> ids(3000);
  for (uint64_t i = 0; i < ids.size(); ++i) ids[i] = i * 7;
  test::InsertMany(db.get(), ids);
  TreeStats stats;
  ASSERT_OK(db->tree()->Validate(&stats));
  EXPECT_GE(stats.height, 3u);
  test::ExpectTreeContains(db.get(),
                           std::set<uint64_t>(ids.begin(), ids.end()));
}

TEST(BTreeTest, SuffixCompressionKeepsNonLeafRowsSmall) {
  auto db = MakeDb();
  // 40-byte keys with a varying prefix: separators should compress far
  // below the key size (the premise of Table 1's second configuration).
  auto txn = db->BeginTxn();
  for (uint64_t i = 0; i < 3000; ++i) {
    std::string key = NumKey(i, 12) + std::string(28, 'p');
    ASSERT_OK(db->index()->Insert(txn.get(), key, i));
  }
  ASSERT_OK(db->Commit(txn.get()));
  TreeStats stats;
  ASSERT_OK(db->tree()->Validate(&stats));
  EXPECT_GT(stats.num_nonleaf_pages, 0u);
  EXPECT_LT(stats.AvgNonLeafRowBytes(), 40.0);
}

TEST(BTreeTest, FirstLeafFindsLeftmost) {
  auto db = MakeDb();
  std::vector<uint64_t> ids(500);
  for (uint64_t i = 0; i < ids.size(); ++i) ids[i] = i;
  test::InsertMany(db.get(), ids);
  PageId first;
  ASSERT_OK(db->tree()->FirstLeaf(&first));
  PageRef ref;
  ASSERT_OK(db->buffer_manager()->Fetch(first, &ref));
  EXPECT_EQ(ref.header()->prev_page, kInvalidPageId);
  SlottedPage sp(ref.data(), db->buffer_manager()->page_size());
  EXPECT_EQ(UserKeyOf(sp.Get(0)).ToString(), NumKey(0));
}

}  // namespace
}  // namespace oir
