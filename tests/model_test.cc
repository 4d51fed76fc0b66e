// Model-based property test: a random workload of inserts, deletes,
// insert/delete bursts, lookups, scans, aborts, online/offline rebuilds and
// crash-recovery cycles is executed against both the index and an
// in-memory reference model (std::set of composite keys). The seed also
// draws each case's shape: key size 4-40 B, 1k-20k keys, and for every
// online rebuild fillfactor 50-100, ntasize 1-64 and xactsize. After every
// rebuild and recovery the index must contain exactly the model's contents
// and pass structural validation; a failure prints its seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/db.h"
#include "core/index.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace oir {
namespace {


struct ModelParam {
  uint64_t seed;
  uint32_t page_size;
  int steps;
};

class ModelTest : public ::testing::TestWithParam<ModelParam> {};

TEST_P(ModelTest, RandomWorkloadMatchesReference) {
  const ModelParam param = GetParam();
  const uint64_t seed = test::TestSeed(param.seed);
  OIR_SCOPED_SEED_TRACE(seed);
  Random rnd(seed);
  DbOptions opts;
  opts.page_size = param.page_size;
  opts.buffer_pool_pages = 1 << 14;
  std::unique_ptr<Db> db;
  ASSERT_OK(Db::Open(opts, &db));

  // The case's shape: keys of 4-40 bytes (the id big-endian in the last
  // four), an initial load of 1k-20k keys over an id space twice that.
  const int key_size = 4 + static_cast<int>(rnd.Uniform(37));
  const uint64_t num_keys = 1000 + rnd.Uniform(19001);
  const uint64_t id_space = 2 * num_keys;
  auto key_of = [&](uint64_t id) {
    std::string k(key_size, 'k');
    for (int i = 0; i < 4; ++i) {
      k[key_size - 1 - i] = static_cast<char>((id >> (8 * i)) & 0xff);
    }
    return k;
  };
  SCOPED_TRACE(::testing::Message() << "key_size " << key_size << ", keys "
                                    << num_keys);

  // Model: set of (key id, rid) committed.
  std::set<std::pair<uint64_t, uint64_t>> committed;

  auto verify = [&](const char* when) {
    TreeStats stats;
    Status s = db->tree()->Validate(&stats);
    ASSERT_TRUE(s.ok()) << when << ": " << s.ToString();
    ASSERT_EQ(stats.num_keys, committed.size()) << when;
    auto rows = test::ScanAll(db.get());
    ASSERT_EQ(rows.size(), committed.size()) << when;
    size_t i = 0;
    for (const auto& [id, rid] : committed) {
      ASSERT_EQ(rows[i].first, key_of(id)) << when << " at " << i;
      ASSERT_EQ(rows[i].second, rid) << when << " at " << i;
      ++i;
    }
  };

  // Runs one transaction of inserts (`ins`) and deletes, keeping the model
  // in step unless it aborts. A row is inserted only if absent and deleted
  // only if present, so the model decides every operation's outcome.
  auto run_txn = [&](const std::vector<std::pair<uint64_t, bool>>& ops,
                     bool abort) {
    auto txn = db->BeginTxn();
    std::set<std::pair<uint64_t, uint64_t>> added;
    std::set<std::pair<uint64_t, uint64_t>> removed;
    auto present = [&](const std::pair<uint64_t, uint64_t>& r) {
      return added.count(r) > 0 ||
             (committed.count(r) > 0 && removed.count(r) == 0);
    };
    for (const auto& [id, ins] : ops) {
      const std::pair<uint64_t, uint64_t> row{id, id};
      if (ins && !present(row)) {
        Status s = db->index()->Insert(txn.get(), key_of(id), id);
        ASSERT_TRUE(s.ok()) << s.ToString();
        if (removed.erase(row) == 0) added.insert(row);
      } else if (!ins && present(row)) {
        Status s = db->index()->Delete(txn.get(), key_of(id), id);
        ASSERT_TRUE(s.ok()) << s.ToString();
        if (added.erase(row) == 0) removed.insert(row);
      }
    }
    if (abort) {
      ASSERT_OK(db->Abort(txn.get()));
      return;
    }
    ASSERT_OK(db->Commit(txn.get()));
    for (const auto& r : removed) committed.erase(r);
    committed.insert(added.begin(), added.end());
  };

  {
    std::vector<std::pair<uint64_t, bool>> load;
    for (uint64_t n = 0; n < num_keys; ++n) {
      load.emplace_back(rnd.Uniform(id_space), true);
    }
    run_txn(load, /*abort=*/false);
  }

  for (int step = 0; step < param.steps; ++step) {
    int action = static_cast<int>(rnd.Uniform(100));
    if (action < 70) {
      // A transaction with a random batch of inserts/deletes; 25% abort.
      std::vector<std::pair<uint64_t, bool>> ops;
      const int batch = 1 + static_cast<int>(rnd.Uniform(40));
      for (int b = 0; b < batch; ++b) {
        ops.emplace_back(rnd.Uniform(id_space), !rnd.OneIn(3));
      }
      run_txn(ops, rnd.OneIn(4));
    } else if (action < 78) {
      // A burst: insert or delete a whole id range of up to a quarter of
      // the initial load, so the next rebuild meets pages that filled
      // up (parent splits) or emptied (parent shrinks).
      const bool ins = rnd.OneIn(2);
      const uint64_t len = 1 + rnd.Uniform(num_keys / 4);
      const uint64_t first = rnd.Uniform(id_space);
      std::vector<std::pair<uint64_t, bool>> ops;
      for (uint64_t id = first; id < std::min(first + len, id_space); ++id) {
        ops.emplace_back(id, ins);
      }
      run_txn(ops, /*abort=*/false);
    } else if (action < 88) {
      // Online rebuild with random options.
      RebuildOptions ropts;
      ropts.ntasize = 1 + static_cast<uint32_t>(rnd.Uniform(64));
      ropts.xactsize = ropts.ntasize * (1 + (uint32_t)rnd.Uniform(8));
      ropts.fillfactor = 50 + (uint32_t)rnd.Uniform(51);
      ropts.reorganize_level1 = !rnd.OneIn(4);
      ropts.log_full_keys = rnd.OneIn(5);
      SCOPED_TRACE(::testing::Message()
                   << "step " << step << ": ntasize " << ropts.ntasize
                   << ", xactsize " << ropts.xactsize << ", fillfactor "
                   << ropts.fillfactor);
      RebuildResult res;
      Status s = db->index()->RebuildOnline(ropts, &res);
      ASSERT_TRUE(s.ok()) << s.ToString();
      verify("after online rebuild");
    } else if (action < 91) {
      RebuildResult res;
      ASSERT_OK(db->index()->RebuildOffline(&res));
      verify("after offline rebuild");
    } else if (action < 97) {
      // Random point lookups must agree with the model.
      auto txn = db->BeginTxn();
      for (int q = 0; q < 20; ++q) {
        uint64_t id = rnd.Uniform(id_space);
        bool found;
        ASSERT_OK(db->index()->Lookup(txn.get(), key_of(id), id, &found));
        ASSERT_EQ(found, committed.count({id, id}) > 0) << "id " << id;
      }
      ASSERT_OK(db->Commit(txn.get()));
    } else {
      // Crash and recover.
      RecoveryStats stats;
      ASSERT_OK(db->CrashAndRecover(&stats));
      verify("after crash recovery");
    }
    if (HasFatalFailure()) return;
  }
  verify("final");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ModelTest,
    ::testing::Values(ModelParam{1, 2048, 120}, ModelParam{2, 2048, 120},
                      ModelParam{3, 1024, 120}, ModelParam{4, 512, 120},
                      ModelParam{5, 4096, 120}, ModelParam{6, 512, 200},
                      ModelParam{7, 2048, 200}, ModelParam{8, 1024, 200}));

}  // namespace
}  // namespace oir
