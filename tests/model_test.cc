// Model-based property test: a random workload of inserts, deletes,
// lookups, scans, aborts, online/offline rebuilds and crash-recovery
// cycles is executed against both the index and an in-memory reference
// model (std::set of composite keys). After every phase the index must
// contain exactly the model's contents and pass structural validation.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/db.h"
#include "core/index.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace oir {
namespace {

using test::MakeDb;
using test::NumKey;

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

  // Model: set of (key id, rid) committed; plus the current uncommitted
  // transaction's pending effects.
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
      ASSERT_EQ(rows[i].first, NumKey(id)) << when << " at " << i;
      ASSERT_EQ(rows[i].second, rid) << when << " at " << i;
      ++i;
    }
  };

  for (int step = 0; step < param.steps; ++step) {
    int action = static_cast<int>(rnd.Uniform(100));
    if (action < 80) {
      // A transaction with a random batch of inserts/deletes; 25% abort.
      bool will_abort = rnd.OneIn(4);
      auto txn = db->BeginTxn();
      std::set<std::pair<uint64_t, uint64_t>> local = committed;
      int batch = 1 + static_cast<int>(rnd.Uniform(40));
      for (int b = 0; b < batch; ++b) {
        uint64_t id = rnd.Uniform(3000);
        uint64_t rid = id;
        if (rnd.OneIn(3) && !local.empty()) {
          auto it = local.lower_bound({id, 0});
          if (it == local.end()) it = local.begin();
          Status s = db->index()->Delete(txn.get(), NumKey(it->first),
                                         it->second);
          ASSERT_TRUE(s.ok()) << s.ToString();
          local.erase(it);
        } else if (local.count({id, rid}) == 0) {
          Status s = db->index()->Insert(txn.get(), NumKey(id), rid);
          ASSERT_TRUE(s.ok()) << s.ToString();
          local.insert({id, rid});
        }
      }
      if (will_abort) {
        ASSERT_OK(db->Abort(txn.get()));
      } else {
        ASSERT_OK(db->Commit(txn.get()));
        committed = std::move(local);
      }
    } else if (action < 88) {
      // Online rebuild with random options.
      RebuildOptions ropts;
      ropts.ntasize = 1u << rnd.Uniform(6);
      ropts.xactsize = ropts.ntasize * (1 + (uint32_t)rnd.Uniform(8));
      ropts.fillfactor = 60 + (uint32_t)rnd.Uniform(41);
      ropts.reorganize_level1 = !rnd.OneIn(4);
      ropts.log_full_keys = rnd.OneIn(5);
      RebuildResult res;
      Status s = db->index()->RebuildOnline(ropts, &res);
      ASSERT_TRUE(s.ok()) << s.ToString();
      verify("after online rebuild");
    } else if (action < 92) {
      RebuildResult res;
      ASSERT_OK(db->index()->RebuildOffline(&res));
      verify("after offline rebuild");
    } else if (action < 97) {
      // Random point lookups must agree with the model.
      auto txn = db->BeginTxn();
      for (int q = 0; q < 20; ++q) {
        uint64_t id = rnd.Uniform(3000);
        bool found;
        ASSERT_OK(db->index()->Lookup(txn.get(), NumKey(id), id, &found));
        ASSERT_EQ(found, committed.count({id, id}) > 0) << "id " << id;
      }
      ASSERT_OK(db->Commit(txn.get()));
    } else {
      // Crash and recover.
      RecoveryStats stats;
      ASSERT_OK(db->CrashAndRecover(&stats));
      verify("after crash recovery");
    }
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
