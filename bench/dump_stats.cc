// Smoke check of the stats export surface: opens a database, loads keys,
// runs a traced online rebuild with progress callbacks, and asserts that
// Db::DumpStatsJson() and the chrome://tracing dump are valid JSON.
// Exits nonzero on any failure, so it doubles as a ctest entry. Pass a
// file path argument to also write the chrome trace there.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/db.h"
#include "core/index.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace {

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "dump_stats: FAILED: %s\n", what);
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace oir;

  DbOptions opts;
  opts.page_size = 2048;
  opts.buffer_pool_pages = 1 << 14;
  std::unique_ptr<Db> db;
  Check(Db::Open(opts, &db).ok(), "Db::Open");

  obs::TraceBuffer::Get().Clear();

  auto txn = db->BeginTxn();
  char key[32];
  for (uint64_t i = 0; i < 5000; ++i) {
    std::snprintf(key, sizeof(key), "%012llu",
                  static_cast<unsigned long long>(i));
    Check(db->index()->Insert(txn.get(), key, i).ok(), "Insert");
  }
  Check(db->Commit(txn.get()).ok(), "Commit");

  uint64_t callbacks = 0;
  RebuildOptions ropts;
  ropts.on_progress = [&callbacks](const obs::RebuildProgress&) {
    ++callbacks;
  };
  RebuildResult res;
  Check(db->index()->RebuildOnline(ropts, &res).ok(), "RebuildOnline");
  Check(res.top_actions > 0, "rebuild did work");
  Check(callbacks > 0, "on_progress fired");

  Lsn horizon = 0;
  Check(db->Checkpoint(&horizon).ok(), "Checkpoint");

  const std::string stats = db->DumpStatsJson();
  Check(obs::JsonIsValid(stats), "DumpStatsJson is valid JSON");
  for (const char* section :
       {"\"counters\"", "\"pool\"", "\"wal\"", "\"lock\"",
        "\"rebuild_progress\"", "\"rebuild\"", "\"wait_profile\""}) {
    Check(stats.find(section) != std::string::npos, section);
  }
  Check(stats.find("\"keys_moved\"") != std::string::npos,
        "rebuild report spliced into stats");

  const std::string trace = obs::TraceBuffer::Get().DumpChromeTracing();
  Check(obs::JsonIsValid(trace), "chrome trace is valid JSON");
  Check(trace.find("top_action") != std::string::npos,
        "trace has top-action slices");
  Check(trace.find("propagate_phase") != std::string::npos,
        "trace has propagation-phase slices");
  Check(trace.find("checkpoint") != std::string::npos,
        "trace has the checkpoint event");

  if (argc > 1) {
    FILE* f = std::fopen(argv[1], "w");
    Check(f != nullptr, "open trace output file");
    std::fwrite(trace.data(), 1, trace.size(), f);
    std::fclose(f);
    std::printf("wrote chrome trace to %s (load at chrome://tracing)\n",
                argv[1]);
  }

  std::printf("dump_stats: OK (%llu top actions, %llu callbacks, "
              "%zu-byte stats doc, %zu-byte trace)\n",
              static_cast<unsigned long long>(res.top_actions),
              static_cast<unsigned long long>(callbacks),
              stats.size(), trace.size());
  std::printf("%s\n", db->DumpStatsText().c_str());
  return 0;
}
