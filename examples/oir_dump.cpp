// oir_dump — inspect a persisted database, in the spirit of LevelDB's
// `ldb`. Opens the data + log files read-compatibly (running restart
// recovery first, like any open), then prints what was asked:
//
//   oir_dump <base-path> tree          tree structure (summarized leaves)
//   oir_dump <base-path> tree --rows   ... with every leaf row
//   oir_dump <base-path> stats         page/space/utilization statistics
//   oir_dump <base-path> json          full stats snapshot as one JSON doc
//   oir_dump <base-path> log [N]       the last N log records (default 50)
//   oir_dump <base-path> pages         per-state page counts
//
// <base-path> is the prefix used when the database was created with
// file_path = <base>.db and log_path = <base>.log. With no arguments, the
// tool creates a small demo database in /tmp and dumps it, so it is
// runnable out of the box.

#include <cstdio>
#include <cstring>
#include <string>

#include "core/db.h"
#include "core/index.h"

using namespace oir;

namespace {

int DumpTree(Db* db, bool rows) {
  std::string out;
  Status s = db->tree()->Dump(&out, rows);
  if (!s.ok()) {
    std::fprintf(stderr, "dump failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::fputs(out.c_str(), stdout);
  return 0;
}

int DumpStats(Db* db) {
  TreeStats stats;
  Status s = db->tree()->Validate(&stats);
  std::printf("validation: %s\n", s.ToString().c_str());
  if (!s.ok()) return 1;
  std::printf("height:              %u\n", stats.height);
  std::printf("keys:                %llu\n",
              (unsigned long long)stats.num_keys);
  std::printf("leaf pages:          %llu\n",
              (unsigned long long)stats.num_leaf_pages);
  std::printf("non-leaf pages:      %llu\n",
              (unsigned long long)stats.num_nonleaf_pages);
  std::printf("leaf utilization:    %.1f%%\n",
              stats.LeafUtilization() * 100);
  std::printf("avg non-leaf row:    %.1f bytes\n",
              stats.AvgNonLeafRowBytes());
  std::printf("leaf seq runs:       %llu (%.3f per page; lower = more "
              "clustered)\n",
              (unsigned long long)stats.leaf_seq_runs,
              stats.num_leaf_pages == 0
                  ? 0.0
                  : (double)stats.leaf_seq_runs / stats.num_leaf_pages);
  std::printf("log bytes retained:  %llu (head lsn %llu, tail lsn %llu)\n",
              (unsigned long long)(db->log_manager()->tail_lsn() -
                                   db->log_manager()->head_lsn()),
              (unsigned long long)db->log_manager()->head_lsn(),
              (unsigned long long)db->log_manager()->tail_lsn());
  return 0;
}

int DumpPages(Db* db) {
  auto* space = db->space_manager();
  std::printf("allocated:    %llu\n",
              (unsigned long long)space->CountInState(PageState::kAllocated));
  std::printf("deallocated:  %llu\n",
              (unsigned long long)
                  space->CountInState(PageState::kDeallocated));
  std::printf("free:         %llu\n",
              (unsigned long long)space->CountInState(PageState::kFree));
  std::printf("high water:   page %u\n", space->end_page());
  std::printf("device size:  %u pages x %u bytes\n", db->disk()->NumPages(),
              db->options().page_size);
  return 0;
}

int DumpLog(Db* db, int limit) {
  // Collect the last `limit` records.
  std::vector<std::pair<Lsn, LogRecord>> records;
  for (auto it = db->log_manager()->Scan(db->log_manager()->head_lsn());
       it.Valid(); it.Next()) {
    records.emplace_back(it.lsn(), it.record());
  }
  size_t start = records.size() > static_cast<size_t>(limit)
                     ? records.size() - limit
                     : 0;
  for (size_t i = start; i < records.size(); ++i) {
    const LogRecord& r = records[i].second;
    std::printf("lsn %8llu  txn %4llu  %-12s page=%u",
                (unsigned long long)records[i].first,
                (unsigned long long)r.txn_id, LogTypeName(r.type), r.page_id);
    if (r.is_clr) std::printf("  CLR undo_next=%llu",
                              (unsigned long long)r.undo_next);
    if (!r.rows.empty()) std::printf("  rows=%zu", r.rows.size());
    if (!r.copies.empty()) std::printf("  copies=%zu", r.copies.size());
    if (!r.pages.empty()) std::printf("  pages=%zu", r.pages.size());
    std::printf("\n");
  }
  std::printf("(%zu records total, showing last %zu)\n", records.size(),
              records.size() - start);
  return 0;
}

int MakeDemo(std::string* base) {
  *base = "/tmp/oir_dump_demo";
  DbOptions opts;
  opts.file_path = *base + ".db";
  opts.log_path = *base + ".log";
  std::remove(opts.file_path.c_str());
  std::remove(opts.log_path.c_str());
  std::remove((opts.log_path + ".master").c_str());
  std::unique_ptr<Db> db;
  if (!Db::Open(opts, &db).ok()) return 1;
  auto txn = db->BeginTxn();
  for (uint64_t i = 0; i < 500; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "item-%06llu", (unsigned long long)i);
    if (!db->index()->Insert(txn.get(), key, i).ok()) return 1;
  }
  if (!db->Commit(txn.get()).ok()) return 1;
  RebuildResult res;
  if (!db->index()->RebuildOnline(RebuildOptions(), &res).ok()) return 1;
  if (!db->Checkpoint().ok()) return 1;
  std::printf("(no arguments: created a demo database at %s.{db,log})\n\n",
              base->c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string base;
  std::string cmd = "stats";
  bool rows = false;
  int limit = 50;
  if (argc < 2) {
    if (MakeDemo(&base) != 0) return 1;
  } else {
    base = argv[1];
    if (argc >= 3) cmd = argv[2];
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--rows") == 0) rows = true;
      else limit = std::atoi(argv[i]);
    }
  }

  DbOptions opts;
  opts.file_path = base + ".db";
  opts.log_path = base + ".log";
  std::unique_ptr<Db> db;
  RecoveryStats rstats;
  Status s = Db::OpenExisting(opts, &db, &rstats);
  if (!s.ok()) {
    std::fprintf(stderr, "open %s failed: %s\n", base.c_str(),
                 s.ToString().c_str());
    return 1;
  }
  std::printf("opened %s (recovery: %s)\n\n", base.c_str(),
              rstats.ToString().c_str());

  if (cmd == "tree") return DumpTree(db.get(), rows);
  if (cmd == "stats") return DumpStats(db.get());
  if (cmd == "json") {
    std::printf("%s\n", db->DumpStatsJson().c_str());
    return 0;
  }
  if (cmd == "pages") return DumpPages(db.get());
  if (cmd == "log") return DumpLog(db.get(), limit);
  std::fprintf(stderr, "unknown command '%s' (tree|stats|json|pages|log)\n",
               cmd.c_str());
  return 2;
}
