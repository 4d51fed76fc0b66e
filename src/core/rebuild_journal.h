#ifndef OIR_CORE_REBUILD_JOURNAL_H_
#define OIR_CORE_REBUILD_JOURNAL_H_

// Latest-durable-rebuild-progress mailbox between the online rebuilder and
// the checkpointer. The rebuilder publishes every progress record it
// appends (and clears the entry on completion); Db::Checkpoint embeds the
// latest one into the kCheckpoint payload so a checkpoint taken mid-rebuild
// keeps the resume cursor recoverable even after the log prefix holding the
// progress records is truncated. After restart recovery the pending resume
// state is re-published here, so a post-recovery checkpoint taken before
// the rebuild is resumed still carries it.
//
// A progress record's append and its publication are one step with
// respect to a checkpoint's capture of its scan start: a checkpoint whose
// scan starts after a progress record therefore always embeds that record
// or a newer one. Otherwise a checkpoint could read the entry a done
// record was about to clear, start its scan after the done record, and
// re-arm a completed rebuild at recovery.

#include <string>

#include "sync/mutex.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace oir {

class RebuildJournal {
 public:
  // Publishes `info` as the latest progress (rebuilder thread / recovery).
  void Publish(const RebuildProgressInfo& info) {
    MutexLock l(mu_);
    valid_ = true;
    info_ = info;
  }

  // Drops the entry: the rebuild completed (no resume needed).
  void Clear() {
    MutexLock l(mu_);
    valid_ = false;
    info_ = RebuildProgressInfo();
  }

  // Appends `rec`, a kRebuildProgress record, to `log` and publishes its
  // payload, or clears the entry when it is a done record (rebuilder).
  Lsn AppendAndPublish(LogManager* log, LogRecord* rec) {
    MutexLock l(mu_);
    const Lsn lsn = log->AppendSystem(rec);
    valid_ = !rec->rebuild_progress.done;
    info_ = valid_ ? rec->rebuild_progress : RebuildProgressInfo();
    return lsn;
  }

  // Checkpoint side: returns `log`'s tail, the checkpoint's recovery scan
  // start, and copies the latest progress into *info (left untouched when
  // no rebuild is pending, so checkpoints embed an inactive payload).
  Lsn Snapshot(const LogManager& log, RebuildProgressInfo* info) const {
    MutexLock l(mu_);
    if (valid_) *info = info_;
    return log.tail_lsn();
  }

 private:
  mutable Mutex mu_;
  bool valid_ OIR_GUARDED_BY(mu_) = false;
  RebuildProgressInfo info_ OIR_GUARDED_BY(mu_);
};

}  // namespace oir

#endif  // OIR_CORE_REBUILD_JOURNAL_H_
